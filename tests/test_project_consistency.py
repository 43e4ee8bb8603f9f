"""Repository-level consistency checks."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


class TestVersionConsistency:
    def test_pyproject_matches_package(self):
        import repro

        pyproject = (ROOT / "pyproject.toml").read_text()
        assert f'version = "{repro.__version__}"' in pyproject


class TestDocumentationFiles:
    @pytest.mark.parametrize("name", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
    def test_required_docs_exist(self, name):
        path = ROOT / name
        assert path.exists()
        assert len(path.read_text()) > 1000

    def test_design_covers_every_figure_and_table(self):
        design = (ROOT / "DESIGN.md").read_text().lower()
        for artefact in (
            "fig2", "fig3", "fig4", "tab3", "tab4",
            "fig11", "tab5", "fig12", "fig13", "fig14", "fig15",
        ):
            assert artefact in design, artefact

    def test_experiments_covers_every_figure_and_table(self):
        experiments = (ROOT / "EXPERIMENTS.md").read_text()
        for artefact in (
            "Fig 2", "Fig 3", "Fig 4", "Table III", "Table IV",
            "Fig 11", "Table V", "Fig 12", "Fig 13", "Fig 14", "Fig 15",
        ):
            assert artefact in experiments, artefact


class TestBenchmarkCoverage:
    def test_one_bench_per_artefact(self):
        benches = {p.name for p in (ROOT / "benchmarks").glob("test_*.py")}
        for required in (
            "test_fig2_update_times.py",
            "test_fig3_parse_cost.py",
            "test_fig4_path_popularity.py",
            "test_table3_models.py",
            "test_table4_windows.py",
            "test_fig11_cache_budget.py",
            "test_table5_cached_paths.py",
            "test_fig12_breakdown.py",
            "test_fig13_plan_time.py",
            "test_fig14_online_lru.py",
            "test_fig15_parsers.py",
        ):
            assert required in benches, required


class TestExamples:
    def test_at_least_three_runnable_examples(self):
        examples = list((ROOT / "examples").glob("*.py"))
        assert len(examples) >= 3
        assert (ROOT / "examples" / "quickstart.py").exists()

    def test_examples_have_main_guard_and_docstring(self):
        for path in (ROOT / "examples").glob("*.py"):
            text = path.read_text()
            assert '__name__ == "__main__"' in text, path.name
            assert text.startswith('"""'), path.name


def functions_longer_than(limit: int, paths) -> list[str]:
    too_long = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lines = node.end_lineno - node.lineno + 1
                if lines > limit:
                    too_long.append(f"{path.name}:{node.name} ({lines})")
    return too_long


class TestRequestPathStaysLegible:
    def test_no_server_function_longer_than_120_lines(self):
        """``MaxsonServer.__init__`` once reached 306 lines and ``execute``
        256; the request path must not silently re-accrete."""
        server = sorted((ROOT / "src" / "repro" / "server").glob("*.py"))
        assert not functions_longer_than(120, server)


class TestOneScanPath:
    SRC = ROOT / "src" / "repro"

    def test_prepare_parallelizes_every_plan_exactly_once(self):
        """A second ``parallelize_plan`` call site in ``Session._prepare``
        is a second scan path (traced queries once had their own)."""
        tree = ast.parse((self.SRC / "engine" / "session.py").read_text())
        (prepare,) = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "_prepare"
        ]
        calls = [
            node
            for node in ast.walk(prepare)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "parallelize_plan"
        ]
        assert len(calls) == 1

    def test_no_scan_side_function_longer_than_80_lines(self):
        """The whole-scan ``MaxsonScanExec.execute_batch`` was 94 lines
        beside its per-split twin."""
        scan_side = [
            self.SRC / "core" / "combiner.py",
            self.SRC / "engine" / "physical.py",
            self.SRC / "engine" / "parallel.py",
            self.SRC / "engine" / "rawfilter.py",
        ]
        assert not functions_longer_than(80, scan_side)


class TestOneBuildPath:
    """One extractor: the value the cacher stores, the value the degraded
    fallback re-derives and the value a raw query reads (DESIGN §9)."""

    SRC = ROOT / "src" / "repro"

    def call_sites(self, name: str) -> set[str]:
        """``module.scope`` of every call of ``name`` outside ``jsonlib/``,
        a scope being a top-level class or function."""
        sites = set()
        for path in self.SRC.rglob("*.py"):
            if "jsonlib" in path.parts:
                continue
            for scope in ast.parse(path.read_text()).body:
                for node in ast.walk(scope):
                    if isinstance(node, ast.Call) and name in (
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None),
                    ):
                        sites.add(f"{path.stem}.{getattr(scope, 'name', '<module>')}")
        return sites

    def test_one_class_builds_document_caches_and_projectors(self):
        assert self.call_sites("DocumentCache") == {"expressions.EvalContext"}
        assert self.call_sites("PathProjector") == {"expressions.EvalContext"}

    def test_contexts_are_rooted_in_two_places(self):
        """A query's context comes from the session's configuration, a
        build's from the table's path set; every other one is a sibling
        (``EvalContext.fresh``)."""
        assert self.call_sites("EvalContext") == {
            "session.Session",
            "cacher.JsonPathCacher",
            "expressions.EvalContext",
        }
        assert self.call_sites("_fold_context_stats") >= {
            "session.Session",
            "combiner.MaxsonScanExec",
            "instrument.counter_snapshot",
        }

    def test_no_build_side_function_longer_than_80_lines(self):
        """``_swap_generation`` was 113 lines; ``populate``, ``refresh`` and
        their two private halves 185."""
        core = self.SRC / "core"
        build_side = [core / "cacher.py", core / "combiner.py", core / "system.py"]
        assert not functions_longer_than(80, build_side)
