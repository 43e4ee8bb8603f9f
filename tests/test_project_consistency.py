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


class TestOneFrameCodec:
    """SHM segments, result-cache entries and RPC reply bodies hold the
    lane frame of ``engine/frame.py`` (DESIGN §12 "One lane frame"); JSON
    on the wire is the envelope only."""

    SRC = ROOT / "src" / "repro"
    CODEC = {
        "_encode_lane", "_decode_lane", "encode_frame", "decode_frame",
        "frame_rows", "encode_batch", "decode_batch_frame",
    }  # fmt: skip

    def test_lane_codec_is_defined_once_and_imported_from_there(self):
        definers, importers = set(), set()
        for path in self.SRC.rglob("*.py"):
            imported, used = set(), set()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.FunctionDef) and node.name in self.CODEC:
                    definers.add(path.name)
                elif isinstance(node, ast.ImportFrom) and node.module in (
                    "frame",
                    "engine.frame",
                ):
                    imported |= {alias.name for alias in node.names}
                elif isinstance(node, (ast.Name, ast.Attribute)):
                    used.add(getattr(node, "id", getattr(node, "attr", None)))
            if path.name != "frame.py":
                assert used & self.CODEC <= imported, path
                importers |= {path.name} if imported else set()
        assert definers == {"frame.py"}
        # The shard and the router reach it through these: a reply's body is
        # ``QueryResult.frame()``, its rows ``RpcConnection.call``'s decode.
        assert importers == {"procpool.py", "resultcache.py", "session.py", "rpc.py"}

    def test_narrow_int_lane_is_the_codecs_and_the_frame_imports_it(self):
        """One int-lane codec for cache tables, SHM, result-cache entries
        and RPC bodies: ``encode_ints`` / ``decode_ints`` are defined in
        ``storage/codec.py`` only, and ``engine/frame.py`` imports both."""
        pair = {"encode_ints", "decode_ints"}
        definers, frame_imports = set(), set()
        for path in self.SRC.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.FunctionDef) and node.name in pair:
                    definers.add(path.relative_to(self.SRC).as_posix())
                elif isinstance(node, ast.ImportFrom) and path.name == "frame.py":
                    if (node.module or "").endswith("storage.codec"):
                        frame_imports |= {alias.name for alias in node.names}
        assert definers == {"storage/codec.py"}
        assert pair <= frame_imports

    def test_cluster_json_is_envelopes_only(self):
        """``json`` is called by ``send_frame`` / ``recv_frame`` alone, on
        the envelope, and ``"rows"`` is spelled only where a reply is
        decoded (``RpcConnection``) or read — never where one is built."""
        json_users, rows_users = set(), set()
        for path in (self.SRC / "cluster").glob("*.py"):
            for scope in ast.parse(path.read_text()).body:
                where = f"{path.stem}.{getattr(scope, 'name', '')}"
                for node in ast.walk(scope):
                    if getattr(getattr(node, "value", None), "id", "") == "json":
                        json_users.add(where)
                    if isinstance(node, ast.Constant) and node.value == "rows":
                        rows_users.add(where)
        assert json_users == {"rpc.send_frame", "rpc.recv_frame"}
        assert rows_users == {
            "rpc.RpcConnection",
            "router.ClusterRouter",
            "replay._RouterTarget",
        }

    def test_result_cache_replays_no_operator(self):
        """A hit is a stored final answer: ``resultcache.py`` imports
        nothing from the physical operators."""
        tree = ast.parse((self.SRC / "engine" / "resultcache.py").read_text())
        modules = {
            node.module
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
        }
        assert not modules & {"physical", "engine.physical", "repro.engine.physical"}


class TestOneOwnerPerKnob:
    """An engine knob is declared by the ``Session`` that reads it and the
    ``ServerConfig`` that may override it (README "Configuration")."""

    SRC = ROOT / "src" / "repro"
    #: knob -> every class under src/ with an annotated field of that name
    #: (``ServerStatus`` reports two of them; it configures nothing).
    OWNERS = {
        "scan_workers": {"Session", "ServerConfig"},
        "worker_backend": {"Session", "ServerConfig", "ServerStatus"},
        "plan_cache_entries": {"Session", "ServerConfig"},
        "result_cache_entries": {"Session"},
        "result_cache_enabled": {"Session"},
        "result_cache": {"ServerConfig", "ServerStatus"},
        "build_workers": {"MaxsonConfig", "ServerConfig"},
        # The MPJP rule is ``MPJP_THRESHOLD`` and no class takes another,
        # so the labels, the features and the efficacy book cannot disagree.
        "mpjp_threshold": set(),
    }

    def nodes(self, *types):
        for path in sorted(self.SRC.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, types):
                    yield path.name, node

    def test_knobs_are_fields_of_their_owners_only(self):
        declared: dict[str, set[str]] = {}
        for _, cls in self.nodes(ast.ClassDef):
            for stmt in cls.body:
                name = getattr(getattr(stmt, "target", None), "id", None)
                if isinstance(stmt, ast.AnnAssign) and name in self.OWNERS:
                    declared.setdefault(name, set()).add(cls.name)
        assert {knob: declared.get(knob, set()) for knob in self.OWNERS} == self.OWNERS

    def test_legal_backends_are_stated_once_and_flags_declared_once(self):
        """One constant, read by the validator, the per-backend gauge loop
        and the one ``choices=`` of the one ``--worker-backend``."""
        literals = [
            name
            for name, node in self.nodes(ast.Tuple, ast.List, ast.Set)
            if {getattr(e, "value", None) for e in node.elts} == {"thread", "process"}
        ]
        assert literals == ["session.py"]
        readers = {
            name
            for name, node in self.nodes(ast.Name)
            if node.id == "WORKER_BACKENDS" and isinstance(node.ctx, ast.Load)
        }
        assert readers == {"session.py", "cli.py", "service.py"}
        flags = {
            call.args[0].value: {kw.arg: kw.value for kw in call.keywords}
            for name, call in self.nodes(ast.Call)
            if name == "cli.py" and getattr(call.func, "attr", "") == "add_argument"
        }
        cli = (self.SRC / "cli.py").read_text()
        assert cli.count('"--scan-workers"') == cli.count('"--worker-backend"') == 1
        assert flags["--worker-backend"]["choices"].id == "WORKER_BACKENDS"

    def test_every_server_comes_from_the_one_recipe(self):
        sites = TestOneBuildPath().call_sites("MaxsonServer")
        assert sites == {"shard.build_shard_server"}
