"""Ablation: which factors of Score_j = A_j * R_j * O_j matter?

Re-runs the constrained-budget experiment with degenerate scoring
functions — acceleration-per-byte only, occurrence only, relevance only,
the full product, and random — to show that the composite score is at
least as good as any single factor under a tight budget.
"""

import pytest

from repro.core.scoring import ScoredPath

from .conftest import once, save_result

BUDGET_FRACTION = 0.25  # the tight '100GB' point, where ranking matters

_totals: dict[str, float] = {}
VARIANTS = ("full", "acceleration_only", "occurrence_only", "relevance_only", "random")


def _select_variant(env, scored, budget, variant):
    if variant == "random":
        from repro.core.scoring import ScoringFunction

        return ScoringFunction.random_selection(scored, budget, seed=3)
    keyfuncs = {
        "full": lambda sp: sp.score,
        "acceleration_only": lambda sp: sp.stats.acceleration_per_byte,
        "occurrence_only": lambda sp: float(sp.occurrences),
        "relevance_only": lambda sp: sp.relevance,
    }
    ranked = sorted(scored, key=keyfuncs[variant], reverse=True)
    chosen: list[ScoredPath] = []
    remaining = budget
    for candidate in ranked:
        cost = candidate.budget_bytes()
        if cost <= remaining:
            chosen.append(candidate)
            remaining -= cost
    return chosen


@pytest.mark.parametrize("variant", VARIANTS)
def test_ablation_scoring_variant(benchmark, env, variant):
    budget = int(env.total_candidate_bytes() * BUDGET_FRACTION)
    scored = env.system.scoring.score(set(env.candidates), env.shapes)
    selected = _select_variant(env, scored, budget, variant)
    env.drop_cache()
    env.system.cacher.populate([sp.key for sp in selected])

    results = once(benchmark, lambda: env.run_all(use_maxson=True))
    total = sum(r.metrics.total_seconds for r in results.values())
    _totals[variant] = total
    save_result(
        f"ablation_scoring_{variant}",
        {"total_seconds": total, "cached_paths": len(selected)},
    )

    if len(_totals) == len(VARIANTS):
        save_result("ablation_scoring_summary", {"totals": _totals})
        # The full score should be within noise of the best variant and
        # beat random selection under the tight budget.
        assert _totals["full"] <= _totals["random"] * 1.1
