"""Benchmark E4 — Table III: ablation study on the DRAM core.

Runs full GLOVA against its three ablations (without the ensemble-based
critic, without mu-sigma evaluation, without simulation reordering) and
reports the same four rows as Table III.  The expected shape: every ablation
needs at least as many simulations as the full framework.
"""

import pytest

from benchmarks.harness import experiment_config, print_table
from repro import api
from repro.analysis import aggregate_results, normalize_runtimes

#: The Table-III variants: full GLOVA and the three ablations, as
#: ``GlovaConfig`` overrides.
VARIANTS = {
    "glova": {},
    "glova_no_ensemble": {"use_ensemble_critic": False},
    "glova_no_mu_sigma": {"use_mu_sigma": False},
    "glova_no_reordering": {"use_reordering": False},
}


def run_ablation(scale, scenarios):
    block = {}
    for scenario in scenarios:
        config = experiment_config("dram", scenario, scale)
        summaries = [
            aggregate_results(
                name,
                scenario,
                api.run_experiment(
                    config.with_overrides(overrides=overrides)
                ).results,
            )
            for name, overrides in VARIANTS.items()
        ]
        block[scenario] = normalize_runtimes(
            summaries, reference_method="glova"
        )
    return block


@pytest.mark.benchmark(group="table3")
def test_table3_ablation_dram(benchmark, scale):
    scenarios = ("C", "C-MCL", "C-MCG-L") if scale["paper_scale"] else ("C", "C-MCL")
    block = benchmark.pedantic(
        run_ablation, args=(scale, scenarios), rounds=1, iterations=1
    )
    print_table(block, title="Table III — Ablation study on the DRAM core")

    for scenario, summaries in block.items():
        by_method = {s.method: s for s in summaries}
        full = by_method["glova"]
        assert full.successes > 0, f"full GLOVA failed on DRAM/{scenario}"
        for variant in (
            "glova_no_ensemble",
            "glova_no_mu_sigma",
            "glova_no_reordering",
        ):
            ablated = by_method[variant]
            # No ablation beats the full framework on success rate, and an
            # ablation that still succeeds may not do so with materially
            # fewer simulations or iterations (the paper's Table-III trend).
            assert ablated.success_rate <= full.success_rate + 1e-9
            if ablated.successes > 0:
                assert (
                    ablated.mean_iterations >= 0.8 * full.mean_iterations
                    or ablated.mean_simulations >= 0.8 * full.mean_simulations
                )
