"""Benchmark E2 — Table II, floating inverter amplifier columns.

Same layout as the SAL block: three verification scenarios, three methods,
reporting RL iterations, simulations, normalized runtime and success rate.
"""

import pytest

from benchmarks.harness import print_table, run_table2_block


@pytest.mark.benchmark(group="table2")
def test_table2_floating_inverter_amplifier(benchmark, scale):
    block = benchmark.pedantic(
        run_table2_block, args=("fia", scale), rounds=1, iterations=1
    )
    print_table(
        block, title="Table II — Floating inverter amplifier (reduced scale)"
    )

    for scenario, summaries in block.items():
        by_method = {s.method: s for s in summaries}
        glova = by_method["glova"]
        assert glova.successes > 0, f"GLOVA failed on FIA/{scenario}"
        # Success rate ordering: GLOVA is never worse than RobustAnalog.
        assert glova.success_rate >= by_method["robustanalog"].success_rate
        # Sample-efficiency ordering versus the corner-exhaustive baseline.
        # The reduced-scale C-MCG-L column is excluded: it has too few
        # global-MC samples to be variation-dominated, so the ordering is
        # only required at paper scale there.
        if scenario != "C-MCG-L" or scale["paper_scale"]:
            assert (
                glova.mean_simulations <= by_method["pvtsizing"].mean_simulations
            )
