"""Regenerate one Table-II block from the experiment facade.

Runs GLOVA, the PVTSizing-style baseline and the RobustAnalog-style baseline
on the StrongARM latch under the corner (``C``) and corner + local-MC
(``C-MCL``) verification scenarios — one :func:`repro.api.run_comparison`
call per scenario — then prints the same four rows the paper reports:
RL iterations, number of simulations, normalized runtime, and success rate.
This is the scripting equivalent of
``pytest benchmarks/test_table2_sal.py --benchmark-only``.

Run with::

    python examples/table2_comparison.py
"""

from __future__ import annotations

from repro.analysis import format_comparison_table
from repro.api import ExperimentConfig, run_comparison


def main() -> None:
    config = ExperimentConfig(
        circuit="sal",
        seeds=(0,),
        max_iterations=120,
        initial_samples=40,
        verification_samples=20,
    )
    block = {}
    for label in ("C", "C-MCL"):
        print(f"running methods for scenario {label} ...")
        block[label] = run_comparison(
            config.with_overrides(method=label),
            algorithms=("glova", "pvtsizing", "robustanalog"),
        )

    print()
    print(
        format_comparison_table(
            block, title="Table II — StrongARM latch (reduced scale)"
        )
    )
    print(
        "\nNote: reduced Monte-Carlo budgets (20 samples/corner) and a single"
        "\nseed.  At this scale C-MCG-L (not run here) has too few global-MC"
        "\nsamples to be variation-dominated, so the method ordering is only"
        "\nexpected at paper scale there."
    )


if __name__ == "__main__":
    main()
