"""Variation-aware sizing of the floating inverter amplifier under global-local MC.

This example exercises the paper's hardest verification scenario shape
(``C-MCG-L``): the process axis is statistical (die-to-die global variation
plus within-die local mismatch sampled hierarchically, Eq. 3) and the design
must pass every sampled die at every VT corner.  The GLOVA run itself is one
facade call (:func:`repro.api.run_sizing`); the example then contrasts the
verified design with the *nominal-only* design a variation-blind optimizer
would pick, showing the failure rate gap under Monte Carlo.

Run with::

    python examples/variation_aware_sizing.py
"""

from __future__ import annotations

import numpy as np

from repro.api import ExperimentConfig, run_sizing
from repro.core.reward import reward_from_metrics, rewards_from_matrix
from repro.core.spec import DesignSpec
from repro.core.turbo import TurboSampler
from repro.simulation import CircuitSimulator
from repro.variation.corners import vt_corner_set
from repro.variation.mismatch import MismatchSampler


def monte_carlo_failure_rate(circuit, design, dies=100, samples_per_die=3, seed=7):
    """Fraction of global-local MC samples that violate any constraint."""
    spec = DesignSpec.from_circuit(circuit)
    sampler = MismatchSampler(
        circuit.mismatch_model,
        include_global=True,
        include_local=True,
        rng=np.random.default_rng(seed),
    )
    x_physical = circuit.denormalize(design)
    failures = 0
    total = 0
    for corner in vt_corner_set():
        for _ in range(dies // 6):
            for mismatch in sampler.sample(x_physical, samples_per_die):
                total += 1
                metrics = circuit.evaluate(design, corner, mismatch)
                if reward_from_metrics(spec, metrics) < 0.2:
                    failures += 1
    return failures / total


def nominal_only_design(circuit, seed=0, budget=120):
    """What a variation-blind optimizer would return: feasible at typical only."""
    simulator = CircuitSimulator(circuit)
    spec = DesignSpec.from_circuit(circuit)
    sampler = TurboSampler(circuit.dimension, rng=np.random.default_rng(seed))

    def typical_rewards(designs):
        block = simulator.simulate_designs(designs)
        return rewards_from_matrix(
            spec, simulator.metrics_matrix(block, spec.metric_names)
        )

    result = sampler.run(typical_rewards, max_evaluations=budget, feasible_target=1)
    return result.best_design


def main() -> None:
    config = ExperimentConfig(
        circuit="fia",
        method="C-MCG-L",
        seeds=(0,),
        max_iterations=150,
        initial_samples=40,
        verification_samples=60,
    )
    circuit = config.build_circuit()

    print("=== GLOVA: global-local variation-aware sizing (C-MCG-L) ===")
    report = run_sizing(config)
    print(report.summary())

    print("\n=== Comparison with a nominal-only (variation-blind) design ===")
    blind = nominal_only_design(circuit)
    blind_rate = monte_carlo_failure_rate(circuit, blind)
    print(f"nominal-only design: {blind_rate:.1%} of global-local MC samples fail")

    best = report.best_run
    if best is not None:
        design = np.array(best.final_design)
        robust_rate = monte_carlo_failure_rate(circuit, design)
        print(f"GLOVA design:        {robust_rate:.1%} of global-local MC samples fail")
        print("\nVerified sizing (physical units):")
        for parameter, value in zip(circuit.parameters, best.final_design_physical):
            print(f"  {parameter.name:<14} = {value:.4g} {parameter.unit}")


if __name__ == "__main__":
    main()
