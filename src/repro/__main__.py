"""Command-line driver for the experiment facade (``python -m repro``).

Examples::

    # Inspect the resolved experiment without spending any simulations.
    python -m repro --circuit sal --method C --dry-run

    # Size the StrongARM latch under corner + local-MC verification.
    python -m repro --circuit sal --method C-MCL --seeds 0,1 --output report.json

    # Run a Table-II baseline on the DRAM core.
    python -m repro --circuit dram --method C --algorithm pvtsizing

    # What can I name?
    python -m repro --list-circuits

    # Survive flaky engines / dead workers, and checkpoint per-seed
    # progress so an interrupted sweep resumes without re-simulating.
    python -m repro --circuit sal --method C-MCL --retries 3 \
        --checkpoint-dir ./ckpt --cache-dir ./simcache

    # Disk-cache hygiene for long-lived --cache-dir stores.
    python -m repro cache stats ./simcache
    python -m repro cache prune ./simcache --max-bytes 500000000
    python -m repro cache clear ./simcache

    # Print the reference ngspice deck for a circuit (golden-deck guard);
    # waveform mode shows the trimmed .tran+rawfile flavour.
    python -m repro deck sal
    python -m repro deck dram --measurement waveform --summary

    # Remote simulation fabric: a worker daemon in one terminal ...
    python -m repro serve --backend batched --port 7741
    # ... and any number of sizing runs shipping jobs to it.
    python -m repro --circuit sal --method C --backend remote \
        --endpoints 127.0.0.1:7741

The same binary is installed as the ``repro`` console script (setup.py).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import os

from repro import api
from repro.circuits.registry import available_circuits, get_circuit
from repro.simulation.service import available_backends
from repro.version import __version__


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "GLOVA reproduction: variation-aware analog circuit sizing "
            "with risk-sensitive RL"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument(
        "--list-circuits",
        action="store_true",
        help="list the registered testbench circuits and exit",
    )
    parser.add_argument(
        "--config",
        metavar="PATH",
        help="load an ExperimentConfig JSON file (flags override its fields)",
    )
    parser.add_argument("--circuit", help="circuit name or alias (e.g. sal)")
    parser.add_argument(
        "--method",
        choices=sorted(api.METHODS),
        help="verification scenario (Table I)",
    )
    parser.add_argument(
        "--algorithm",
        choices=sorted(api.ALGORITHMS),
        help="sizing algorithm (default: glova)",
    )
    parser.add_argument(
        "--seeds", help="comma-separated RNG seeds, e.g. 0,1,2 (default: 0)"
    )
    parser.add_argument("--max-iterations", type=int, metavar="N")
    parser.add_argument("--initial-samples", type=int, metavar="N")
    parser.add_argument(
        "--optimization-samples", type=int, metavar="N", help="N' per iteration"
    )
    parser.add_argument(
        "--verification-samples", type=int, metavar="N", help="N per corner"
    )
    parser.add_argument(
        "--backend",
        choices=available_backends(),
        help="simulation backend (default: batched)",
    )
    parser.add_argument(
        "--ngspice-executable",
        metavar="PATH",
        help=(
            "simulator binary for --backend ngspice (sets $REPRO_NGSPICE; "
            "default: ngspice on PATH)"
        ),
    )
    parser.add_argument(
        "--endpoints",
        metavar="HOST:PORT[,HOST:PORT...]",
        help=(
            "repro serve daemons for --backend remote (sets "
            "$REPRO_REMOTE_ENDPOINTS); jobs degrade to a local backend "
            "when the fleet is unreachable"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        metavar="N",
        help=(
            "process-pool shard count; the vectorized batched engine "
            "runs in-process at any count"
        ),
    )
    # BooleanOptionalAction keeps the default None so only explicitly
    # given flags (--cache / --no-cache) override a --config file's value.
    parser.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="memoize simulations by job hash (hits charge zero budget)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        help=(
            "persist the simulation cache to this directory (implies "
            "--cache); a repeated run replays from disk with zero backend "
            "invocations and zero budget charged"
        ),
    )
    parser.add_argument(
        "--paper-scale",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="use the paper's full Table-I Monte-Carlo budgets",
    )
    parser.add_argument(
        "--retries",
        type=int,
        metavar="N",
        help=(
            "retry transient simulation failures (worker death, timeouts, "
            "engine errors, FAILURE_NAN blocks) up to N times per job with "
            "budget-safe accounting; 0 disables (default: fail fast)"
        ),
    )
    parser.add_argument(
        "--retry-backoff",
        type=float,
        metavar="SECONDS",
        help=(
            "base exponential backoff between retry attempts "
            "(default: 0.05; deterministic seeded jitter is added); "
            "needs --retries N or a retry policy in --config"
        ),
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="PATH",
        help=(
            "snapshot each completed seed here; re-running the identical "
            "config resumes the sweep, replaying completed seeds from disk "
            "with zero re-simulation"
        ),
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="print the resolved experiment plan and exit without simulating",
    )
    parser.add_argument(
        "--output", metavar="PATH", help="write the experiment report JSON here"
    )
    return parser


def build_cache_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro cache",
        description=(
            "maintenance for the on-disk simulation cache "
            "(the --cache-dir spill store)"
        ),
    )
    actions = parser.add_subparsers(dest="action", required=True)
    stats = actions.add_parser(
        "stats", help="entry count, byte total and age span of the store"
    )
    stats.add_argument("cache_dir", metavar="DIR")
    prune = actions.add_parser(
        "prune",
        help=(
            "evict least-recently-written records until the store fits "
            "--max-bytes"
        ),
    )
    prune.add_argument("cache_dir", metavar="DIR")
    prune.add_argument(
        "--max-bytes", type=int, required=True, metavar="BYTES"
    )
    clear = actions.add_parser("clear", help="delete every cached record")
    clear.add_argument("cache_dir", metavar="DIR")
    return parser


def cache_main(argv: List[str]) -> int:
    """The ``repro cache {stats,prune,clear}`` maintenance subcommand."""
    from repro.simulation.service import (
        clear_spill_store,
        prune_spill_store,
        spill_store_stats,
    )

    args = build_cache_parser().parse_args(argv)
    if args.action == "stats":
        stats = spill_store_stats(args.cache_dir)
        print(json.dumps(stats, indent=2, sort_keys=True))
    elif args.action == "prune":
        outcome = prune_spill_store(args.cache_dir, args.max_bytes)
        print(json.dumps(outcome, indent=2, sort_keys=True))
    else:
        removed = clear_spill_store(args.cache_dir)
        print(json.dumps({"removed_files": removed}, indent=2))
    return 0


def build_deck_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro deck",
        description=(
            "compile and print the ngspice deck for a named circuit's "
            "deterministic reference job (the golden-deck reference) — "
            "guards deck-format drift and shows exactly what an external "
            "engine would be handed"
        ),
    )
    parser.add_argument("circuit", help="testbench circuit name or alias")
    parser.add_argument(
        "--measurement",
        choices=("measure", "waveform"),
        default="measure",
        help="deck flavour: .measure cards (default) or .tran+rawfile",
    )
    parser.add_argument(
        "--rows", type=int, default=2, metavar="N",
        help="batch rows in the reference job (default 2: TT + SS corners)",
    )
    parser.add_argument(
        "--no-trim",
        action="store_true",
        help="keep the full netlist in waveform mode (skip cone trimming)",
    )
    parser.add_argument(
        "--summary",
        action="store_true",
        help="print a JSON size/shape summary instead of the deck text",
    )
    return parser


def deck_main(argv: List[str]) -> int:
    """The ``repro deck`` subcommand: print a circuit's reference deck."""
    from repro.spice.deck import compile_job_deck, reference_job

    parser = build_deck_parser()
    args = parser.parse_args(argv)
    try:
        circuit = get_circuit(args.circuit)
    except KeyError as error:
        parser.error(error.args[0])
    job = reference_job(circuit, rows=args.rows)
    trim = False if args.no_trim else None
    deck = compile_job_deck(
        job, circuit, measurement=args.measurement, trim=trim
    )
    if args.summary:
        print(
            json.dumps(
                {
                    "circuit": deck.circuit_name,
                    "rows": deck.rows,
                    "measurement": deck.measurement,
                    "metrics": list(deck.metric_names),
                    "bytes": len(deck.text.encode("utf-8")),
                    "cards": sum(
                        1 for line in deck.text.splitlines() if line.strip()
                    ),
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        sys.stdout.write(deck.text)
    return 0


def _list_circuits() -> None:
    print("Testbench circuits (sizing targets):")
    for name in available_circuits():
        circuit = get_circuit(name)
        print(
            f"  {name:<28} {circuit.dimension:>2} parameters, "
            f"{len(circuit.metric_names)} metrics"
        )


def _resolve_config(args: argparse.Namespace) -> api.ExperimentConfig:
    payload = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict):
            raise ValueError(
                f"config file {args.config} must contain a JSON object, "
                f"got {type(payload).__name__}"
            )
    overrides = {
        "circuit": args.circuit,
        "method": args.method,
        "algorithm": args.algorithm,
        "max_iterations": args.max_iterations,
        "initial_samples": args.initial_samples,
        "optimization_samples": args.optimization_samples,
        "verification_samples": args.verification_samples,
        "backend": args.backend,
        "endpoints": args.endpoints,
        "workers": args.workers,
        "cache_simulations": args.cache,
        "cache_dir": args.cache_dir,
        "paper_scale": args.paper_scale,
        "checkpoint_dir": args.checkpoint_dir,
    }
    if args.seeds is not None:
        overrides["seeds"] = [int(s) for s in args.seeds.split(",") if s != ""]
    if args.retries is not None or args.retry_backoff is not None:
        retry = payload.get("retry")
        if args.retries is not None:
            # An explicit --retries 0 disables a config file's policy.
            retry = (
                None
                if args.retries == 0
                else {**(retry or {}), "max_attempts": args.retries + 1}
            )
        if args.retry_backoff is not None:
            if retry is None:
                raise ValueError(
                    "--retry-backoff needs retries on: pass --retries N "
                    "(N >= 1) or a retry policy in --config"
                )
            retry = {**retry, "backoff": args.retry_backoff}
        payload["retry"] = retry
    payload.update({k: v for k, v in overrides.items() if v is not None})
    return api.ExperimentConfig.from_dict(payload)


def _print_dry_run(config: api.ExperimentConfig) -> None:
    circuit = config.build_circuit()
    glova = config.glova_config(config.seeds[0])
    operational = glova.operational()
    print("=== dry run: resolved experiment (no simulations charged) ===")
    print(config.to_json())
    print()
    print(circuit.describe())
    print()
    print(f"Algorithm:            {config.algorithm}")
    print(f"Verification method:  {operational.method.value}")
    print(f"Predefined corners:   {len(operational.corners)}")
    print(f"N' (optimization):    {operational.optimization_samples}")
    print(f"N (verification):     {operational.verification_samples}")
    print(
        f"Full verification:    "
        f"{operational.total_verification_simulations} simulations/pass"
    )
    cache_state = "on" if glova.cache_simulations else "off"
    if glova.cache_dir:
        cache_state = f"disk:{glova.cache_dir}"
    print(
        f"Backend:              {glova.backend} "
        f"(workers={glova.workers}, cache={cache_state})"
    )
    if config.retry is not None:
        attempts = config.retry.get("max_attempts", "?")
        print(f"Retry policy:         up to {attempts} attempts/job")
    if config.checkpoint_dir is not None:
        print(f"Checkpoints:          {config.checkpoint_dir}")
    print(f"Seeds:                {list(config.seeds)}")


def main(argv: Optional[List[str]] = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    # Subcommands are dispatched ahead of the flag parser so the legacy
    # flag-style interface stays untouched.
    if arguments and arguments[0] == "cache":
        return cache_main(arguments[1:])
    if arguments and arguments[0] == "serve":
        from repro.simulation.server import serve_main

        return serve_main(arguments[1:])
    if arguments and arguments[0] == "deck":
        return deck_main(arguments[1:])

    parser = build_parser()
    args = parser.parse_args(arguments)

    if args.list_circuits:
        _list_circuits()
        return 0

    if args.ngspice_executable:
        from repro.simulation.ngspice import EXECUTABLE_ENV

        os.environ[EXECUTABLE_ENV] = args.ngspice_executable

    try:
        config = _resolve_config(args)
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as error:
        parser.error(str(error))

    if args.dry_run:
        _print_dry_run(config)
        return 0

    report = api.run_experiment(config)
    print(report.summary())
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report.to_json() + "\n")
        print(f"report written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
