"""Command-line front end.

Usage::

    repro quickstart                 # 3-cycle demo on the basic model
    repro ddb-demo                   # cross-site DDB deadlock + resolution
    repro variants                   # list the registered detector variants
    repro workloads                  # list the registered workload families
    repro experiment E3              # regenerate one experiment table
    repro experiment all --quick     # regenerate everything, fast settings
    repro verify                     # exhaustive small-scope model checking
    repro run basic --transport live # deadlock scenario on the asyncio runtime
    repro run ddb --trace-out run.jsonl                # the run's full trace, JSONL
    repro run basic --trace-out run.json               # ... or Chrome/Perfetto JSON
    repro run basic --scenario cycle --n 64 --profile  # simulator hot-path profile
    repro lint src tests             # project-specific static analysis
    repro lint --explain RPX005      # what a rule enforces, and why
    repro sweep --grid e3 --workers 4 --out results/   # parallel sweep
    repro bench record               # (re)write benchmarks/BENCH_baseline.json
    repro bench check                # fail on throughput/shape regressions

The same experiment code also runs under pytest-benchmark (see
``benchmarks/``); the CLI exists for quick inspection without pytest.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

from repro.experiments import ALL_EXPERIMENTS


def _cmd_variants(_: argparse.Namespace) -> int:
    from repro.core import all_variants

    for variant in all_variants():
        capabilities = variant.capabilities
        print(f"{variant.name}: {variant.title}")
        print(f"  kind: {capabilities.kind} (model: {capabilities.model})")
        print(f"  oracle criterion: {capabilities.oracle_criterion}")
        scenarios = ", ".join(capabilities.scenarios) or "(none)"
        print(f"  sweep scenarios: {scenarios}")
        if variant.demo is not None:
            print(f"  demo: repro {variant.demo.command}")
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    from repro.workloads import all_families, families_for_model

    families = (
        families_for_model(args.model) if args.model else all_families()
    )
    if not families:
        print(f"no registered workload family drives model {args.model!r}")
        return 1
    for family in families:
        flags = []
        if family.deadlock_capable:
            flags.append("deadlock-capable")
        if family.randomized:
            flags.append("randomized")
        print(f"{family.name}: {family.title}")
        print(f"  models: {', '.join(family.models)}"
              + (f"  [{', '.join(flags)}]" if flags else ""))
        print(f"  source: {family.source}")
        print(f"  example: {family.example.workload_id}")
    return 0


def _cmd_policies(args: argparse.Namespace) -> int:
    from repro.core.scheduling import all_policies, policies_for_model

    policies = (
        policies_for_model(args.model) if args.model else all_policies()
    )
    if not policies:
        print(f"no registered scheduling policy drives model {args.model!r}")
        return 1
    for policy in policies:
        print(f"{policy.name}: {policy.title}")
        print(f"  {policy.description}")
        print(f"  models: {', '.join(policy.models)}")
        print(f"  source: {policy.source}")
        print(f"  example: --policy {policy.example.policy_id}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    names = list(ALL_EXPERIMENTS) if args.name.lower() == "all" else [args.name.upper()]
    for name in names:
        module = ALL_EXPERIMENTS.get(name)
        if module is None:
            print(f"unknown experiment {name!r}; choose from {list(ALL_EXPERIMENTS)}")
            return 2
        table, results = module.run(quick=args.quick)
        print(table.render())
        print()
        if args.json is not None:
            from pathlib import Path

            from repro.analysis.export import experiment_to_json

            directory = Path(args.json)
            directory.mkdir(parents=True, exist_ok=True)
            path = directory / f"{name.lower()}.json"
            path.write_text(
                experiment_to_json(name, table, results, quick=args.quick)
            )
            print(f"[json written to {path}]\n")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.sweep import GRIDS, build_grid, canonical_json, merge_results, run_sweep
    from repro.sweep.merge import timing_sidecar

    names = list(GRIDS) if args.grid.lower() == "all" else [args.grid.lower()]
    for name in names:
        if name not in GRIDS:
            print(f"unknown grid {name!r}; choose from {', '.join(GRIDS)} or 'all'")
            return 2
    exit_code = 0
    for name in names:
        grid = build_grid(name, quick=args.quick)
        results = run_sweep(grid.cells, workers=args.workers)
        merged = merge_results(grid.name, results)
        summary = merged["summary"]
        mode = "quick" if args.quick else "full"
        print(
            f"[{grid.name} ({mode}): {summary['cells']} cells, "
            f"{summary['ok']} ok, {summary['errors']} errors, "
            f"{summary['events']} events on {args.workers} worker(s)]"
        )
        if summary["errors"]:
            exit_code = 1
            for cell in merged["cells"]:
                if cell["status"] == "error":
                    print(f"  ERROR {cell['cell_id']}: {cell['error']}")
        if args.out is not None:
            directory = Path(args.out)
            directory.mkdir(parents=True, exist_ok=True)
            path = directory / f"BENCH_{grid.name}.json"
            path.write_text(canonical_json(merged), encoding="utf-8")
            timing_path = directory / f"BENCH_{grid.name}.timing.json"
            timing_path.write_text(
                canonical_json(timing_sidecar(grid.name, results)), encoding="utf-8"
            )
            print(f"  [written to {path} (+ timing sidecar)]")
        else:
            print(canonical_json(merged), end="")
    return exit_code


def _cmd_bench(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.sweep import baseline

    path = Path(args.baseline)
    if args.action == "record":
        document = baseline.record(path, repeats=args.repeats)
        print(f"[baseline written to {path}]")
        for name, value in sorted(document["throughput"].items()):
            print(f"  {name}: {value:.6g} events per calibration op")
        for name, digest in sorted(document["shapes"].items()):
            print(f"  shape {name}: {digest[:16]}...")
        return 0
    try:
        lines = baseline.check(path, threshold=args.threshold, repeats=args.repeats)
    except baseline.BenchRegression as regression:
        for line in regression.lines:
            print(f"  {line}")
        print(f"BENCH CHECK FAILED: {regression}")
        return 1
    for line in lines:
        print(f"  {line}")
    print("[bench check ok]")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verification import or_model
    from repro.verification.explorer import explore
    from repro.verification.model import Initiate, Request
    from repro.verification.or_model import GrantTo, InitiateOr, RequestAny

    and_scenarios = {
        "2-cycle": (2, [Request(0, (1,)), Request(1, (0,)), Initiate(0)]),
        "3-cycle": (
            3,
            [Request(0, (1,)), Request(1, (2,)), Request(2, (0,)), Initiate(0)],
        ),
        "2-cycle+tail": (
            3,
            [Request(0, (1,)), Request(1, (0,)), Request(2, (0,)), Initiate(2)],
        ),
    }
    or_scenarios = {
        "OR 2-cycle": (
            2,
            [RequestAny(0, (1,)), RequestAny(1, (0,)), InitiateOr(0)],
        ),
        "OR knot": (
            3,
            [
                RequestAny(1, (0,)),
                RequestAny(2, (0,)),
                RequestAny(0, (1, 2)),
                InitiateOr(0),
            ],
        ),
        "OR in-flight grant": (
            3,
            [
                RequestAny(0, (1,)),
                GrantTo(1, 0),
                RequestAny(1, (2,)),
                RequestAny(2, (1,)),
                InitiateOr(0),
                InitiateOr(1),
            ],
        ),
    }
    failed = False
    print("AND model (sections 2-4):")
    for label, (n, script) in and_scenarios.items():
        result = explore(n, script)
        status = "ok" if result.ok else "FAILED"
        print(
            f"  {label}: {result.states_explored} states, "
            f"{result.terminal_states} terminal, "
            f"declared={sorted(result.ever_declared)} -> {status}"
        )
        failed |= not result.ok
    print("OR model (section 7 extension):")
    for label, (n, script) in or_scenarios.items():
        result = explore(n, script, semantics=or_model)
        status = "ok" if result.ok else "FAILED"
        print(
            f"  {label}: {result.states_explored} states, "
            f"{result.terminal_states} terminal, "
            f"declared={sorted(result.ever_declared)} -> {status}"
        )
        failed |= not result.ok
    return 1 if failed else 0


def _cmd_run(args: argparse.Namespace) -> int:
    import json

    from repro.core import get_variant
    from repro.errors import ClusterError, ConfigurationError, SimulationError
    from repro.runner import check_writable, run

    try:
        get_variant(args.variant)
    except ConfigurationError as error:
        print(str(error))
        return 2
    try:
        check_writable(args.json_out)
        report = run(
            args.variant,
            args.scenario,
            transport=args.transport,
            seed=args.seed,
            policy=args.policy,
            n_vertices=args.n,
            duration=args.duration,
            time_scale=args.time_scale,
            timeout=args.timeout,
            tcp=args.tcp,
            interval=args.interval,
            slo=args.slo,
            metrics_out=args.metrics_out,
            spans_out=args.spans_out,
            snapshots_out=args.snapshots_out,
            trace_out=args.trace_out,
            profile=args.profile,
            console=sys.stdout,
        )
    except (ConfigurationError, SimulationError) as error:
        print(f"RUN FAILED: {error}")
        if isinstance(error, ClusterError):
            for failure in error.failures:
                print(f"  worker {failure.worker} ({failure.node}): {failure.reason}")
                if failure.detail:
                    print(f"    {failure.detail.splitlines()[-1]}")
        return 1
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as sink:
            json.dump(report.to_json(), sink, sort_keys=True, indent=2)
            sink.write("\n")
    outcome = report.outcome
    print(
        f"[run {args.variant} scenario={args.scenario} transport={report.transport} "
        f"seed={args.seed} ticks={report.ticks}]"
    )
    print(f"  declarations: {outcome.declarations}")
    print(f"  soundness violations: {outcome.soundness_violations}")
    print(f"  complete: {outcome.complete}")
    print(f"  bound violations: {report.bound_violations}")
    print(f"  spans streamed: {report.spans_emitted}")
    if report.first_declaration_at is None:
        print("  first declaration: n/a (no declaration)")
    else:
        print(f"  first declaration: t={report.first_declaration_at:g} units")
    if report.detection_latencies:
        print(
            f"  detection latency: max {max(report.detection_latencies):g} units "
            f"over {len(report.detection_latencies)} computation(s)"
        )
    if report.slo is not None:
        print(f"  SLO ({report.slo:g} units): {report.slo_violations} violation(s)")
    print(f"  messages delivered: {report.messages_delivered}")
    if report.workers is not None:
        print(f"  worker processes: {report.workers}")
    if args.trace_out:
        print(f"  trace written to {args.trace_out}")
    print(f"  wall time: {report.wall_seconds:.3f} s")
    for failure in report.failures:
        print(f"FAILED: {failure}")
    if report.profile is not None:
        print(report.profile.render())
    return 0 if report.ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import run

    return run(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Chandy & Misra (PODC 1982): distributed "
            "resource-deadlock detection via probe computations."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    # Demo subcommands come straight from the variant registry: a variant
    # that ships a DemoSpec gets a subcommand without any edit here.
    from repro.core import all_variants

    for variant in all_variants():
        if variant.demo is None:
            continue
        demo = subparsers.add_parser(variant.demo.command, help=variant.demo.help)
        demo.set_defaults(handler=lambda args, _run=variant.demo.run: _run())

    variants = subparsers.add_parser(
        "variants", help="list the registered detector variants"
    )
    variants.set_defaults(handler=_cmd_variants)

    workloads = subparsers.add_parser(
        "workloads",
        help="list the registered workload families",
        description=(
            "Lists every workload family in the registry: the canned "
            "section 2-4 patterns, the randomized basic/DDB drivers, and "
            "the graph ensembles.  Any family name here is a valid "
            "--scenario for `repro run` on every transport "
            "(capability-checked against the variant's model)."
        ),
    )
    workloads.add_argument(
        "--model",
        default=None,
        help="only families that can drive this model (basic, ddb, ormodel)",
    )
    workloads.set_defaults(handler=_cmd_workloads)

    policies = subparsers.add_parser(
        "policies",
        help="list the registered initiation scheduling policies",
        description=(
            "Lists every scheduling policy in the registry: the paper's "
            "manual/immediate/delayed-T initiation rules (sections 4.2 and "
            "4.3), the section 6.7 periodic controller scan, and the "
            "adaptive controller that tunes T online.  Any example shown "
            "here is a valid --policy for `repro run` on every transport "
            "(capability-checked against the variant's model)."
        ),
    )
    policies.add_argument(
        "--model",
        default=None,
        help="only policies that can drive this model (basic, ddb, ormodel)",
    )
    policies.set_defaults(handler=_cmd_policies)

    experiment = subparsers.add_parser(
        "experiment", help="regenerate an experiment table (E1..E8 or 'all')"
    )
    experiment.add_argument("name", help="experiment id, e.g. E3, or 'all'")
    experiment.add_argument(
        "--quick", action="store_true", help="smaller sweeps for a fast run"
    )
    experiment.add_argument(
        "--json",
        metavar="DIR",
        default=None,
        help="also write <experiment>.json files into DIR",
    )
    experiment.set_defaults(handler=_cmd_experiment)

    sweep = subparsers.add_parser(
        "sweep",
        help="run a declarative experiment grid across worker processes",
        description=(
            "Shards a declarative grid of (scenario, size, seed, delay, T) "
            "cells across worker processes, each cell in its own "
            "deterministic simulator, and merges the results into a "
            "canonical BENCH_<grid>.json that is byte-identical for any "
            "worker count.  Wall-clock timings go to a separate "
            "BENCH_<grid>.timing.json sidecar."
        ),
    )
    sweep.add_argument(
        "--grid",
        required=True,
        help="grid name (e1..e8) or 'all'",
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (1 = run inline, no subprocesses; default: 1)",
    )
    sweep.add_argument(
        "--quick", action="store_true", help="smaller grids for a fast run"
    )
    sweep.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="write BENCH_<grid>.json (+ timing sidecar) into DIR instead of stdout",
    )
    sweep.set_defaults(handler=_cmd_sweep)

    bench = subparsers.add_parser(
        "bench",
        help="record or check the quick benchmark baseline (CI regression gate)",
        description=(
            "The quick bench tier: four engine micro-benchmarks "
            "(events per calibration op, so the floors hold across "
            "hosts) plus a deterministic shape hash of every sweep "
            "grid's quick run.  'record' writes the baseline; 'check' "
            "fails (exit 1) on a >threshold throughput drop or any shape "
            "change."
        ),
    )
    bench.add_argument("action", choices=("record", "check"))
    bench.add_argument(
        "--baseline",
        metavar="PATH",
        default="benchmarks/BENCH_baseline.json",
        help="baseline file (default: benchmarks/BENCH_baseline.json)",
    )
    bench.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="allowed fractional throughput drop before failing (default: 0.25)",
    )
    bench.add_argument(
        "--repeats",
        type=int,
        default=5,
        help="micro-benchmark repeats; best run is compared (default: 5)",
    )
    bench.set_defaults(handler=_cmd_bench)

    verify = subparsers.add_parser(
        "verify", help="exhaustive small-scope model checking of QRP1/QRP2"
    )
    verify.set_defaults(handler=_cmd_verify)

    from repro.runner import TRANSPORTS

    run = subparsers.add_parser(
        "run",
        help="run a variant's scenario on any transport, observed",
        description=(
            "Runs a registered variant's standard deadlock/clean scenario "
            "-- or any registered workload family (see `repro workloads`) "
            "-- on the deterministic simulator, the wall-clock asyncio "
            "runtime, or one worker OS process per node, and observes it "
            "tick by tick: a one-line console status, a Prometheus text "
            "file rewritten each tick, and JSONL streams of settled "
            "probe-computation spans and metric snapshots.  --trace-out "
            "writes the full trace (open a .json file in "
            "https://ui.perfetto.dev), and --profile times the simulator's "
            "event loop.  Times are virtual units everywhere.  Exit 1 on a "
            "missed deadlock, a soundness violation, a section 4 "
            "probe-bound violation, a missed SLO, or a run failure "
            "(including an output path that cannot be written); exit 2 on "
            "an unknown variant."
        ),
    )
    run.add_argument("variant", help="variant name (see `repro variants`)")
    run.add_argument(
        "--transport",
        choices=TRANSPORTS,
        default="sim",
        help="runtime backend (default: sim)",
    )
    run.add_argument(
        "--scenario",
        default="deadlock",
        help=(
            "deadlock, clean, random, or a workload family name "
            "(see `repro workloads`; default: deadlock)"
        ),
    )
    run.add_argument("--seed", type=int, default=0, help="root seed (default: 0)")
    run.add_argument(
        "--policy",
        default=None,
        help=(
            "initiation scheduling policy id, e.g. delayed/T=2 or adaptive "
            "(see `repro policies`; default: the variant's built-in rule)"
        ),
    )
    run.add_argument(
        "--n",
        type=int,
        default=None,
        help="topology size (default: the workload family's example)",
    )
    run.add_argument(
        "--duration",
        type=float,
        default=None,
        help="workload horizon in virtual units (default: the family's example)",
    )
    run.add_argument(
        "--time-scale",
        type=float,
        default=0.005,
        help="live/cluster: wall seconds per virtual unit (default: 0.005)",
    )
    run.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="wall-clock budget in seconds before the run fails (default: 60)",
    )
    run.add_argument(
        "--tcp",
        action="store_true",
        help="cluster: loopback TCP channels instead of Unix-domain sockets",
    )
    run.add_argument(
        "--json-out", metavar="FILE", help="write the run report as JSON here"
    )
    run.add_argument(
        "--interval",
        type=float,
        default=100.0,
        help="virtual units between console/export ticks (default: 100)",
    )
    run.add_argument(
        "--slo",
        type=float,
        default=None,
        help="detection-latency SLO in virtual units (default: off)",
    )
    run.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="write Prometheus text exposition here, rewritten each tick",
    )
    run.add_argument(
        "--spans-out",
        metavar="FILE",
        help="stream settled probe-computation spans here as JSONL",
    )
    run.add_argument(
        "--snapshots-out",
        metavar="FILE",
        help="stream periodic metrics snapshots here as JSONL",
    )
    run.add_argument(
        "--trace-out",
        metavar="FILE",
        help=(
            "write the run's full trace here: Chrome/Perfetto JSON when FILE "
            "ends in .json (basic and ddb models), lossless JSONL otherwise"
        ),
    )
    run.add_argument(
        "--profile",
        action="store_true",
        help="sim only: print the simulator's events/s and per-handler wall time",
    )
    run.set_defaults(handler=_cmd_run)

    from repro.lint.cli import add_lint_arguments

    lint = subparsers.add_parser(
        "lint",
        help="project-specific static analysis (rules RPX001-RPX010)",
        description=(
            "AST lint pass enforcing the proof-carrying conventions the "
            "verification layer depends on: seeded randomness, virtual time, "
            "frozen messages, one-way layering, registered trace categories, "
            "process isolation, and the cross-file protocol-flow rules "
            "(taxonomy conformance, message immutability, live-backend "
            "safety) checked against the registered MessageTaxonomy."
        ),
    )
    add_lint_arguments(lint)
    lint.set_defaults(handler=_cmd_lint)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # stdout was closed early (e.g. piped into `head`); exit quietly
        # without a traceback, like other well-behaved unix filters.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
