"""Command-line interface: ``python -m repro <command> ...``.

Thin orchestration over the library for the common one-shot jobs:

=============  =====================================================
``circuits``   list the built-in benchmark circuits
``stats``      print a circuit's structural statistics
``atpg``       run the stuck-at ATPG flow, optionally save patterns
``faultsim``   grade a saved pattern file against a circuit (``fsim``)
``lbist``      run STUMPS and report the coverage curve
``mbist``      print the March coverage matrix
``plan``       print the chip-level DFT plan for an accelerator
``obs diff``   compare two BENCH_*.json reports (median + MAD bands)
``obs gate``   like diff, but exit 4 on regression (the CI sentinel)
``obs tail``   live progress of a ``--store`` campaign
=============  =====================================================

Every subcommand also takes ``--report FILE`` (RunReport JSON),
``--profile`` (span tree + counters on stdout), and ``--trace FILE``
(Chrome trace-event JSON for Perfetto/``chrome://tracing``).

Exit codes: ``0`` success; ``2`` bad arguments (argparse, an unknown
circuit, an unreadable file, a pattern file for other inputs) or campaign
mismatch (shard store keyed to a different circuit/pattern set/fault
order, or written by another store format version); ``3`` a shard of a
supervised fault-sim campaign failed (its worker died, raised, or sent
a damaged record): the run stopped and printed no coverage, and every
shard it published stays in the store, so re-running with the same
``--store`` grades only the missing shards; ``4`` benchmark regression
detected by ``obs gate``; ``5`` a ``--store`` campaign was already
complete when this run started (the printed result is real — merged
from the store — but this run graded nothing); ``130`` interrupted
(Ctrl-C: workers are terminated before exiting, and a ``--store``
campaign resumes the same way as after a failed shard).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from itertools import zip_longest
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:
    from .circuit.netlist import Netlist

# Every library module is imported inside the handler that runs it, so
# ``repro --help`` and argument errors load none of them, and ``repro
# atpg`` loads none of the supervisor, BIST, regression-gate or report
# layers.  The parser's choices and defaults are therefore literals here;
# tests hold each equal to the library constant it mirrors.

#: ``repro.atpg.portfolio.ENGINE_NAMES``.
ENGINE_NAMES = ("podem", "dalg", "guided", "portfolio")
#: ``repro.sim.dispatch.BACKEND_NAMES``.
BACKEND_NAMES = ("serial", "ppsfp", "supervised")
#: ``repro.sim.parallel.WORD_WIDTH`` and ``WORD_WIDTHS``.
WORD_WIDTH = 64
WORD_WIDTHS = (64, 256, 1024, 4096)

#: A shard of a supervised campaign failed and the run stopped: no
#: coverage is printed, and a ``--store`` campaign resumes on re-run.
EXIT_SHARD_FAILED = 3
#: ``repro obs gate`` found a wall-time regression or counter drift.
EXIT_REGRESSION = 4
#: A ``--store`` campaign was complete before this run graded anything:
#: the merged result printed is authoritative, but a script re-running a
#: campaign can tell "did work" (0) from "nothing left to grade" (5).
EXIT_ALREADY_COMPLETE = 5
#: Interrupted by Ctrl-C after clean teardown (POSIX convention: 128+SIGINT).
EXIT_INTERRUPTED = 130


def _load_circuit(spec: str) -> Netlist:
    """Resolve a circuit argument: benchmark name, .bench, or .v file.

    An unknown name or an unreadable file is a bad argument: it raises
    ``ValueError``, which :func:`main` reports as exit code 2.
    """
    if spec.endswith((".bench", ".v")):
        from .circuit.bench import load_bench
        from .circuit.verilog import load_verilog

        load = load_bench if spec.endswith(".bench") else load_verilog
        try:
            return load(spec)
        except OSError as exc:
            raise ValueError(f"cannot read {spec!r}: {exc.strerror}") from None
    from .circuit import benchmarks

    try:
        return benchmarks.get_benchmark(spec)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None


def _circuit_spec(args) -> str:
    """The circuit named positionally or via ``--circuit`` (exactly one)."""
    positional = getattr(args, "circuit", None)
    flagged = getattr(args, "circuit_opt", None)
    if positional and flagged and positional != flagged:
        raise ValueError(
            f"circuit given twice: positional {positional!r} vs "
            f"--circuit {flagged!r}"
        )
    spec = flagged or positional
    if not spec:
        raise ValueError("no circuit given (positionally or via --circuit)")
    return spec


def _cmd_circuits(_args) -> int:
    from .circuit import benchmarks

    for name in benchmarks.benchmark_names():
        netlist = benchmarks.get_benchmark(name)
        print(f"{name:10s} {netlist.stats()}")
    return 0


def _cmd_stats(args) -> int:
    from .faults.collapse import collapse_faults
    from .faults.stuck_at import full_fault_list

    netlist = _load_circuit(_circuit_spec(args))
    print(f"{netlist.name}: {netlist.stats()}")
    faults = full_fault_list(netlist)
    collapsed, _ = collapse_faults(netlist, faults)
    print(f"stuck-at faults: {len(faults)} uncollapsed, {len(collapsed)} collapsed")
    return 0


def _cmd_atpg(args) -> int:
    from .atpg.engine import atpg_table_row, run_atpg

    netlist = _load_circuit(_circuit_spec(args))
    result = run_atpg(
        netlist,
        seed=args.seed,
        backtrack_limit=args.backtrack_limit,
        work_budget=args.work_budget,
        engine=args.engine,
    )
    row = atpg_table_row(netlist, result)
    for key, value in row.items():
        print(f"{key}: {value}")
    if args.output:
        from .scan.patfile import format_patterns
        from .sim.view import CombinationalView

        view = CombinationalView(netlist)
        text = format_patterns(netlist.name, view.input_names(), result.patterns)
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {len(result.patterns)} patterns to {args.output}")
    return 0


def _supervised_backend(args):
    """Build a supervised backend when the flags call for one.

    ``--jobs``, ``--partitions`` and ``--store`` all imply supervision;
    asking for them with an unsupervised ``--backend`` is upgraded (with
    a note) rather than silently ignored.
    """
    implied = (
        args.jobs is not None
        or args.partitions is not None
        or args.store is not None
    )
    if args.backend != "supervised":
        if not implied:
            return None
        print(f"(--backend {args.backend} upgraded to supervised)")
    from .sim.store import ShardStore
    from .sim.supervisor import SupervisedPoolBackend

    return SupervisedPoolBackend(
        jobs=args.jobs,
        seed=args.seed,
        partitions=args.partitions,
        store=ShardStore(args.store) if args.store is not None else None,
    )


def _resume_hint(store: str) -> str:
    return (
        f"every shard already published stays in {store}; re-run with "
        f"the same --store to grade only the rest"
    )


def _cmd_faultsim(args) -> int:
    from .faults.collapse import collapse_faults
    from .faults.stuck_at import full_fault_list
    from .scan.patfile import load_patterns
    from .sim.faultsim import FaultSimulator
    from .sim.supervisor import ShardFailedError

    netlist = _load_circuit(_circuit_spec(args))
    try:
        pattern_file = load_patterns(args.patterns)
    except OSError as exc:
        raise ValueError(f"cannot read {args.patterns!r}: {exc.strerror}") from None
    faults, _ = collapse_faults(netlist, full_fault_list(netlist))
    simulator = FaultSimulator(netlist, word_width=args.word_width)
    # Bits apply by position: a file written for another circuit, or with
    # its inputs in another order, would grade the wrong stimuli.
    if pattern_file.input_names:
        names = zip_longest(pattern_file.input_names, simulator.view.input_names())
        for position, (found, wanted) in enumerate(names):
            if found != wanted:
                raise ValueError(
                    f"{args.patterns!r} input {position} is {found!r} but "
                    f"{netlist.name} input {position} is {wanted!r} — wrong "
                    f"pattern file for this circuit?"
                )
    expected = simulator.view.num_inputs
    for position, bits in enumerate(pattern_file.bits):
        if len(bits) != expected:
            raise ValueError(
                f"pattern {position} in {args.patterns!r} has {len(bits)} "
                f"bits but {netlist.name} has {expected} inputs — wrong "
                f"pattern file for this circuit?"
            )
    filled = pattern_file.packed(expected)
    engine = _supervised_backend(args) or args.backend
    try:
        result = simulator.simulate(filled, faults, drop=True, engine=engine)
    except ShardFailedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.store is not None:
            print(_resume_hint(args.store), file=sys.stderr)
        return EXIT_SHARD_FAILED
    print(
        f"{len(result.detected)}/{len(faults)} faults detected "
        f"({result.coverage:.2%}) by {len(filled)} patterns"
    )
    stats = result.stats
    if stats:
        line = (
            f"[{stats.get('engine')} w={stats.get('word_width', WORD_WIDTH)}] "
            f"{stats.get('faults_simulated', 0)} faults, "
            f"{stats.get('events_propagated', 0)} events, "
            f"{stats.get('words_evaluated', 0)} words, "
            f"{stats.get('good_cache_hits', 0)} cached good blocks, "
            f"{stats.get('wall_time_s', 0.0):.3f}s"
        )
        if "jobs" in stats:
            n_partitions = stats.get("n_partitions", len(stats.get("partitions", [])))
            line += f", {stats['jobs']} jobs, {n_partitions} partitions"
            if "load_imbalance" in stats:
                line += f", imbalance {stats['load_imbalance']}"
        print(line)
        store_stats = stats.get("store")
        if store_stats:
            line = (
                f"store {store_stats['path']}: "
                f"{store_stats['shards_graded_here']}/{store_stats['n_shards']}"
                f" shards graded here"
            )
            if store_stats["publish_conflicts"]:
                line += f" ({store_stats['publish_conflicts']} publish conflicts)"
            print(line)
        if store_stats and store_stats["already_complete"]:
            print(
                "campaign already complete in the store; "
                "result above merged from the store"
            )
            return EXIT_ALREADY_COMPLETE
    return 0


def _cmd_lbist(args) -> int:
    from .bist.lbist import StumpsController

    netlist = _load_circuit(_circuit_spec(args))
    controller = StumpsController(netlist, word_width=args.word_width)
    result = controller.run(args.patterns)
    for point in result.coverage_points:
        print(f"{int(point['patterns']):6d} patterns: {point['coverage']:.4f}")
    print(f"final coverage: {result.final_coverage:.4f}")
    print(f"signature: {result.signature:#x}")
    return 0


def _cmd_mbist(args) -> int:
    from .bist.mbist import coverage_matrix, format_matrix

    matrix = coverage_matrix(
        n_cells=args.cells, samples_per_kind=args.samples, seed=args.seed
    )
    print(format_matrix(matrix))
    return 0


def _cmd_plan(_args) -> int:
    # Imported here: the planner models the accelerator in numpy, which no
    # other subcommand needs.
    from .dft.planner import build_plan

    plan = build_plan()
    for key, value in plan.report.items():
        print(f"{key}: {value}")
    return 0


# ----------------------------------------------------------------------
# repro obs: benchmark comparison, regression gate, live campaign tail
# ----------------------------------------------------------------------


def _compare_reports(args):
    """Findings for ``args.baseline`` against ``args.current``; an unreadable
    report is a bad argument (exit 2)."""
    from .obs import regress

    config = regress.RegressConfig(
        wall_threshold=args.threshold,
        mad_k=args.mad_k,
        counter_tolerance=args.counter_tolerance,
    )
    config.validate()
    try:
        return regress.compare_paths(args.baseline, args.current, config)
    except OSError as exc:
        raise ValueError(f"cannot read {exc.filename!r}: {exc.strerror}") from None


def _cmd_obs_diff(args) -> int:
    from .obs import regress

    results = _compare_reports(args)
    for line in regress.format_findings(results, verbose=args.verbose):
        print(line)
    return 0


def _cmd_obs_gate(args) -> int:
    from .obs import regress

    results = _compare_reports(args)
    for line in regress.format_findings(results, verbose=args.verbose):
        print(line)
    failing = [
        finding
        for findings in results.values()
        for finding in regress.failures(findings)
    ]
    if failing:
        print(
            f"REGRESSION GATE FAILED: {len(failing)} failing metric(s) "
            f"across {sum(1 for f in results.values() if regress.failures(f))} "
            f"benchmark file(s)",
            file=sys.stderr,
        )
        return EXIT_REGRESSION
    print("regression gate passed")
    return 0


def _render_store_progress(progress) -> List[str]:
    """Progress of a shard store: one line, plus one once it is complete."""
    lines = [
        f"store {progress['path']}: partitions "
        f"{progress['partitions_done_count']}/{progress['partitions_total']} "
        f"done, faults graded {progress['faults_graded']}, "
        f"detected {progress['detected']}"
    ]
    if progress["complete"]:
        lines.append("  campaign complete")
    return lines


def _cmd_obs_tail(args) -> int:
    if not os.path.isdir(args.store):
        raise ValueError(
            f"{args.store!r} is not a shard-store directory; obs tail reads "
            f"the DIR a campaign was started with via --store DIR"
        )
    from .sim.store import read_store_progress

    while True:
        progress = read_store_progress(args.store)
        for line in _render_store_progress(progress):
            print(line)
        if not args.follow or progress["complete"]:
            return 0
        time.sleep(args.interval)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _nonnegative_float(text: str) -> float:
    value = float(text)
    # NaN or inf as a tolerance would pass every drift.
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a finite number >= 0, got {value}"
        )
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    # A NaN deadline or poll interval never elapses.
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a finite positive number, got {value}"
        )
    return value


def _add_word_width_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--word-width",
        type=_positive_int,
        default=WORD_WIDTH,
        help=(
            "patterns packed per simulation word "
            f"(default: {WORD_WIDTH}; characterized ladder: "
            f"{'/'.join(str(w) for w in WORD_WIDTHS)}; results are "
            "bit-identical for every width)"
        ),
    )


def _add_backend_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        choices=list(BACKEND_NAMES),
        default="ppsfp",
        help="fault-simulation engine (default: ppsfp)",
    )
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        help="worker processes for the supervised backend (default: CPU count)",
    )
    parser.add_argument(
        "--partitions",
        type=_positive_int,
        default=None,
        help=(
            "fault partitions for the supervised backend (default: sized "
            "from the fault universe; independent of --jobs, so results "
            "never depend on worker count)"
        ),
    )
    _add_word_width_argument(parser)


def _add_circuit_arguments(parser: argparse.ArgumentParser) -> None:
    """Accept the circuit positionally or as ``--circuit`` (one required)."""
    parser.add_argument(
        "circuit",
        nargs="?",
        default=None,
        help="benchmark name (incl. '<name>_xN' replications like "
        "'mac4_x32'), .bench, or .v file",
    )
    parser.add_argument(
        "--circuit",
        dest="circuit_opt",
        default=None,
        metavar="CIRCUIT",
        help="alternative to the positional circuit argument",
    )


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """Observability flags every subcommand carries."""
    parser.add_argument(
        "--report",
        metavar="FILE",
        default=None,
        help="write a structured RunReport (spans + counters) as JSON",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print the span tree and counters after the command finishes",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a Chrome trace-event timeline (open in Perfetto or "
        "chrome://tracing): one track per worker process, instant "
        "markers for store publishes and a failed shard",
    )


def _add_supervision_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed",
        type=_nonnegative_int,
        default=0,
        help="deterministic fault-partitioning seed (default: 0)",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="shard-store directory: every graded shard is published "
        "there, so re-running with the same --store resumes a failed, "
        "killed or interrupted campaign (implies the supervised backend)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="AI-chip DFT methodology toolkit"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    circuits = commands.add_parser("circuits", help="list built-in circuits")
    _add_obs_arguments(circuits)
    circuits.set_defaults(handler=_cmd_circuits)

    stats = commands.add_parser("stats", help="circuit statistics")
    _add_circuit_arguments(stats)
    _add_obs_arguments(stats)
    stats.set_defaults(handler=_cmd_stats)

    atpg = commands.add_parser("atpg", help="run stuck-at ATPG")
    _add_circuit_arguments(atpg)
    _add_obs_arguments(atpg)
    atpg.add_argument("--seed", type=_nonnegative_int, default=0)
    atpg.add_argument("--backtrack-limit", type=_positive_int, default=64)
    atpg.add_argument(
        "--engine",
        choices=ENGINE_NAMES,
        default="podem",
        help="deterministic phase-2 generator: classic PODEM, the "
        "D-algorithm (proves untestability), SCOAP-guided PODEM, or "
        "the per-fault portfolio racing all three",
    )
    atpg.add_argument(
        "--work-budget",
        type=_positive_int,
        default=None,
        metavar="GATES",
        help="per-fault cap on the gates a deterministic search re-implies; "
        "over-budget faults are counted as aborted (not untestable) instead "
        "of stalling the run, with the same verdicts on any host",
    )
    atpg.add_argument("--output", "-o", help="write patterns to file")
    atpg.set_defaults(handler=_cmd_atpg)

    faultsim = commands.add_parser(
        "faultsim", aliases=["fsim"], help="grade a pattern file"
    )
    _add_circuit_arguments(faultsim)
    faultsim.add_argument("patterns", help="pattern file from `repro atpg -o`")
    _add_backend_arguments(faultsim)
    _add_supervision_arguments(faultsim)
    _add_obs_arguments(faultsim)
    faultsim.set_defaults(handler=_cmd_faultsim)

    lbist = commands.add_parser("lbist", help="run STUMPS logic BIST")
    _add_circuit_arguments(lbist)
    lbist.add_argument("--patterns", type=_positive_int, default=512)
    _add_word_width_argument(lbist)
    _add_obs_arguments(lbist)
    lbist.set_defaults(handler=_cmd_lbist)

    mbist = commands.add_parser("mbist", help="March coverage matrix")
    mbist.add_argument("--cells", type=_positive_int, default=64)
    mbist.add_argument("--samples", type=_positive_int, default=30)
    mbist.add_argument("--seed", type=_nonnegative_int, default=0)
    _add_obs_arguments(mbist)
    mbist.set_defaults(handler=_cmd_mbist)

    plan = commands.add_parser("plan", help="chip-level DFT plan")
    _add_obs_arguments(plan)
    plan.set_defaults(handler=_cmd_plan)

    obs_cmd = commands.add_parser(
        "obs", help="observability tooling: diff, regression gate, tail"
    )
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)

    def _add_compare_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "baseline", help="baseline BENCH_*.json file or directory of them"
        )
        sub.add_argument(
            "current", help="current BENCH_*.json file or directory of them"
        )
        sub.add_argument(
            "--threshold",
            type=_positive_float,
            default=0.5,
            help="relative wall-time regression threshold (default: 0.5 = "
            "+50%% over the baseline median, beyond the noise band)",
        )
        sub.add_argument(
            "--mad-k",
            type=_nonnegative_float,
            default=3.0,
            help="noise band half-width in scaled MADs of the baseline "
            "replicates (default: 3.0)",
        )
        sub.add_argument(
            "--counter-tolerance",
            type=_nonnegative_float,
            default=0.0,
            help="relative drift allowed on deterministic work counters "
            "(default: 0 = exact)",
        )
        sub.add_argument(
            "--verbose", "-v", action="store_true",
            help="also print metrics that did not change",
        )
        _add_obs_arguments(sub)

    diff = obs_sub.add_parser(
        "diff", help="compare two benchmark reports (median + MAD bands)"
    )
    _add_compare_arguments(diff)
    diff.set_defaults(handler=_cmd_obs_diff)

    gate = obs_sub.add_parser(
        "gate",
        help=f"like diff, but exit {EXIT_REGRESSION} on wall-time "
        "regression or counter drift (the CI sentinel)",
    )
    _add_compare_arguments(gate)
    gate.set_defaults(handler=_cmd_obs_gate)

    tail = obs_sub.add_parser(
        "tail",
        help="live progress of a --store campaign",
    )
    tail.add_argument(
        "store",
        help="the shard-store directory the campaign was started with "
        "(--store DIR)",
    )
    tail.add_argument(
        "--follow", "-f", action="store_true",
        help="keep polling until the campaign's partitions are all done",
    )
    tail.add_argument(
        "--interval",
        type=_positive_float,
        default=1.0,
        help="seconds between polls with --follow (default: 1.0)",
    )
    _add_obs_arguments(tail)
    tail.set_defaults(handler=_cmd_obs_tail)
    return parser


def _print_profile(observation) -> None:
    """Human-readable span tree and metric values (the ``--profile`` view)."""
    from .obs.metrics import metric_id

    print("--- profile: spans ---")
    for line in observation.root.tree_lines():
        print(line)
    samples = [
        (metric_id(name, labels), metric)
        for name, labels, metric in observation.metrics.items()
        if metric.value is not None
    ]
    if samples:
        print("--- profile: metrics ---")
        width = max(len(identity) for identity, _ in samples)
        for identity, metric in samples:
            value = metric.value
            rendered = f"{value:.6f}" if isinstance(value, float) else str(value)
            print(f"{identity:<{width}s} {rendered}")


def _run_observed(args, argv: Optional[List[str]]) -> int:
    """Run the handler under an observation; emit report/profile after."""
    from . import obs
    from .obs.report import RunReport
    from .obs.trace import write_chrome_trace

    with obs.observe(f"repro.{args.command}", command=args.command) as observation:
        code = args.handler(args)
    meta = {
        "argv": list(argv) if argv is not None else list(sys.argv[1:]),
        "exit_code": code,
    }
    report = RunReport.from_observation(observation, meta=meta)
    if args.report:
        with open(args.report, "w") as handle:
            handle.write(report.to_json() + "\n")
        print(f"wrote run report to {args.report}")
    if getattr(args, "trace", None):
        write_chrome_trace(args.trace, report)
        print(f"wrote trace-event timeline to {args.trace}")
    if args.profile:
        _print_profile(observation)
    return code


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if (
            getattr(args, "report", None)
            or getattr(args, "trace", None)
            or getattr(args, "profile", False)
        ):
            return _run_observed(args, argv)
        return args.handler(args)
    except KeyboardInterrupt:
        # The supervisor has already reaped its workers on the way up;
        # exit 130 instead of a multiprocessing traceback so shells and
        # schedulers see a clean interrupt.  Only a campaign over a named
        # store has anything to resume.
        message = "interrupted"
        if args.handler is _cmd_faultsim and args.store is not None:
            message += f": {_resume_hint(args.store)}"
        print(message, file=sys.stderr)
        return EXIT_INTERRUPTED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
