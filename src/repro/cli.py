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
``obs tail``   live per-runner progress of a ``--store`` campaign
=============  =====================================================

Every subcommand also takes ``--report FILE`` (RunReport JSON),
``--profile`` (span tree + counters on stdout), and ``--trace FILE``
(Chrome trace-event JSON for Perfetto/``chrome://tracing``).

Exit codes: ``0`` success; ``2`` bad arguments (argparse, an unknown
circuit, an unreadable file, a pattern file for other inputs) or campaign
mismatch (shard store keyed to a different circuit/pattern set); ``3`` a
supervised fault-sim campaign completed *partially*
(unrecoverable partitions — reported coverage is a lower bound);
``4`` benchmark regression detected by ``obs gate``; ``5`` a
``--store`` campaign was already finished — by peer runners or an
earlier run (the printed result is real — merged from the store — but
this runner graded nothing); ``130`` interrupted (Ctrl-C: workers are
terminated and held store leases are released before exiting, so
re-running with the same ``--store`` — or a peer — picks up where the
run died).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from itertools import zip_longest
from typing import List, Optional

import time

from . import obs
from .atpg import ENGINE_NAMES, atpg_table_row, run_atpg
from .obs import regress
from .obs.regress import RegressConfig
from .bist.lbist import StumpsController
from .bist.mbist import coverage_matrix, format_matrix
from .circuit import benchmarks
from .circuit.bench import load_bench
from .circuit.netlist import Netlist
from .circuit.verilog import load_verilog
from .dft.planner import build_plan
from .faults import collapse_faults, full_fault_list
from .scan.patfile import format_patterns, load_patterns
from .sim.chaos import ChaosPlan, HostChaosPlan
from .sim.dispatch import BACKEND_NAMES
from .sim.faultsim import RECOVERY_COUNTERS, FaultSimulator
from .sim.store import ShardStore, read_store_progress
from .sim.parallel import WORD_WIDTH, WORD_WIDTHS
from .sim.supervisor import SupervisedPoolBackend, SupervisorConfig
from .sim.view import CombinationalView

#: Campaign finished but some partitions were unrecoverable: the printed
#: coverage is a lower bound, not the final word.
EXIT_PARTIAL = 3
#: ``repro obs gate`` found a wall-time regression or counter drift.
EXIT_REGRESSION = 4
#: A ``--store`` campaign was complete before this runner graded anything:
#: the merged result printed is authoritative, but schedulers fanning out
#: runners can tell "did work" (0) from "peers beat me to all of it" (5).
EXIT_PEERS = 5
#: Interrupted by Ctrl-C after clean teardown (POSIX convention: 128+SIGINT).
EXIT_INTERRUPTED = 130


def _load_circuit(spec: str) -> Netlist:
    """Resolve a circuit argument: benchmark name, .bench, or .v file.

    An unknown name or an unreadable file is a bad argument: it raises
    ``ValueError``, which :func:`main` reports as exit code 2.
    """
    if spec.endswith((".bench", ".v")):
        load = load_bench if spec.endswith(".bench") else load_verilog
        try:
            return load(spec)
        except OSError as exc:
            raise ValueError(f"cannot read {spec!r}: {exc.strerror}") from None
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
    for name in benchmarks.benchmark_names():
        netlist = benchmarks.get_benchmark(name)
        print(f"{name:10s} {netlist.stats()}")
    return 0


def _cmd_stats(args) -> int:
    netlist = _load_circuit(_circuit_spec(args))
    print(f"{netlist.name}: {netlist.stats()}")
    faults = full_fault_list(netlist)
    collapsed, _ = collapse_faults(netlist, faults)
    print(f"stuck-at faults: {len(faults)} uncollapsed, {len(collapsed)} collapsed")
    return 0


def _cmd_atpg(args) -> int:
    netlist = _load_circuit(_circuit_spec(args))
    result = run_atpg(
        netlist,
        seed=args.seed,
        backtrack_limit=args.backtrack_limit,
        backend=args.backend,
        jobs=args.jobs,
        partitions=args.partitions,
        word_width=args.word_width,
        podem_time_budget_s=args.podem_budget,
        store=args.store,
        engine=args.engine,
    )
    row = atpg_table_row(netlist, result)
    for key, value in row.items():
        print(f"{key}: {value}")
    if args.store:
        print(
            f"store {args.store}: {result.store_shards_graded} batch shards "
            f"graded by this run"
        )
    if args.output:
        view = CombinationalView(netlist)
        text = format_patterns(netlist.name, view.input_names(), result.patterns)
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {len(result.patterns)} patterns to {args.output}")
    return 0


def _supervised_backend(args) -> Optional[SupervisedPoolBackend]:
    """Build a supervised backend when the flags call for one.

    ``--timeout``, ``--retries``, ``--chaos``, ``--store`` and
    ``--host-chaos`` all imply supervision; asking for them with an
    unsupervised ``--backend`` is upgraded (with a note) rather than
    silently ignored.
    """
    if args.store is None and (args.runner_id is not None or bool(args.host_chaos)):
        raise ValueError(
            "--runner-id/--host-chaos only make sense with --store DIR "
            "(they name runners of a shared campaign)"
        )
    implied = (
        args.timeout is not None
        or args.retries is not None
        or bool(args.chaos)
        or args.store is not None
        or bool(args.host_chaos)
    )
    if args.backend != "supervised":
        if not implied:
            return None
        print(f"(--backend {args.backend} upgraded to supervised)")
    config = SupervisorConfig(timeout_s=args.timeout)
    if args.retries is not None:
        config.max_retries = args.retries
    chaos = ChaosPlan.parse(args.chaos) if args.chaos else None
    store = None
    if args.store is not None:
        runner_id = (
            args.runner_id
            if args.runner_id is not None
            else f"runner-{os.getpid()}"
        )
        store = ShardStore(args.store, runner_id=runner_id, lease_s=args.lease_s)
    host_chaos = HostChaosPlan.parse(args.host_chaos) if args.host_chaos else None
    return SupervisedPoolBackend(
        jobs=args.jobs,
        seed=args.seed,
        partitions=args.partitions,
        config=config,
        chaos=chaos,
        store=store,
        host_chaos=host_chaos,
    )


def _cmd_faultsim(args) -> int:
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
    for position, pattern in enumerate(pattern_file.patterns):
        if len(pattern) != expected:
            raise ValueError(
                f"pattern {position} in {args.patterns!r} has {len(pattern)} "
                f"bits but {netlist.name} has {expected} inputs — wrong "
                f"pattern file for this circuit?"
            )
    filled = [
        [0 if v not in (0, 1) else v for v in pattern]
        for pattern in pattern_file.patterns
    ]
    engine = _supervised_backend(args) or args.backend
    result = simulator.simulate(
        filled,
        faults,
        drop=True,
        engine=engine,
        jobs=args.jobs,
        seed=args.seed,
        partitions=args.partitions,
    )
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
        recovery = {key: stats[key] for key in RECOVERY_COUNTERS if stats.get(key)}
        if recovery:
            print(
                "recovered: "
                + ", ".join(f"{v} {k.replace('_', ' ')}" for k, v in recovery.items())
            )
        store_stats = stats.get("store")
        if store_stats:
            line = (
                f"store {store_stats['path']} [{store_stats['runner_id']}]: "
                f"{store_stats['shards_graded_here']}/{store_stats['n_shards']}"
                f" shards graded by this runner"
            )
            extra = ", ".join(
                f"{store_stats[key]} {key.replace('_', ' ')}"
                for key in ("steals", "publish_conflicts", "leases_swept")
                if store_stats.get(key)
            )
            if extra:
                line += f" ({extra})"
            print(line)
        failed = stats.get("failed_partitions")
        if failed:
            indices = sorted(entry["partition"] for entry in failed)
            print(
                f"WARNING: {len(failed)} partition(s) unrecoverable "
                f"{indices}; coverage above is a LOWER BOUND "
                f"({stats['coverage_lower_bound']:.2%})",
                file=sys.stderr,
            )
            return EXIT_PARTIAL
        if store_stats and store_stats.get("finished_by_peers"):
            print(
                "campaign already finished by peer runners; "
                "result above merged from the store"
            )
            return EXIT_PEERS
    return 0


def _cmd_lbist(args) -> int:
    netlist = _load_circuit(_circuit_spec(args))
    controller = StumpsController(netlist, word_width=args.word_width)
    result = controller.run(args.patterns)
    for point in result.coverage_points:
        print(f"{int(point['patterns']):6d} patterns: {point['coverage']:.4f}")
    print(f"final coverage: {result.final_coverage:.4f}")
    print(f"signature: {result.signature:#x}")
    return 0


def _cmd_mbist(args) -> int:
    matrix = coverage_matrix(
        n_cells=args.cells, samples_per_kind=args.samples, seed=args.seed
    )
    print(format_matrix(matrix))
    return 0


def _cmd_plan(_args) -> int:
    plan = build_plan()
    for key, value in plan.report.items():
        print(f"{key}: {value}")
    return 0


# ----------------------------------------------------------------------
# repro obs: benchmark comparison, regression gate, live campaign tail
# ----------------------------------------------------------------------


def _regress_config(args) -> RegressConfig:
    config = RegressConfig(
        wall_threshold=args.threshold,
        mad_k=args.mad_k,
        counter_tolerance=args.counter_tolerance,
    )
    config.validate()
    return config


def _cmd_obs_diff(args) -> int:
    results = regress.compare_paths(args.baseline, args.current, _regress_config(args))
    for line in regress.format_findings(results, verbose=args.verbose):
        print(line)
    return 0


def _cmd_obs_gate(args) -> int:
    results = regress.compare_paths(args.baseline, args.current, _regress_config(args))
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
    """Per-runner ownership map of a shard store, one line per runner."""
    done = progress.get("partitions_done_count", 0)
    total = progress.get("partitions_total", "?")
    lines = [
        f"store {progress['path']}: partitions {done}/{total} done, "
        f"{progress.get('leased', 0)} leased, "
        f"{progress.get('available', 0)} available, "
        f"faults graded {progress.get('faults_graded', 0)}, "
        f"detected {progress.get('detected', 0)}"
        + (f", {progress['steals']} steal(s)" if progress.get("steals") else "")
    ]
    for runner, row in sorted(progress.get("runners", {}).items()):
        held = ", ".join(
            f"{entry['shard']}@{entry['expires_in_s']:+.1f}s"
            for entry in row.get("held", ())
        )
        line = f"  {runner}: {row.get('published', 0)} published"
        if row.get("steals"):
            line += f", {row['steals']} stolen"
        line += f", holds [{held}]" if held else ", holds nothing"
        lines.append(line)
    if progress.get("complete"):
        lines.append("  campaign complete")
    return lines


def _cmd_obs_tail(args) -> int:
    if not os.path.isdir(args.store):
        raise ValueError(
            f"{args.store!r} is not a shard-store directory; obs tail reads "
            f"the DIR a campaign was started with via --store DIR"
        )
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
    # A NaN deadline never trips and an infinite lease is never stolen.
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
        "markers for supervisor retries/kills/chaos",
    )


def _add_supervision_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed",
        type=_nonnegative_int,
        default=0,
        help="deterministic fault-partitioning seed (default: 0)",
    )
    parser.add_argument(
        "--timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="per-partition wall-clock deadline (supervised backend)",
    )
    parser.add_argument(
        "--retries",
        type=_nonnegative_int,
        default=None,
        help="pool retries per failing partition before the inline "
        "fallback (supervised backend; default: 2)",
    )
    parser.add_argument(
        "--chaos",
        action="append",
        default=None,
        metavar="PART:MODE[,MODE...]",
        help="inject deterministic failures for testing, e.g. "
        "'2:crash,crash' or '0:hang' (repeatable; supervised backend)",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="shard-store directory: every graded shard is published "
        "there, so re-running with the same --store resumes a killed or "
        "interrupted campaign, and N independently launched runners with "
        "the same --store cooperatively execute one campaign, stealing "
        "shards from dead peers (implies the supervised backend)",
    )
    parser.add_argument(
        "--runner-id",
        default=None,
        metavar="NAME",
        help="this runner's name in the store (lease ownership, event "
        "files; default: runner-<pid>)",
    )
    parser.add_argument(
        "--lease-s",
        type=_positive_float,
        default=30.0,
        metavar="SECONDS",
        help="shard lease duration: a runner silent this long is presumed "
        "dead and its shards are stolen (default: 30)",
    )
    parser.add_argument(
        "--host-chaos",
        action="append",
        default=None,
        metavar="RUNNER:MODE[@AFTER[,DURATION_S]]",
        help="inject a host-level failure into the named runner: "
        "'r1:kill@2' (exit hard after 2 publishes), 'r0:stall@1,0.5' "
        "(stop renewing leases), 'r2:partition@1,0.5' (lose the store "
        "for a window; repeatable; requires --store)",
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
        "--podem-budget",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="per-fault PODEM wall-clock budget; over-budget faults are "
        "counted as aborted (not untestable) instead of stalling the run",
    )
    atpg.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="shard-store directory for the batch fault-sim passes "
        "(random phase, verify): each pass publishes to its own "
        "DIR/pass-NNN, so re-running with the same --store resumes "
        "without re-grading — implies the supervised backend",
    )
    atpg.add_argument("--output", "-o", help="write patterns to file")
    _add_backend_arguments(atpg)
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
        help="live progress and per-runner shard ownership of a "
        "--store campaign",
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


def _print_profile(observation: "obs.Observation") -> None:
    """Human-readable span tree and metric values (the ``--profile`` view)."""
    print("--- profile: spans ---")
    for line in observation.root.tree_lines():
        print(line)
    samples = [
        (obs.metric_id(name, labels), metric)
        for name, labels, metric in observation.metrics.items()
        if metric.kind in ("counter", "gauge") and metric.value is not None
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
    with obs.observe(f"repro.{args.command}", command=args.command) as observation:
        code = args.handler(args)
    meta = {
        "argv": list(argv) if argv is not None else list(sys.argv[1:]),
        "exit_code": code,
    }
    report = obs.RunReport.from_observation(observation, meta=meta)
    if args.report:
        with open(args.report, "w") as handle:
            handle.write(report.to_json() + "\n")
        print(f"wrote run report to {args.report}")
    if getattr(args, "trace", None):
        obs.write_chrome_trace(args.trace, report)
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
        # The supervisor has already reaped its workers and released its
        # store leases on the way up; exit 130 instead of a
        # multiprocessing traceback so shells and schedulers see a clean
        # interrupt.
        print(
            "interrupted: workers terminated — re-run with the same "
            "--store DIR to resume",
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
