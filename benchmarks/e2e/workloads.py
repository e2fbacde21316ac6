"""The benchmark's workloads, and the child process that runs one of them.

Every measured run is a fresh ``python3 workloads.py '<request JSON>'``
process, so the process-wide good-machine cache starts cold as it does
for a command-line user.  The child builds the workload's inputs from the
seed (set-up), times the one flow call, checks the outputs outside the
timed region, and prints one JSON line for the parent (``__main__``).

A request holds ``workload``, ``seed``, ``smoke``, ``spawned`` (the
parent's ``time.monotonic()`` just before it started the child), and
optionally ``traced`` (wrap the layer boundaries, see :mod:`tracing`) or
``verify`` (also run the workload's independent verification).  The
parent verifies the first run of each invocation and requires every
other run to reproduce its outputs exactly (the ``fingerprint``), so
each run is checked while the costly verification runs once.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import tracing  # noqa: E402
from repro import obs  # noqa: E402
from repro.atpg import engine  # noqa: E402
from repro.atpg.random_gen import random_patterns  # noqa: E402
from repro.bist.lbist import LbistConfig, StumpsController  # noqa: E402
from repro.circuit import benchmarks  # noqa: E402
from repro.compression import flow  # noqa: E402
from repro.compression.edt import EdtSystem  # noqa: E402
from repro.faults import collapse, stuck_at  # noqa: E402
from repro.scan import insertion  # noqa: E402
from repro.sim import goodcache  # noqa: E402
from repro.sim.faultsim import FaultSimulator  # noqa: E402
from repro.sim.supervisor import SupervisedPoolBackend  # noqa: E402

OUT_DIR = HERE / "out"

# Layer entry points are looked up on their modules at call time (not
# imported by name), so the traced run's wrappers see every call.


def _digest(*values: object) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def _collapsed(netlist):
    faults, _ = collapse.collapse_faults(netlist, stuck_at.full_fault_list(netlist))
    return faults


def _circuit(name: str):
    netlist = benchmarks.get_benchmark(name)
    return netlist, _collapsed(netlist)


# ----------------------------------------------------------------------
# ATPG: run_atpg as `repro atpg` calls it
# ----------------------------------------------------------------------


def atpg_setup(params: dict, seed: int) -> dict:
    netlist, faults = _circuit(params["circuit"])
    return {"netlist": netlist, "faults": faults, "seed": seed, **params}


def atpg_flow(state: dict):
    return engine.run_atpg(
        state["netlist"],
        faults=state["faults"],
        seed=state["seed"],
        engine=state["engine"],
        backtrack_limit=state["backtrack_limit"],
        min_batch_yield=state["min_batch_yield"],
    )


def atpg_outcome(state: dict, result) -> dict:
    return {
        "faults": result.total_faults,
        "fault_coverage": 100.0 * result.fault_coverage,
        "test_coverage": 100.0 * result.test_coverage,
        "patterns": len(result.patterns),
        "fingerprint": _digest(result.patterns, result.untestable, result.aborted),
    }


def atpg_check(state: dict, result) -> List[str]:
    problems = []
    if result.consistency_errors:
        problems.append(f"{len(result.consistency_errors)} consistency errors")
    settled = result.detected + len(result.untestable) + len(result.aborted)
    if settled != result.total_faults:
        problems.append(
            f"detected + untestable + aborted = {settled}, "
            f"but the flow graded {result.total_faults} faults"
        )
    return problems


def atpg_verify(state: dict, result) -> List[str]:
    """Re-grade the patterns on the other kernel, without the shared cache.

    Aborted faults may be caught by chance, so they are left out; a
    proved-untestable fault must never be detected.
    """
    regrade = FaultSimulator(state["netlist"], kernel="numpy", cache=None).simulate(
        result.patterns, state["faults"]
    )
    problems = []
    aborted = set(result.aborted)
    credited = sum(1 for fault in regrade.detected if fault not in aborted)
    if credited != result.detected:
        problems.append(
            f"re-grade detects {credited} faults, the flow reports {result.detected}"
        )
    proved = sum(1 for fault in result.untestable if fault in regrade.detected)
    if proved:
        problems.append(f"{proved} faults proved untestable are detected")
    return problems


# ----------------------------------------------------------------------
# Fault-grading campaign: FaultSimulator.simulate on the supervised backend
# ----------------------------------------------------------------------


def campaign_setup(params: dict, seed: int) -> dict:
    netlist, faults = _circuit(params["circuit"])
    simulator = FaultSimulator(netlist)
    patterns = random_patterns(simulator.view.num_inputs, params["patterns"], seed=seed)
    backend = SupervisedPoolBackend(jobs=params["jobs"], seed=seed)
    return {
        "netlist": netlist,
        "faults": faults,
        "simulator": simulator,
        "patterns": patterns,
        "backend": backend,
    }


def campaign_flow(state: dict):
    return state["simulator"].simulate(
        state["patterns"], state["faults"], drop=True, engine=state["backend"]
    )


def _detection_digest(result) -> str:
    return _digest(sorted((repr(f), index) for f, index in result.detected.items()))


def campaign_outcome(state: dict, result) -> dict:
    # A grading run proves nothing untestable, so its test coverage is
    # its fault coverage.
    return {
        "faults": result.total_faults,
        "fault_coverage": 100.0 * result.coverage,
        "test_coverage": 100.0 * result.coverage,
        "patterns": len(state["patterns"]),
        "fingerprint": _detection_digest(result),
    }


def campaign_check(state: dict, result) -> List[str]:
    failed = result.stats.get("failed_partitions")
    return [f"{len(failed)} partitions unrecoverable"] if failed else []


def campaign_verify(state: dict, result) -> List[str]:
    """Compare the detection map with one in-process PPSFP grading."""
    reference = FaultSimulator(state["netlist"], cache=None).simulate(
        state["patterns"], state["faults"], drop=True, engine="ppsfp"
    )
    if _detection_digest(reference) != _detection_digest(result):
        return ["detection map differs from the in-process PPSFP reference"]
    return []


# ----------------------------------------------------------------------
# Compressed ATPG: scan insertion + EDT + run_compressed_atpg(grade=True)
# ----------------------------------------------------------------------


def edt_setup(params: dict, seed: int) -> dict:
    netlist = benchmarks.get_benchmark(params["circuit"])
    design = insertion.insert_scan(netlist, n_chains=params["chains"])
    system = EdtSystem(design, n_input_channels=2, n_output_channels=2)
    return {"edt": system, "faults": _collapsed(design.netlist), "seed": seed}


def edt_flow(state: dict):
    return flow.run_compressed_atpg(
        state["edt"], faults=state["faults"], seed=state["seed"], grade=True
    )


def edt_outcome(state: dict, result) -> dict:
    return {
        "faults": result.total_faults,
        "fault_coverage": 100.0 * result.fault_coverage,
        "test_coverage": 100.0 * result.test_coverage,
        "patterns": len(result.applied_patterns),
        "fingerprint": _digest(result.applied_patterns, result.graded_coverage),
    }


def edt_check(state: dict, result) -> List[str]:
    if result.graded_coverage is None or result.graded_coverage < result.fault_coverage:
        return [
            f"graded coverage {result.graded_coverage} is below the flow's "
            f"fault coverage {result.fault_coverage}"
        ]
    return []


# ----------------------------------------------------------------------
# Logic BIST: StumpsController.run as `repro lbist` calls it
# ----------------------------------------------------------------------


def lbist_setup(params: dict, seed: int) -> dict:
    netlist, faults = _circuit(params["circuit"])
    controller = StumpsController(netlist, LbistConfig(seed=seed))
    return {"controller": controller, "faults": faults, "patterns": params["patterns"]}


def lbist_flow(state: dict):
    return state["controller"].run(state["patterns"], faults=state["faults"])


def lbist_outcome(state: dict, result) -> dict:
    # The signature and coverage must repeat exactly across runs of one
    # seed; the parent compares fingerprints.
    return {
        "faults": result.total_faults,
        "fault_coverage": 100.0 * result.final_coverage,
        "test_coverage": 100.0 * result.final_coverage,
        "patterns": result.patterns_applied,
        "fingerprint": _digest(result.signature, result.final_coverage),
    }


def no_check(state: dict, result) -> List[str]:
    return []


@dataclass(frozen=True)
class Workload:
    full: dict
    smoke: dict
    setup: Callable[[dict, int], dict]
    flow: Callable[[dict], object]
    outcome: Callable[[dict, object], dict]
    check: Callable[[dict, object], List[str]]
    verify: Optional[Callable[[dict, object], List[str]]] = None


WORKLOADS: Dict[str, Workload] = {
    "atpg_mac4x16": Workload(
        full={
            "circuit": "mac4_x16",
            "engine": "podem",
            "backtrack_limit": 64,
            "min_batch_yield": 1,
        },
        smoke={
            "circuit": "mac4_x4",
            "engine": "podem",
            "backtrack_limit": 64,
            "min_batch_yield": 1,
        },
        setup=atpg_setup,
        flow=atpg_flow,
        outcome=atpg_outcome,
        check=atpg_check,
        verify=atpg_verify,
    ),
    "atpg_tail_rand200": Workload(
        # The whole random phase always runs (no early stop on a batch that
        # detects nothing), so the seed changes which faults are left for the
        # engines, not how many: with the early stop, one seed in ten leaves
        # 20 % more aborts and takes 50 % longer.
        full={
            "circuit": "rand200",
            "engine": "portfolio",
            "backtrack_limit": 1,
            "min_batch_yield": 0,
        },
        smoke={
            "circuit": "rres12",
            "engine": "portfolio",
            "backtrack_limit": 2,
            "min_batch_yield": 0,
        },
        setup=atpg_setup,
        flow=atpg_flow,
        outcome=atpg_outcome,
        check=atpg_check,
        verify=atpg_verify,
    ),
    "fsim_campaign_mac4x16": Workload(
        full={"circuit": "mac4_x16", "patterns": 1024, "jobs": 2},
        smoke={"circuit": "mac4_x4", "patterns": 256, "jobs": 2},
        setup=campaign_setup,
        flow=campaign_flow,
        outcome=campaign_outcome,
        check=campaign_check,
        verify=campaign_verify,
    ),
    "edt_mac4x8": Workload(
        full={"circuit": "mac4_x8", "chains": 16},
        smoke={"circuit": "mac4_x4", "chains": 8},
        setup=edt_setup,
        flow=edt_flow,
        outcome=edt_outcome,
        check=edt_check,
    ),
    "lbist_mac4x16": Workload(
        full={"circuit": "mac4_x16", "patterns": 1024},
        smoke={"circuit": "mac4_x4", "patterns": 256},
        setup=lbist_setup,
        flow=lbist_flow,
        outcome=lbist_outcome,
        check=no_check,
    ),
}


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its reaped workers."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def run(request: dict) -> dict:
    """Set up, time and check one run of one workload."""
    name = request["workload"]
    workload = WORKLOADS[name]
    params = workload.smoke if request["smoke"] else workload.full
    recorder = tracing.Recorder() if request.get("traced") else None
    if recorder is not None:
        tracing.install(recorder)
    with obs.observe("bench.e2e") if recorder else nullcontext() as observation:
        with recorder.span("run") if recorder else nullcontext():
            state = workload.setup(params, request["seed"])
            setup_s = time.monotonic() - request["spawned"]
            start = time.perf_counter()
            result = workload.flow(state)
            wall_s = time.perf_counter() - start
    record = {"wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb()}
    if recorder is not None:
        recorder.uninstall()
        counters = {
            metric: observation.counter(metric).value
            for metric in tracing.COUNTER_METRICS
        }
        # The process-wide cache also serves lookups outside fault
        # simulation (the LBIST signature pass), which its own counters see.
        counters["goodcache.hits"] = goodcache.DEFAULT_CACHE.hits
        counters["goodcache.misses"] = goodcache.DEFAULT_CACHE.misses
        record["layers"] = tracing.layer_metrics(recorder.spans, counters)
        OUT_DIR.mkdir(exist_ok=True)
        document = tracing.trace_document(
            recorder.spans,
            run_id=f"{name}-seed{request['seed']}-pid{os.getpid()}",
            workload=name,
            seed=request["seed"],
            smoke=request["smoke"],
        )
        (OUT_DIR / f"trace_{name}.json").write_text(json.dumps(document) + "\n")
    record.update(workload.outcome(state, result))
    record["problems"] = workload.check(state, result)
    if request.get("verify") and workload.verify is not None:
        record["problems"] += workload.verify(state, result)
    return record


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
