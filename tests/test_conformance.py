"""Cross-backend × cross-kernel conformance oracle.

Single source of truth for the dispatch/kernel contract: every
fault-simulation backend (``serial``, ``ppsfp``, ``supervised``, and
``store`` — the supervised backend publishing to and merging from a
fresh shard store, the resume path) × every good-machine kernel
(``python`` bigints, ``numpy`` uint64 lanes; cones always propagate on
bigints) × every word width must
produce *bit-identical* results — the same ``detected`` map (same
first-detection pattern indices), the same ``undetected`` list, the same
coverage — and, within one engine family, identical deterministic work
counters (``events_propagated``, ``words_evaluated``, ``good_passes``).

The oracle is the python-kernel single-process PPSFP engine at the
default 64-bit width.  Everything else is measured against it (detection
maps are width- and engine-invariant) or against the python kernel at
the same width (counters are width-dependent by design, kernel-invariant
by contract).

This file replaces the scattered pairwise agreement checks that used to
live in ``test_dispatch.py`` (backend × backend) and ``test_widesim.py``
(width × width); those files keep their partitioning, caching, stats
and regression-pin tests.
"""

import functools
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.atpg.random_gen import random_patterns
from repro.circuit import benchmarks, generators
from repro.circuit.benchmarks import replicate_netlist
from repro.faults.collapse import collapse_faults
from repro.faults.stuck_at import full_fault_list
from repro.scan.insertion import insert_scan
from repro.sim.dispatch import BACKEND_NAMES
from repro.sim.faultsim import FaultSimulator
from repro.sim.parallel import KERNELS, WORD_WIDTH
from repro.sim.store import ShardStore
from repro.sim.supervisor import SupervisedPoolBackend

from tests.oracle_util import small_netlists

#: ≥7 circuits: combinational, arithmetic, full-scan sequential, and
#: replicated cores (plain and scan-inserted).
CIRCUIT_FACTORIES = (
    ("c17", benchmarks.c17),
    ("rand5", lambda: generators.random_circuit(5, 25, seed=101)),
    ("rand8", lambda: generators.random_circuit(8, 60, seed=202)),
    ("adder4", lambda: generators.adder(4)),
    ("mac2", lambda: generators.mac_unit(2)),
    ("seq4", lambda: generators.random_sequential(4, 40, 5, seed=303)),
    ("seq6", lambda: generators.random_sequential(6, 50, 8, seed=404)),
    # Identical cores: PPSFP grades each fault's images once per class.
    ("mac2_x3", lambda: replicate_netlist(generators.mac_unit(2), 3)),
    # Chains end in the last copy, so copies 0-2 stay one class.
    (
        "seq3_x4_scan",
        lambda: insert_scan(
            replicate_netlist(generators.random_sequential(3, 24, 3, seed=303), 4),
            n_chains=3,
        ).netlist,
    ),
)
#: Rows with identical cores, graded once per class.
REPLICATED = ("mac2_x3", "seq3_x4_scan")

#: The seven base circuits, which the ATPG oracle suites also audit (its
#: exhaustive ground truth needs at most 16 inputs).
CIRCUIT_NAMES = [
    name for name, _ in CIRCUIT_FACTORIES if name not in REPLICATED
]

#: The fault-simulation matrix runs every row.
FAULTSIM_NAMES = CIRCUIT_NAMES + list(REPLICATED)

N_PATTERNS = 96

#: Multiprocess engines: the supervised backend in memory and over a
#: shard store (every shard published, the merge read back from disk).
MULTIPROCESS = ("store", "supervised")

#: Width ladder for the single-process matrix; 100 pins the no-power-of-
#: two-assumption property alongside the characterized widths.
WIDTHS = (64, 100, 256, 1024)

#: Deterministic counters that must be kernel-invariant within an engine.
COUNTERS = ("events_propagated", "words_evaluated", "faults_simulated")


@functools.lru_cache(maxsize=None)
def _circuit(name):
    for factory_name, factory in CIRCUIT_FACTORIES:
        if factory_name == name:
            netlist = factory()
            netlist.finalize()
            return netlist
    raise KeyError(name)


@functools.lru_cache(maxsize=None)
def _universe(name):
    netlist = _circuit(name)
    faults, _ = collapse_faults(netlist, full_fault_list(netlist))
    return tuple(faults)


@functools.lru_cache(maxsize=None)
def _patterns(name):
    netlist = _circuit(name)
    n_inputs = FaultSimulator(netlist, cache=None).view.num_inputs
    seed = FAULTSIM_NAMES.index(name)
    return tuple(
        tuple(p) for p in random_patterns(n_inputs, N_PATTERNS, seed=seed)
    )


def _simulate(name, engine, kernel, width, drop=True, jobs=None):
    netlist = _circuit(name)
    simulator = FaultSimulator(
        netlist, word_width=width, cache=None, kernel=kernel
    )
    patterns = [list(p) for p in _patterns(name)]
    faults = list(_universe(name))
    if engine == "supervised":
        engine = SupervisedPoolBackend(jobs=jobs)
    elif engine == "store":
        with tempfile.TemporaryDirectory(prefix="repro_conformance_") as root:
            backend = SupervisedPoolBackend(jobs=jobs, store=ShardStore(root))
            return simulator.simulate(patterns, faults, drop=drop, engine=backend)
    return simulator.simulate(patterns, faults, drop=drop, engine=engine)


@functools.lru_cache(maxsize=None)
def _oracle(name, drop=True):
    """Detection oracle: python-kernel PPSFP at the default 64-bit width."""
    return _simulate(name, "ppsfp", "python", WORD_WIDTH, drop=drop)


@functools.lru_cache(maxsize=None)
def _counter_reference(name, width, drop=True):
    """Counter oracle at ``width``: counters are width-dependent by design
    (chunk granularity), so kernel invariance is asserted per width."""
    return _simulate(name, "ppsfp", "python", width, drop=drop)


def _assert_detection(result, oracle):
    assert result.detected == oracle.detected
    assert result.undetected == oracle.undetected
    assert result.total_faults == oracle.total_faults
    assert result.coverage == oracle.coverage


def _assert_counters(result, reference):
    for counter in COUNTERS:
        assert result.stats[counter] == reference.stats[counter], counter
    assert result.patterns_simulated == reference.patterns_simulated


class TestKernelMatrix:
    """Single-process engines: full circuit × width × kernel cross product."""

    @pytest.mark.parametrize("name", FAULTSIM_NAMES)
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_ppsfp_matches_oracle(self, name, width, kernel):
        result = _simulate(name, "ppsfp", kernel, width)
        _assert_detection(result, _oracle(name))
        _assert_counters(result, _counter_reference(name, width))
        assert result.stats["kernel"] == kernel
        assert result.stats["good_passes"] == _counter_reference(
            name, width
        ).stats["good_passes"]

    @pytest.mark.parametrize("name", FAULTSIM_NAMES)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_serial_matches_oracle(self, name, kernel):
        """Serial grades one fault at a time — its counters are its own,
        but they too must be kernel-invariant, and its detection maps
        must equal the oracle's."""
        result = _simulate(name, "serial", kernel, WORD_WIDTH)
        _assert_detection(result, _oracle(name))
        reference = _simulate(name, "serial", "python", WORD_WIDTH)
        for counter in COUNTERS:
            assert result.stats[counter] == reference.stats[counter], counter

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("width", (1, 7, 333))
    def test_extreme_odd_widths(self, kernel, width):
        """No power-of-two (or lane-multiple) assumption anywhere."""
        result = _simulate("c17", "ppsfp", kernel, width)
        _assert_detection(result, _oracle("c17"))


class TestBackendMatrix:
    """Multiprocess engines: every backend × kernel, each run over a
    private shard store (``supervised``) or an explicit one (``store``)."""

    @pytest.mark.parametrize("name", FAULTSIM_NAMES)
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("engine", MULTIPROCESS)
    def test_multiprocess_matches_oracle(self, name, kernel, engine):
        result = _simulate(name, engine, kernel, 256, jobs=2)
        _assert_detection(result, _oracle(name))
        # Shards keep every image of a region together, so counters equal
        # in-process PPSFP on replicated rows too.
        _assert_counters(result, _counter_reference(name, 256))
        assert result.stats["kernel"] == kernel
        assert result.stats["word_width"] == 256

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("width", (64, 1024))
    @pytest.mark.parametrize("engine", MULTIPROCESS)
    def test_multiprocess_width_ladder(self, kernel, width, engine):
        name = "rand8"
        result = _simulate(name, engine, kernel, width, jobs=2)
        _assert_detection(result, _oracle(name))
        _assert_counters(result, _counter_reference(name, width))
        assert result.stats["word_width"] == width


class TestNoDropConformance:
    """Without fault dropping every pattern is graded for every fault —
    the heaviest counter path, exact across the full matrix."""

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("engine", BACKEND_NAMES + ("store",))
    def test_no_drop_matches_oracle(self, kernel, engine):
        name = "rand8"
        jobs = 2 if engine in MULTIPROCESS else None
        result = _simulate(name, engine, kernel, 256, drop=False, jobs=jobs)
        _assert_detection(result, _oracle(name, drop=False))
        if engine != "serial":
            _assert_counters(
                result, _counter_reference(name, 256, drop=False)
            )


class TestResponseConformance:
    """Good-machine responses (not just detections) are kernel-invariant."""

    @pytest.mark.parametrize("name", FAULTSIM_NAMES)
    @pytest.mark.parametrize("width", (64, 256))
    def test_responses_identical(self, name, width):
        from repro.sim.parallel import ParallelSimulator

        netlist = _circuit(name)
        patterns = [list(p) for p in _patterns(name)]
        python = ParallelSimulator(
            netlist, word_width=width, cache=None, kernel="python"
        )
        numpy = ParallelSimulator(
            netlist, word_width=width, cache=None, kernel="numpy"
        )
        assert numpy.responses(patterns) == python.responses(patterns)


class TestAtpgVectorConformance:
    """ATPG × fault-sim conformance: a cube any engine generates must
    detect its target fault under *every* simulation kernel.

    This closes the loop between the two halves of the toolkit — if the
    packed python kernel and the numpy uint64-lane kernel disagreed about
    an ATPG vector, either the engine's implication, a kernel's good
    pass, or the shared fault injection would be wrong.  Hypothesis drives structurally diverse
    netlists (muxes, dangling cones, redundant logic) through all four
    engines.
    """

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(netlist=small_netlists(), data=st.data())
    def test_every_cube_detects_under_every_kernel(self, netlist, data):
        import random as _random

        from repro.atpg.portfolio import ENGINE_NAMES, make_engine
        from repro.atpg.engine import x_fill

        netlist.finalize()
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        simulators = {
            kernel: FaultSimulator(netlist, cache=None, kernel=kernel)
            for kernel in KERNELS
        }
        fill_seed = data.draw(st.integers(min_value=0, max_value=2**16))
        for engine_name in ENGINE_NAMES:
            engine = make_engine(engine_name, netlist, backtrack_limit=256)
            for fault in faults:
                outcome = engine.generate(fault)
                if not outcome.detected:
                    continue
                rng = _random.Random(fill_seed)
                pattern = x_fill(outcome.cube, rng, "random")
                for kernel, simulator in simulators.items():
                    result = simulator.simulate([pattern], [fault], drop=True)
                    assert fault in result.detected, (
                        f"{engine_name} cube missed {fault.describe(netlist)} "
                        f"under kernel={kernel}"
                    )
