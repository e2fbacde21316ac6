"""Fault simulation engines.

Three stuck-at engines are provided, matching the E3 experiment:

* **serial** — one fault, one pattern, full-circuit re-evaluation.  The
  textbook baseline; trivially correct, painfully slow.
* **ppsfp** — Parallel-Pattern Single-Fault Propagation: ``word_width``
  patterns per machine word (64 by default, up to 4096), good machine
  simulated once per word.  Stuck-at faults are then graded by
  critical-path tracing over fanout-free regions (Waicukauski et al.,
  1985; HOPE, 1992): a fault's effect is evaluated up its region's tree
  path to the region root, and ANDed with ``obs(root)``, the patterns on
  which flipping the root reaches an observation point.  ``obs(root)``
  costs one event-wise cone propagation per root and word chunk, shared by
  every fault of the region.  With fault dropping this is the production
  algorithm every commercial fault simulator uses.

  Identical cores are graded once per class.  The netlist's
  :class:`~repro.circuit.compiled.CoreClasses` map puts isomorphic
  combinational components in one class, and the faults at the same local
  site, pin and value in a class's copies are one fault's *images*.  While
  a chunk has three or more live images of a fault, PPSFP traces it once,
  in the class's representative core, over wide good words: lane group
  *k*, bits ``[n*k, n*k + n)`` of an ``n``-pattern chunk, holds the words
  of the group's *k*-th copy.  The detection word is then split per image,
  giving each its first-detection index and its drop.  Everything else
  takes the flat trace: groups of one or two images (classes of two
  copies, sampled fault lists, groups that dropping thinned), single-copy
  classes, single-component netlists, and branch faults on flop pins whose
  driver lies in another component.  A supervised shard holds every image
  of its regions, so it grades them as the whole list would.
* **supervised** — the PPSFP kernel sharded across worker processes by a
  :class:`~repro.sim.supervisor.SupervisedPoolBackend` passed as
  ``engine`` (see :mod:`repro.sim.dispatch`): the
  collapsed fault list is partitioned deterministically, each worker runs
  cone-limited PPSFP against a shared good-machine response, and each
  shard's first-detection indices are merged back by position.

:meth:`FaultSimulator.failure_signature` propagates each fault's own cone.

Every engine reads the netlist's one
:class:`~repro.circuit.compiled.CompiledNetlist` — fanins, the evaluation
schedule, successor keys, readers and the fanout-free regions — the same
tables ATPG reads; only the per-gate evaluator closures are built here.

Every ``simulate*`` call fills :attr:`FaultSimResult.stats` with
per-run instrumentation (faults simulated, cone events propagated, packed
words evaluated, wall time) so benchmarks can report speedup and detect
load imbalance without re-deriving counters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from heapq import heappop, heappush
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .. import obs
from ..circuit.compiled import GATE_MASK, compiled, core_classes
from ..circuit.gates import compile_parallel_evaluator
from ..circuit.netlist import Netlist
from ..faults.model import OUTPUT_PIN, StuckAtFault
from . import goodcache
from .parallel import WORD_WIDTH, ParallelSimulator

#: ``stats`` keys every engine publishes as ``faultsim.*`` counters.
#: A key a run's stats lack (the good-response time of an in-process
#: run) is skipped.
_COUNTED_STATS = (
    "faults_simulated",
    "events_propagated",
    "words_evaluated",
    "good_passes",
    "good_cache_hits",
    "good_cache_misses",
    "good_cache_evictions",
    "good_response_s",
    "wall_time_s",
)

#: Fewest images a group of identical-core faults is graded class-wide
#: with (:meth:`FaultSimulator._grade_groups`); smaller groups take the
#: flat trace.  Every shard holds all images of its regions, so groups of
#: two arise only in classes of two copies and where dropping thinned a
#: group.  There, reading the lane words costs about what the second
#: trace saves: grading 1024 random patterns in process on mac4_x2 and
#: mac4_x16 took the same wall time, within noise, at two and at three.
_MIN_IMAGES = 3

#: Images of one fault in identical cores, (fault, copy) in copy order,
#: keyed by (class, local site, pin, value).
_Groups = Dict[Tuple[int, int, int, int], List[Tuple[StuckAtFault, int]]]


def unique_faults(faults: Iterable[StuckAtFault]) -> List[StuckAtFault]:
    """Requested fault universe, first-occurrence order, duplicates removed.

    Callers may hand the same fault twice (e.g. a subset assembled from
    several heuristics); counting it twice would understate coverage and
    list it twice among the survivors.
    """
    return list(dict.fromkeys(faults))


class _LaneWords(dict):
    """Wide good words of a class's representative core, built on first read.

    Lane group *k*, bits ``[n*k, n*k + n)`` of a representative gate's
    word, holds the ``n``-pattern good word of the same gate (by local id)
    in ``copies[k]``.  Patterns and copies are bitwise independent, so a
    fault traced in the representative over these words detects, lane
    group by lane group, its image in each copy.  Only the representative
    core's gates are ever read.
    """

    def __init__(self, good, n, copies, place):
        super().__init__()
        self.good, self.n, self.copies, self.place = good, n, copies, place

    def __missing__(self, gate: int) -> int:
        good, n, local = self.good, self.n, self.place[gate][1]
        word = 0
        for lane, gates in enumerate(self.copies):
            word |= good[gates[local]] << (n * lane)
        self[gate] = word
        return word


@dataclass
class FaultSimResult:
    """Outcome of a fault-simulation run.

    ``detected`` maps each detected fault to the index of the first pattern
    that caught it; ``undetected`` lists survivors.  ``coverage`` is the
    detected fraction of the simulated universe.  ``stats`` carries engine
    instrumentation: ``faults_simulated``, ``events_propagated``,
    ``words_evaluated``, ``wall_time_s``, and for the supervised backend a
    ``partitions`` list with the same counters per worker partition.
    """

    total_faults: int
    detected: Dict[StuckAtFault, int] = field(default_factory=dict)
    undetected: List[StuckAtFault] = field(default_factory=list)
    patterns_simulated: int = 0
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def coverage(self) -> float:
        if self.total_faults == 0:
            return 1.0
        return len(self.detected) / self.total_faults


class FaultSimulator:
    """Stuck-at fault simulation over one netlist.

    ``word_width`` sets the patterns packed per PPSFP word (default 64; see
    :data:`repro.sim.parallel.WORD_WIDTHS` for the characterized ladder) —
    results are bit-identical for every width.  ``cache`` configures the
    good-machine response cache (default: the process-wide cache; ``None``
    disables it).  ``kernel`` picks how good-machine passes pack and
    evaluate (see :data:`repro.sim.parallel.KERNELS`); fault cones always
    propagate on bigint words, so results are bit-identical for both.
    """

    def __init__(
        self,
        netlist: Netlist,
        word_width: int = WORD_WIDTH,
        cache: object = goodcache.USE_DEFAULT,
        kernel: str = "python",
    ):
        self.netlist = netlist
        self.parallel = ParallelSimulator(
            netlist, word_width=word_width, cache=cache, kernel=kernel
        )
        self.kernel = self.parallel.kernel
        self.word_width = self.parallel.word_width
        self.view = self.parallel.view
        self._compiled = tables = compiled(netlist)
        # Per-gate compiled evaluators for the scheduled gates: the
        # gate-type dispatch chain is resolved once here instead of once
        # per event.
        gates = netlist.gates
        self._evaluators: List[Optional[Callable]] = [None] * len(gates)
        for gate_index in tables.schedule:
            self._evaluators[gate_index] = compile_parallel_evaluator(
                gates[gate_index].type, len(tables.fanins[gate_index])
            )
        # A plain set, not a frozenset: ``dict.keys() & set`` iterates the
        # smaller operand, ``dict.keys() & frozenset`` the frozenset.
        self._reader_set = set(tables.readers)
        # Each reader's response-vector positions (one gate can drive
        # several POs / flop D pins).
        self._reader_positions: Dict[int, List[int]] = {}
        for position, reader in enumerate(tables.readers):
            self._reader_positions.setdefault(reader, []).append(position)
        # Response-vector position of each PO marker and flop gate (POs
        # then flop D's), where a branch fault on its pin is observed.
        self._direct_positions: Dict[int, int] = {}
        observation_gates = list(netlist.outputs) + list(netlist.flops)
        for position, gate_index in enumerate(observation_gates):
            self._direct_positions.setdefault(gate_index, position)
        # Identical cores, graded once per class (see _image_groups); built
        # here so set-up pays for it and forked workers inherit it.
        self._cores = core_classes(netlist)
        # Lifetime instrumentation counters; simulate* methods snapshot
        # deltas into FaultSimResult.stats.
        self._events_propagated = 0
        self._words_evaluated = 0

    def __reduce__(self):
        # Pickled only to a supervised worker where ``fork`` is missing:
        # the compiled evaluators are closures, so recompile, uncached.
        return (FaultSimulator, (self.netlist, self.word_width, None))

    def fault_region(self, fault: StuckAtFault) -> object:
        """Shard key of a stuck-at fault: the region it is traced in.

        Faults of one fanout-free region share its ``obs(root)`` within a
        chunk, so the supervised backend keeps each region in one shard.
        A root in an identical core is keyed by (class, local id), so one
        shard holds every image of its regions and grades them class-wide;
        any other root is its own key.
        """
        root = self._compiled.root[fault.gate]
        spot = self._cores.place[root]
        return root if spot is None else spot[:2]

    def _snapshot(self) -> Tuple[int, int, int, int, int, int, float]:
        parallel = self.parallel
        cache = parallel.cache
        return (
            self._events_propagated,
            self._words_evaluated,
            parallel.evaluations,
            parallel.cache_hits,
            parallel.cache_misses,
            cache.evictions if cache is not None else 0,
            time.perf_counter(),
        )

    def _fill_stats(
        self,
        result: FaultSimResult,
        engine: str,
        since: Tuple[int, int, int, int, int, int, float],
    ) -> FaultSimResult:
        events0, words0, passes0, hits0, misses0, evictions0, t0 = since
        parallel = self.parallel
        cache = parallel.cache
        good_passes = parallel.evaluations - passes0
        result.stats.update(
            engine=engine,
            kernel=self.kernel,
            word_width=self.word_width,
            faults_simulated=result.total_faults,
            events_propagated=self._events_propagated - events0,
            words_evaluated=self._words_evaluated
            - words0
            + good_passes * parallel.num_scheduled,
            good_passes=good_passes,
            good_cache_hits=parallel.cache_hits - hits0,
            good_cache_misses=parallel.cache_misses - misses0,
            good_cache_evictions=(
                (cache.evictions - evictions0) if cache is not None else 0
            ),
            wall_time_s=time.perf_counter() - t0,
        )
        return result

    def _publish(self, result: FaultSimResult) -> FaultSimResult:
        """Mirror a finished run's ``stats`` into the active observation.

        ``stats`` is the one record of a run: every engine (serial,
        ppsfp, supervised at any ``--jobs``) publishes the same keys from
        it, so a RunReport's ``faultsim.*`` counters match the stats
        dict bit for bit.
        """
        observation = obs.current()
        if observation is None:
            return result
        stats = result.stats
        observation.add_counters(
            "faultsim",
            {key: stats[key] for key in _COUNTED_STATS if key in stats},
        )
        observation.counter("faultsim.faults_detected").add(len(result.detected))
        observation.counter("faultsim.patterns_simulated").add(
            result.patterns_simulated
        )
        observation.counter("faultsim.runs").add(1)
        # Worker/supervisor telemetry events ride stats as shipped
        # payloads, stitched onto the observation's own monotonic timeline.
        for payload in stats.get("events", ()):
            observation.merge_events(payload)
        return result

    # ------------------------------------------------------------------
    # Core cone propagation
    # ------------------------------------------------------------------

    def _propagate(
        self,
        seeds: Dict[int, int],
        good: Sequence[int],
        mask: int,
    ) -> Dict[int, int]:
        """Propagate faulty words from ``seeds`` through fanout cones.

        ``seeds`` maps gate index -> faulty word (already different from the
        good word, or the propagation stops immediately).  Returns the map
        of all gates whose faulty word differs from good — and only those,
        which is what lets the readout visit just the faulty readers.
        """
        evaluators = self._evaluators
        fanins = self._compiled.fanins
        successors = self._compiled.successors
        faulty: Dict[int, int] = {}
        # Successor keys pop in topo order, so a popped gate is never
        # pushed again and ``enqueued`` only grows.
        heap: List[int] = []
        enqueued = set()
        events = 0

        for gate_index, word in seeds.items():
            if word != good[gate_index]:
                faulty[gate_index] = word
                for key in successors[gate_index]:
                    if key not in enqueued:
                        enqueued.add(key)
                        heappush(heap, key)

        while heap:
            gate_index = heappop(heap) & GATE_MASK
            inputs = [
                faulty[driver] if driver in faulty else good[driver]
                for driver in fanins[gate_index]
            ]
            word = evaluators[gate_index](inputs, mask)
            events += 1
            if word == good[gate_index]:
                faulty.pop(gate_index, None)
                continue
            if faulty.get(gate_index) == word:
                continue
            faulty[gate_index] = word
            for key in successors[gate_index]:
                if key not in enqueued:
                    enqueued.add(key)
                    heappush(heap, key)
        self._events_propagated += events
        self._words_evaluated += events
        return faulty

    def _stuck_at_seeds(
        self, fault: StuckAtFault, good: Sequence[int], mask: int
    ) -> Dict[int, int]:
        """Initial faulty words for a stuck-at fault."""
        forced = mask if fault.value else 0
        if fault.pin == OUTPUT_PIN:
            return {fault.gate: forced}
        if self._compiled.observes[fault.gate]:
            # Branch straight into an observation point: handled at readout.
            return {}
        inputs = [good[driver] for driver in self._compiled.fanins[fault.gate]]
        inputs[fault.pin] = forced
        self._words_evaluated += 1
        return {fault.gate: self._evaluators[fault.gate](inputs, mask)}

    def _reader_diff(self, good: Sequence[int], faulty: Dict[int, int]) -> int:
        """OR of faulty ^ good over the observation readers in ``faulty``.

        Exact because ``faulty`` holds only gates whose word differs from
        good: every other reader XORs to zero, so the cost follows the
        fault's cone, not the circuit's observation surface.
        """
        diff = 0
        for reader in faulty.keys() & self._reader_set:
            diff |= faulty[reader] ^ good[reader]
        return diff

    def _detection_word(
        self,
        fault: StuckAtFault,
        good: Sequence[int],
        faulty: Dict[int, int],
        mask: int,
    ) -> int:
        """Patterns (bitmask) on which the fault effect reaches observation.

        The full-cone readout of a fault's own propagation: what
        critical-path tracing (:meth:`_stuck_at_grader`) must equal.
        """
        diff = self._reader_diff(good, faulty) if faulty else 0
        # A branch fault feeding a PO or flop D pin is observed directly at
        # that single observation position, bypassing the stem value.
        if fault.pin != OUTPUT_PIN and self._compiled.observes[fault.gate]:
            forced = mask if fault.value else 0
            diff |= forced ^ good[self._compiled.fanins[fault.gate][fault.pin]]
        return diff & mask

    # ------------------------------------------------------------------
    # Stuck-at engines
    # ------------------------------------------------------------------

    def simulate(
        self,
        patterns: Sequence[Sequence[int]],
        faults: Iterable[StuckAtFault],
        drop: bool = True,
        engine: object = "ppsfp",
    ) -> FaultSimResult:
        """Run stuck-at fault simulation.

        With ``drop`` true (default) a fault leaves the active list at its
        first detection; otherwise every fault sees every pattern (useful
        for building diagnosis dictionaries and detection profiles).

        ``engine`` is ``"ppsfp"``, ``"serial"``, or any object with
        ``run(simulator, patterns, faults, drop)``, such as a
        :class:`~repro.sim.supervisor.SupervisedPoolBackend`, which owns
        every scheduling choice: worker count, fault sharding and shard
        stores.
        """
        if not isinstance(engine, str):
            runner = lambda: engine.run(self, patterns, faults, drop=drop)
            engine_name = type(engine).__name__
        elif engine == "ppsfp":
            runner = lambda: self._simulate_ppsfp(patterns, faults, drop)
            engine_name = engine
        elif engine == "serial":
            runner = lambda: self._simulate_serial(patterns, faults, drop)
            engine_name = engine
        else:
            raise ValueError(f"unknown engine {engine!r}")
        # Span only multi-pattern runs: ATPG phase 2 / compression call in
        # here once per candidate cube, and a span per cube would drown the
        # tree.  Counters still accumulate for every run via _publish.
        if obs.current() is not None and len(patterns) > 1:
            with obs.span("faultsim", engine=engine_name, patterns=len(patterns)):
                return self._publish(runner())
        return self._publish(runner())

    def good_response(self, patterns: Sequence[Sequence[int]]) -> List[List[int]]:
        """Good-machine words for every ``word_width`` chunk of ``patterns``.

        One word list per chunk (:meth:`ParallelSimulator.good_words`): the
        shared response the supervised backend computes once and hands to
        every worker partition.  Chunks already in the good-machine cache
        are served without a pass.
        """
        width = self.word_width
        return [
            self.parallel.good_words(patterns[start : start + width])
            for start in range(0, len(patterns), width)
        ]

    def _simulate_ppsfp(
        self,
        patterns: Optional[Sequence[Sequence[int]]],
        faults: Iterable[StuckAtFault],
        drop: bool,
        good_chunks: Optional[Sequence[List[int]]] = None,
        n_patterns: Optional[int] = None,
    ) -> FaultSimResult:
        """PPSFP: one good pass per chunk, then every active fault's trace.

        Steps ``word_width`` chunks over the patterns; each chunk's
        ``detect`` (:meth:`_stuck_at_grader`) and whatever it memoises live
        for that chunk only.  This loop alone owns dropping, the survivor
        list and first-detection indices, and it stops before a chunk
        nobody is left to grade.  ``patterns`` may be ``None`` when
        ``good_chunks`` and ``n_patterns`` are given — worker partitions
        never re-pack patterns, so the supervised backend hands workers the
        good response and not the pattern list.
        """
        since = self._snapshot()
        active = unique_faults(faults)
        result = FaultSimResult(total_faults=len(active))
        detected = result.detected
        total = len(patterns) if patterns is not None else n_patterns
        width = self.word_width
        groups = self._image_groups(active)
        for start in range(0, total, width):
            if drop and not active:
                break
            n = min(width, total - start)
            if good_chunks is not None:
                good = good_chunks[start // width]
            else:
                good = self.parallel.good_words(patterns[start : start + n])
            detect = self._stuck_at_grader(good, (1 << n) - 1)
            # Detection words of the images graded class-wide, by id: a
            # fault's own hash is a Python call.
            graded = self._grade_groups(groups, good, n, drop) if groups else {}
            survivors = []
            for fault in active:
                word = graded.get(id(fault)) if graded else None
                if word is None:
                    word = detect(fault)
                if word:
                    if fault not in detected:
                        detected[fault] = start + (word & -word).bit_length() - 1
                    if drop:
                        continue
                survivors.append(fault)
            active = survivors
            result.patterns_simulated = start + n
        result.undetected = [f for f in active if f not in detected]
        if not drop:
            result.patterns_simulated = total
        return self._fill_stats(result, "ppsfp", since)

    def _image_groups(self, faults: Sequence[StuckAtFault]) -> _Groups:
        """The faults whose images in identical cores are graded together.

        Groups ``faults`` by image key
        (:meth:`~repro.circuit.compiled.CoreClasses.images`), each image
        with its copy number, in copy order, and keeps the groups of at
        least ``_MIN_IMAGES`` images.
        """
        cores = self._cores
        # A group holds at most one image per copy of its class.
        if all(len(members) < _MIN_IMAGES for members in cores.classes):
            return {}
        place = cores.place
        return {
            key: sorted(
                ((fault, place[fault.gate][2]) for fault in images),
                key=itemgetter(1),
            )
            for key, images in cores.images(faults).items()
            if len(images) >= _MIN_IMAGES
        }

    def _grade_groups(
        self,
        groups: _Groups,
        good: Sequence[int],
        n: int,
        drop: bool,
    ) -> Dict[int, int]:
        """One chunk's detection words of every grouped image, by ``id``.

        Each group is graded once, as the fault at its site in the class's
        representative core (member 0), over :class:`_LaneWords` that hold
        one lane group per image: the group's copies, in copy order.
        Groups over the same copies share those words and their
        ``obs(root)`` memo.  The detection word is split per image.  With
        ``drop``, detected images leave their group, and a group left with
        fewer than ``_MIN_IMAGES`` leaves ``groups``: its images take the
        flat path from the next chunk on.
        """
        classes, place = self._cores.classes, self._cores.place
        graders: Dict[Tuple[int, Tuple[int, ...]], Callable] = {}
        graded: Dict[int, int] = {}
        mask = (1 << n) - 1
        for key, images in list(groups.items()):
            number, local, pin, value = key
            copies = tuple(copy for _, copy in images)
            detect = graders.get((number, copies))
            if detect is None:
                members = classes[number]
                detect = graders[number, copies] = self._stuck_at_grader(
                    _LaneWords(good, n, [members[copy] for copy in copies], place),
                    (1 << (n * len(copies))) - 1,
                )
            word = detect(StuckAtFault(classes[number][0][local], pin, value))
            for lane, (fault, _) in enumerate(images):
                graded[id(fault)] = (word >> (n * lane)) & mask
            if drop and word:
                live = [image for image in images if not graded[id(image[0])]]
                if len(live) >= _MIN_IMAGES:
                    groups[key] = live
                else:
                    del groups[key]
        return graded

    def _stuck_at_grader(
        self, good: Sequence[int], mask: int
    ) -> Callable[[StuckAtFault], int]:
        """One chunk's stuck-at detection by critical-path tracing.

        The returned ``detect(fault)`` evaluates the fault site, then each
        region parent up to the root with the faulty word on every pin
        that reads the child, using the compiled evaluators — so MUX
        selects, XOR side inputs and repeated pins need no rule of their
        own.  The effect at the root is ANDed with ``obs(root)``: exact,
        because a fanout-free region is a tree and patterns are bitwise
        independent.  ``obs(root)`` is memoised per root for this chunk
        and computed only once a fault's effect reaches that root.  Branch
        faults on PO and flop pins are read out directly.
        """
        evaluators = self._evaluators
        tables = self._compiled
        fanins, parent, parent_pins = tables.fanins, tables.parent, tables.pins
        observes_directly = tables.observes
        observability: Dict[int, int] = {}

        def detect(fault: StuckAtFault) -> int:
            forced = mask if fault.value else 0
            gate = fault.gate
            if fault.pin == OUTPUT_PIN:
                word = forced
                evaluated = 0
            elif observes_directly[gate]:
                return (forced ^ good[fanins[gate][fault.pin]]) & mask
            else:
                inputs = [good[driver] for driver in fanins[gate]]
                inputs[fault.pin] = forced
                word = evaluators[gate](inputs, mask)
                evaluated = 1
            diff = word ^ good[gate]
            consumer = parent[gate]
            while diff and consumer >= 0:
                inputs = [good[driver] for driver in fanins[consumer]]
                for pin in parent_pins[gate]:
                    inputs[pin] = word
                word = evaluators[consumer](inputs, mask)
                evaluated += 1
                gate = consumer
                diff = word ^ good[gate]
                consumer = parent[gate]
            self._words_evaluated += evaluated
            if not diff:
                return 0
            observed = observability.get(gate)
            if observed is None:
                observed = observability[gate] = self._observability(
                    gate, good, mask
                )
            return diff & observed

        return detect

    def _observability(self, root: int, good: Sequence[int], mask: int) -> int:
        """Patterns on which flipping ``root`` reaches an observation point."""
        if root in self._reader_set:
            return mask
        faulty = self._propagate({root: good[root] ^ mask}, good, mask)
        return self._reader_diff(good, faulty) & mask

    def _simulate_serial(
        self,
        patterns: Sequence[Sequence[int]],
        faults: Iterable[StuckAtFault],
        drop: bool,
    ) -> FaultSimResult:
        """Naive engine: full re-simulation per (fault, pattern)."""
        since = self._snapshot()
        active = unique_faults(faults)
        result = FaultSimResult(total_faults=len(active))
        for pattern_index, pattern in enumerate(patterns):
            if drop and not active:
                break
            input_words = [int(bit) for bit in pattern]
            good = self.parallel.evaluate_words(input_words, 1)
            survivors: List[StuckAtFault] = []
            for fault in active:
                if self._serial_detects(fault, input_words, good):
                    if fault not in result.detected:
                        result.detected[fault] = pattern_index
                    if not drop:
                        survivors.append(fault)
                else:
                    survivors.append(fault)
            active = survivors
            result.patterns_simulated = pattern_index + 1
        result.undetected = [f for f in active if f not in result.detected]
        if not drop:
            result.patterns_simulated = len(patterns)
        return self._fill_stats(result, "serial", since)

    def _serial_detects(
        self, fault: StuckAtFault, input_words: Sequence[int], good: Sequence[int]
    ) -> bool:
        """Full faulty-machine evaluation of one pattern (width-1 words)."""
        tables = self._compiled
        fanins, evaluators = tables.fanins, self._evaluators
        words: List[int] = [0] * len(fanins)
        self._words_evaluated += self.parallel.num_scheduled
        forced = 1 if fault.value else 0
        site, stem = fault.gate, fault.pin == OUTPUT_PIN
        for position, gate_index in enumerate(self.view.input_gates):
            words[gate_index] = input_words[position] & 1
        if stem:
            words[site] = forced
        for gate_index in tables.schedule:
            if gate_index == site and stem:
                continue
            inputs = [words[driver] for driver in fanins[gate_index]]
            if gate_index == site:
                inputs[fault.pin] = forced
            words[gate_index] = evaluators[gate_index](inputs, 1)
        for reader in tables.readers:
            if words[reader] != good[reader]:
                return True
        if not stem and tables.observes[site]:
            return forced != good[fanins[site][fault.pin]]
        return False

    # ------------------------------------------------------------------
    # Per-fault failure signatures (diagnosis support)
    # ------------------------------------------------------------------

    def failure_signature(
        self, patterns: Sequence[Sequence[int]], fault: StuckAtFault
    ) -> Dict[int, Tuple[int, ...]]:
        """Exactly which outputs fail on which patterns for one fault.

        Returns ``{pattern_index: (failing output positions...)}`` over the
        view's response vector (POs then flop D's).  This is the signature
        fault dictionaries store and effect-cause diagnosis compares.
        """
        signature: Dict[int, Tuple[int, ...]] = {}
        width = self.word_width
        for start in range(0, len(patterns), width):
            chunk = patterns[start : start + width]
            n = len(chunk)
            mask = (1 << n) - 1
            good = self.parallel.good_words(chunk)
            seeds = self._stuck_at_seeds(fault, good, mask)
            faulty = self._propagate(seeds, good, mask) if seeds else {}
            # Response position -> failing-pattern word, filled only for the
            # faulty readers (every other position reads zero).
            position_diff: Dict[int, int] = {}
            for reader in faulty.keys() & self._reader_set:
                delta = (faulty[reader] ^ good[reader]) & mask
                for position in self._reader_positions[reader]:
                    position_diff[position] = delta
            # Direct observation of branch-into-observation faults.
            if fault.pin != OUTPUT_PIN and self._compiled.observes[fault.gate]:
                forced = mask if fault.value else 0
                driver = self._compiled.fanins[fault.gate][fault.pin]
                position = self._direct_positions.get(fault.gate)
                if position is not None:
                    position_diff[position] = position_diff.get(position, 0) | (
                        (forced ^ good[driver]) & mask
                    )
            observed = sorted(
                (position, diff) for position, diff in position_diff.items() if diff
            )
            for bit in range(n):
                failing = tuple(
                    position for position, diff in observed if (diff >> bit) & 1
                )
                if failing:
                    signature[start + bit] = failing
        return signature
