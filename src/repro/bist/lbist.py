"""Logic BIST — the STUMPS architecture.

Self-Test Using MISR and Parallel Shift-register sequence generator:
a PRPG (pseudo-random pattern generator LFSR + phase shifter) feeds the
scan chains, the circuit captures, and a MISR hashes the unloaded
responses into a signature compared against the fault-free reference.

The simulation here runs at the *pattern* level: PRPG-generated full-scan
patterns are fault-simulated to obtain coverage (E2/E6 curves), and the
good-machine signature is computed so tests can validate signature
mismatch detection end to end.

Both run on packed words from end to end.  The PRPG's output stream is
generated once per call, every scan cell's column of patterns is a shift
of it, and the phase shifter XORs columns, so the pattern set arrives
packed (:class:`~repro.sim.parallel.PackedPatterns`).  The MISR is
linear, so the signature is computed from the packed good responses:
each pattern's contribution to the register is a fixed linear map of its
response bits, and only the per-pattern register update runs serially.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .. import obs
from ..circuit.netlist import Netlist
from ..compression.lfsr import LFSR, PRIMITIVE_TAPS, PhaseShifter
from ..compression.misr import MISR
from ..faults.collapse import collapse_faults
from ..faults.model import StuckAtFault
from ..faults.stuck_at import full_fault_list
from ..sim.faultsim import FaultSimulator, unique_faults
from ..sim.parallel import WORD_WIDTH, PackedPatterns


@dataclass
class LbistConfig:
    """STUMPS geometry."""

    prpg_length: int = 24
    misr_length: int = 24
    phase_taps: int = 3
    seed: int = 1

    def validate(self) -> None:
        """Raise ``ValueError`` naming the first unusable field."""
        for name in ("prpg_length", "misr_length"):
            length = getattr(self, name)
            if length not in PRIMITIVE_TAPS:
                raise ValueError(
                    f"{name} must be one of {sorted(PRIMITIVE_TAPS)}, got {length!r}"
                )
        if self.phase_taps < 1:
            raise ValueError(f"phase_taps must be >= 1, got {self.phase_taps!r}")


@dataclass
class LbistResult:
    """Coverage curve and signature from one LBIST session."""

    patterns_applied: int = 0
    coverage_points: List[Dict[str, float]] = field(default_factory=list)
    final_coverage: float = 0.0
    signature: int = 0
    total_faults: int = 0
    undetected: List[StuckAtFault] = field(default_factory=list)


class StumpsController:
    """PRPG + MISR wrapped around one netlist's full-scan view.

    ``word_width`` sets the patterns packed per simulation word for both
    the coverage grading and the signature pass.  The simulator runs
    uncached: the signature pass re-evaluates each chunk's good machine
    instead of keying a cache lookup on every input word.  The
    configuration is validated here, before any pattern is graded.
    """

    def __init__(
        self,
        netlist: Netlist,
        config: Optional[LbistConfig] = None,
        word_width: int = WORD_WIDTH,
    ):
        self.config = config or LbistConfig()
        self.config.validate()
        netlist.finalize()
        self.netlist = netlist
        self.simulator = FaultSimulator(netlist, word_width=word_width, cache=None)
        n_inputs = self.simulator.view.num_inputs
        self._prpg = LFSR(self.config.prpg_length, seed=self.config.seed | 1)
        self._shifter = PhaseShifter(
            self.config.prpg_length,
            n_inputs,
            taps_per_output=self.config.phase_taps,
            seed=self.config.seed + 3,
        )

    def generate_patterns(self, count: int) -> PackedPatterns:
        """``count`` PRPG patterns over the full-scan view inputs, packed.

        The PRPG steps once per pattern and shifts right, so cell *b* at
        pattern *t* is bit 0 of the state after ``t + b + 1`` steps: one
        run of ``count + length - 1`` steps yields every cell's column as
        a shift of the output stream.  The PRPG is left where ``count``
        steps leave it, so consecutive calls continue the stream.
        """
        length = self.config.prpg_length
        stream = _lfsr_stream(self._prpg, count + length)
        self._prpg.state = (stream >> count) & ((1 << length) - 1)
        mask = (1 << count) - 1
        cells = [(stream >> (1 + bit)) & mask for bit in range(length)]
        return PackedPatterns(tuple(self._shifter.xor(cells)), count)

    def good_signature(self, patterns: Sequence[Sequence[int]]) -> int:
        """MISR signature of the fault-free responses.

        Each pattern's response is folded into MISR-width slices, slice
        *k* of *K* absorbed *k*-th.  The MISR step ``A`` is linear, so
        after a pattern the state is ``A^K s ^ c`` where ``c`` XORs
        ``A^(K-k) e_j`` over the response bits that read 1 (bit *j* of
        slice *k*).  ``c`` is built for every pattern at once from the
        packed reader words; only the ``A^K`` update runs per pattern,
        a byte-table lookup.
        """
        count = len(patterns)
        if not count:
            return 0
        width = self.config.misr_length
        readers = self.simulator.view.output_readers
        step = self.simulator.word_width
        responses = [0] * len(readers)
        for chunk, good in enumerate(self.simulator.good_response(patterns)):
            for position, reader in enumerate(readers):
                responses[position] |= good[reader] << (chunk * step)
        slices = -(-len(readers) // width)
        # powers[m][j] = A^m e_j, from the reference MISR's own step.
        powers = [[1 << j for j in range(width)]]
        for _ in range(slices):
            powers.append([_misr_step(width, state) for state in powers[-1]])
        # Signature bit i's word: bit t set when c_t has bit i set.
        columns = [0] * width
        for position, response in enumerate(responses):
            k, j = divmod(position, width)
            image = powers[slices - k][j]
            for bit in range(width):
                if (image >> bit) & 1:
                    columns[bit] ^= response
        rows = [format(column, f"0{count}b")[::-1] for column in reversed(columns)]
        tables = _byte_tables(powers[slices])
        state = 0
        for bits in zip(*rows):
            update = int("".join(bits), 2)
            for shift, table in tables:
                update ^= table[(state >> shift) & 0xFF]
            state = update
        return state

    def run(
        self,
        n_patterns: int,
        faults: Optional[Sequence[StuckAtFault]] = None,
        checkpoint_every: int = 64,
    ) -> LbistResult:
        """Apply ``n_patterns`` PRPG patterns, recording the coverage curve."""
        _check_pattern_count(n_patterns)
        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        if faults is None:
            faults, _ = collapse_faults(self.netlist, full_fault_list(self.netlist))
        with obs.span("coverage_loop"):
            patterns = self.generate_patterns(n_patterns)
            result = _grade_pattern_set(
                self.simulator, patterns, faults, checkpoint_every
            )
        with obs.span("signature"):
            result.signature = self.good_signature(patterns)
        _publish_lbist(result)
        return result


def _lfsr_stream(lfsr: LFSR, n_bits: int) -> int:
    """Bit 0 of ``lfsr``'s state after 0 .. ``n_bits - 1`` steps, one word.

    Bit *i* of the state is the stream's bit *i* ahead, and the feedback
    makes stream bit ``m`` the XOR of bits ``m - tap`` over the taps, so
    the word grows ``min(taps)`` bits at a time without stepping.
    ``lfsr`` itself is not advanced.
    """
    stream, known = lfsr.state, lfsr.length
    block = min(lfsr.taps)
    mask = (1 << block) - 1
    while known < n_bits:
        new = 0
        for tap in lfsr.taps:
            new ^= (stream >> (known - tap)) & mask
        stream |= new << known
        known += block
    return stream & ((1 << n_bits) - 1)


def _misr_step(length: int, state: int) -> int:
    """One zero-input :class:`MISR` step from ``state``."""
    misr = MISR(length, seed=state)
    misr.absorb(())
    return misr.state


def _byte_tables(images: Sequence[int]):
    """``(shift, table)`` pairs evaluating the linear map with ``images``.

    ``images[j]`` is the image of basis vector ``e_j``; ``table[v]`` is
    the image of byte ``v`` placed at bit ``shift``.
    """
    tables = []
    for shift in range(0, len(images), 8):
        basis = images[shift : shift + 8]
        table = [0] * (1 << len(basis))
        for value in range(1, len(table)):
            low = value & -value
            table[value] = table[value ^ low] ^ basis[low.bit_length() - 1]
        tables.append((shift, table))
    return tables


def _check_pattern_count(n_patterns: int) -> None:
    if n_patterns < 0:
        raise ValueError(f"n_patterns must be >= 0, got {n_patterns}")


def _grade_pattern_set(
    simulator: FaultSimulator,
    patterns: Sequence[Sequence[int]],
    faults: Sequence[StuckAtFault],
    checkpoint_every: int,
) -> LbistResult:
    """Grade ``patterns`` in one drop-mode call.

    A fault's first-detection index is the pattern that a
    checkpoint-by-checkpoint loop would credit it to, so the coverage at
    each checkpoint is the count of first detections below it.
    """
    faults = unique_faults(faults)
    graded = simulator.simulate(patterns, faults, drop=True)
    firsts = sorted(graded.detected.values())
    n_patterns = len(patterns)

    def coverage(applied: int) -> float:
        return bisect_left(firsts, applied) / len(faults) if faults else 1.0

    result = LbistResult(
        patterns_applied=n_patterns,
        total_faults=len(faults),
        final_coverage=coverage(n_patterns),
        undetected=graded.undetected,
    )
    for start in range(0, n_patterns, checkpoint_every):
        applied = min(start + checkpoint_every, n_patterns)
        result.coverage_points.append(
            {"patterns": float(applied), "coverage": coverage(applied)}
        )
    return result


def _publish_lbist(result: LbistResult) -> None:
    """Mirror an :class:`LbistResult` into the active observation."""
    observation = obs.current()
    if observation is None:
        return
    observation.add_counters(
        "lbist",
        {
            "patterns_applied": result.patterns_applied,
            "faults": result.total_faults,
            "faults_detected": result.total_faults - len(result.undetected),
        },
    )
    obs.set_gauge("lbist.final_coverage", result.final_coverage)


def _cop_hardness(netlist: Netlist, overrides: dict) -> float:
    """Continuous testability objective: Σ −log10(detection probability).

    Unlike a thresholded hard-line count, this objective moves when a
    *single* input of a wide conjunction is biased, so greedy weight
    selection can climb conjunctive requirements one literal at a time.
    """
    import math

    from ..circuit.gates import GateType
    from .cop import compute_cop

    measures = compute_cop(netlist, cp_override=overrides)
    floor = 1e-9
    total = 0.0
    for gate in netlist.gates:
        if gate.type in (GateType.INPUT, GateType.OUTPUT) or gate.is_sequential:
            continue
        worse = min(
            measures.detection_probability(gate.index, 0),
            measures.detection_probability(gate.index, 1),
        )
        total += -math.log10(max(worse, floor))
    return total


def derive_input_weights(netlist: Netlist) -> List[float]:
    """Per-input 1-probabilities for weighted-random LBIST.

    Greedy iterative selection on the continuous COP hardness objective:
    each round tries biasing every still-unassigned input toward 0 (0.25)
    and toward 1 (0.75), with earlier choices already applied, and commits
    the single best move; rounds stop when no move improves by 0.05.
    Inputs never chosen stay at 0.5.
    """
    from ..sim.view import CombinationalView

    netlist.finalize()
    view = CombinationalView(netlist)
    inputs = list(view.input_gates)
    overrides: dict = {}
    chosen: dict = {}

    current = _cop_hardness(netlist, overrides)
    for _ in range(len(inputs)):
        best = None  # (gate, weight, objective)
        for gate in inputs:
            if gate in chosen:
                continue
            for weight in (0.25, 0.75):
                trial = dict(overrides)
                trial[gate] = weight
                objective = _cop_hardness(netlist, trial)
                if objective < current - 0.05 and (
                    best is None or objective < best[2]
                ):
                    best = (gate, weight, objective)
        if best is None:
            break
        gate, weight, objective = best
        overrides[gate] = weight
        chosen[gate] = weight
        current = objective

    return [chosen.get(gate, 0.5) for gate in inputs]


def run_weighted_lbist(
    netlist: Netlist,
    n_patterns: int,
    seed: int = 1,
) -> LbistResult:
    """LBIST with COP-derived weighted-random patterns, graded over the
    collapsed fault list.

    Real implementations realize the weights with programmable weighting
    logic behind the PRPG; here the weighted source is modeled directly
    (the coverage comparison against uniform STUMPS is what matters).
    Patterns are drawn :data:`WORD_WIDTH` at a time, each draw seeded
    ``seed * 131 + start``, and the coverage curve has a checkpoint at
    the end of each draw.
    """
    _check_pattern_count(n_patterns)
    from ..atpg.random_gen import weighted_random_patterns

    netlist.finalize()
    faults, _ = collapse_faults(netlist, full_fault_list(netlist))
    simulator = FaultSimulator(netlist)
    with obs.span("derive_weights"):
        weights = derive_input_weights(netlist)
    with obs.span("coverage_loop"):
        patterns: List[List[int]] = []
        for applied in range(0, n_patterns, WORD_WIDTH):
            count = min(WORD_WIDTH, n_patterns - applied)
            patterns += weighted_random_patterns(
                len(weights), count, weights, seed=seed * 131 + applied
            )
        result = _grade_pattern_set(simulator, patterns, faults, WORD_WIDTH)
    _publish_lbist(result)
    return result


def coverage_curve(
    netlist: Netlist, n_patterns: int, checkpoint_every: int = 64
) -> List[Dict[str, float]]:
    """Convenience: just the (patterns, coverage) series for E2/E6 plots."""
    result = StumpsController(netlist).run(n_patterns, checkpoint_every=checkpoint_every)
    return result.coverage_points
