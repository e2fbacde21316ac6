"""Volume diagnosis: from tester fail log to candidate defect location.

A die fails on the tester.  This example plays both sides:

1. the "silicon": a secretly injected stuck-at defect produces the fail
   log (failing pattern, failing output) under the production pattern set;
2. the "lab": effect-cause diagnosis traces the log back through the
   netlist and ranks suspects — and we check the real defect is in the
   top equivalence class;
3. the same exercise through an XOR compactor (compressed-scan tester),
   showing the resolution cost of lossy observation.

Run:  python examples/diagnose_failure.py
"""

import random

from repro.atpg.engine import run_atpg
from repro.circuit import generators
from repro.compression.compactor import CompactorConfig, XorCompactor
from repro.diagnosis.compactor_diag import CompactedDiagnoser
from repro.diagnosis.effect_cause import EffectCauseDiagnoser, inject_and_observe
from repro.faults.collapse import collapse_faults
from repro.faults.stuck_at import full_fault_list
from repro.scan.insertion import insert_scan, partition_faults
from repro.sim.faultsim import FaultSimulator


def main() -> None:
    netlist = generators.random_sequential(6, 90, 16, seed=9)
    design = insert_scan(netlist, n_chains=4)
    faults, _ = collapse_faults(design.netlist, full_fault_list(design.netlist))
    capture, _ = partition_faults(design, faults)
    atpg = run_atpg(design.netlist, faults=capture, seed=2)
    patterns = atpg.patterns
    simulator = FaultSimulator(design.netlist)
    print(
        f"production test: {len(patterns)} patterns, "
        f"{atpg.fault_coverage:.1%} coverage of {len(capture)} faults"
    )

    # 1. The defective die (pretend we can't see this).
    rng = random.Random(11)
    defect = rng.choice([f for f in capture])
    observed = inject_and_observe(simulator, patterns, defect)
    print(
        f"\ntester log: {len(observed)} (pattern, output) miscompares "
        f"across {len({p for p, _ in observed})} failing patterns"
    )

    # 2. Effect-cause diagnosis on raw responses.
    diagnoser = EffectCauseDiagnoser(design.netlist, capture)
    result = diagnoser.diagnose(patterns, observed)
    print(f"\nraw diagnosis ({result.candidates_considered} candidates traced):")
    for fault, score in result.suspects[:5]:
        marker = "  <-- actual defect" if fault == defect else ""
        print(f"  {score:.2f}  {fault.describe(design.netlist)}{marker}")
    print(f"defect in top suspect class: {defect in result.top_suspects}")

    # 3. The same die behind a 4:2 XOR compactor.
    compactor = XorCompactor(CompactorConfig(design.n_chains, 2, seed=3))
    compact_diag = CompactedDiagnoser(design, compactor, capture)
    compact_observed = compact_diag.compacted_signature(patterns, defect)
    ranked = compact_diag.diagnose(patterns, compact_observed)
    best = ranked[0][1] if ranked else 0.0
    top = [fault for fault, score in ranked if score == best]
    print(
        f"\ncompacted diagnosis: top class holds {len(top)} suspects; "
        f"defect inside: {defect in top}"
    )


if __name__ == "__main__":
    main()
