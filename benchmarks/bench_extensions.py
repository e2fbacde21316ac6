"""Extension experiments (X1–X4, X6): the tutorial's adjacent claims.

X1  Reseeding vs EDT capacity: a seed register caps care bits at the LFSR
    length; EDT's continuous injection scales with shift length.
X2  Weighted-random LBIST: COP-derived weights rescue wide-AND coverage
    that uniform pseudo-random patterns cannot reach.
X3  Low-power X-fill: adjacent (repeat) fill cuts shift power several-fold
    versus random fill at identical coverage.
X4  SIB access network: sparse instrument access is several times faster
    than a flat daisy chain; access-everything flips the winner.
X6  Test economics: the Williams-Brown DPPM table that justifies chasing
    the last coverage percent.
"""

from repro.atpg.engine import run_atpg
from repro.bist.lbist import StumpsController, run_weighted_lbist
from repro.circuit import generators
from repro.compression.decompressor import Decompressor, EdtConfig, encoding_probability
from repro.compression.reseeding import ReseedingCompressor, ReseedingConfig
from repro.dft.access import Instrument, access_schedule_comparison
from repro.dft.economics import coverage_dppm_table, poisson_yield
from repro.faults.collapse import collapse_faults
from repro.faults.stuck_at import full_fault_list
from repro.scan.insertion import insert_scan, partition_faults
from repro.scan.power import fill_policy_comparison

from .util import print_table, run_once


def _x1_reseeding():
    counts = [8, 16, 24, 32, 40, 56]
    reseed_config = ReseedingConfig(lfsr_length=32, n_chains=8, chain_length=16)
    edt_config = EdtConfig(n_channels=2, n_chains=8, chain_length=16)
    reseed = dict(encoding_probability(ReseedingCompressor(reseed_config), counts, seed=4))
    edt = dict(encoding_probability(Decompressor(edt_config), counts, seed=4))
    return [
        {"care_bits": c, "reseeding_32b_seed": reseed[c], "edt_2ch": edt[c]}
        for c in counts
    ]


def test_x1_reseeding_vs_edt(benchmark):
    rows = run_once(benchmark, _x1_reseeding)
    print_table("X1: reseeding vs EDT encoding capacity", rows)
    by_count = {row["care_bits"]: row for row in rows}
    assert by_count[8]["reseeding_32b_seed"] > 0.9
    assert by_count[40]["reseeding_32b_seed"] == 0.0  # > seed length
    assert by_count[40]["edt_2ch"] > by_count[40]["reseeding_32b_seed"]


def _x2_weighted():
    rows = []
    for width in (12, 14, 16):
        netlist = generators.wide_comparator(width)
        uniform = StumpsController(netlist).run(256).final_coverage
        weighted = run_weighted_lbist(netlist, 256, seed=2).final_coverage
        rows.append(
            {
                "circuit": netlist.name,
                "uniform_cov": uniform,
                "weighted_cov": weighted,
            }
        )
    return rows


def test_x2_weighted_lbist(benchmark):
    rows = run_once(benchmark, _x2_weighted)
    print_table("X2: uniform vs COP-weighted random LBIST", rows)
    for row in rows:
        assert row["weighted_cov"] > row["uniform_cov"]


def _x3_fill_power():
    netlist = generators.random_sequential(6, 150, 48, seed=9)
    design = insert_scan(netlist, n_chains=4)
    faults, _ = collapse_faults(design.netlist, full_fault_list(design.netlist))
    capture, _ = partition_faults(design, faults)
    atpg = run_atpg(
        design.netlist, faults=capture, random_batches=0, compact=False, seed=2
    )
    reports = fill_policy_comparison(design, atpg.cubes, seed=1)
    return [
        {
            "fill": mode,
            "total_wtm": report.total_wtm,
            "peak_wtm": report.peak_wtm,
        }
        for mode, report in reports.items()
    ]


def test_x3_low_power_fill(benchmark):
    rows = run_once(benchmark, _x3_fill_power)
    print_table("X3: shift power by X-fill policy", rows)
    by_mode = {row["fill"]: row for row in rows}
    assert by_mode["repeat"]["total_wtm"] < by_mode["random"]["total_wtm"]
    # Chain-aware adjacent fill is the real low-power policy: several-fold.
    assert by_mode["adjacent_chain"]["total_wtm"] < by_mode["random"]["total_wtm"] / 2


def _x4_access():
    instruments = [Instrument(f"mbist{k}", 64) for k in range(32)]
    sparse = [[f"mbist{k}"] for k in (0, 7, 19, 31)]
    dense = [[i.name for i in instruments]]
    return (
        access_schedule_comparison(instruments, sparse),
        access_schedule_comparison(instruments, dense),
    )


def test_x4_sib_network(benchmark):
    sparse, dense = run_once(benchmark, _x4_access)
    print_table("X4: SIB network vs flat chain", [
        {"schedule": "sparse (4 singles)", **sparse},
        {"schedule": "dense (all at once)", **dense},
    ])
    assert sparse["sib_cycles"] < sparse["flat_cycles"]
    assert dense["sib_cycles"] > dense["flat_cycles"]


def _x6_economics():
    yield_fraction = poisson_yield(die_area_cm2=4.0, defect_density_per_cm2=0.1)
    table = coverage_dppm_table(yield_fraction)
    for row in table:
        row["yield"] = round(yield_fraction, 3)
    return table


def test_x6_dppm_table(benchmark):
    rows = run_once(benchmark, _x6_economics)
    print_table("X6: fault coverage vs shipped DPPM (Williams-Brown)", rows)
    values = [row["dppm"] for row in rows]
    assert values == sorted(values, reverse=True)
    assert values[-1] == 0.0
    assert values[0] > 10_000  # 90 % coverage ships >1 % defective parts
