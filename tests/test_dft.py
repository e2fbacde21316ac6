"""Hierarchical DFT: replication, wrapping, retargeting, scheduling, planning."""

import pytest

from repro.atpg.engine import run_atpg
from repro.circuit import benchmarks, generators
from repro.circuit.benchmarks import replicate_netlist
from repro.dft.degrade import BinningPolicy, yield_with_degradation
from repro.dft.planner import DftPlanInputs, build_plan, plan_comparison_table
from repro.dft.retarget import (
    broadcast_detects_all_cores,
    compare_flat_hierarchical,
    retarget_cost,
)
from repro.dft.schedule import schedule_report, schedule_tests, sequential_cycles
from repro.dft.wrapper import wrap_core
from repro.dft.schedule import TestTask as PowerTask
from repro.dft.degrade import test_and_degrade as screen_and_degrade
from repro.aichip.accelerator import AcceleratorConfig, TiledAccelerator
from repro.aichip.systolic import PEFault
from repro.scan.insertion import insert_scan
from repro.sim.logicsim import LogicSimulator


class TestReplication:
    def test_replica_counts(self, mac4):
        chip = replicate_netlist(mac4, 4)
        assert chip.num_gates == 4 * mac4.num_gates
        assert len(chip.inputs) == 4 * len(mac4.inputs)
        assert len(chip.flops) == 4 * len(mac4.flops)

    def test_replicas_compute_identically(self, adder4):
        chip = replicate_netlist(adder4, 2)
        sim = LogicSimulator(chip)
        pattern = [1, 0, 1, 0, 0, 1, 1, 0]
        response = sim.response(pattern + pattern)
        half = len(response) // 2
        assert response[:half] == response[half:]

    def test_invalid_count(self, adder4):
        with pytest.raises(ValueError):
            replicate_netlist(adder4, 0)


class TestWrapping:
    def test_boundary_cells_cover_ports(self, alu4):
        wrapped = wrap_core(alu4)
        assert len(wrapped.input_cells) == len(alu4.inputs)
        assert len(wrapped.output_cells) == len(alu4.outputs)

    def test_wrapped_adds_flops_only(self, alu4):
        wrapped = wrap_core(alu4)
        extra_flops = len(wrapped.netlist.flops) - len(alu4.flops)
        assert extra_flops == wrapped.n_boundary_cells

    def test_wrapped_function_preserved_through_boundary(self, adder4):
        """Ports -> boundary flops -> logic: two steps reproduce the add."""
        wrapped = wrap_core(adder4)
        sim = LogicSimulator(wrapped.netlist)
        pattern = [1, 1, 0, 0, 0, 1, 0, 0]  # a=3, b=2
        # Cycle 1 latches inputs into the boundary cells.
        step1 = sim.step(pattern, [0] * len(wrapped.netlist.flops))
        # Cycle 2's capture loads output boundary cells with the sum.
        step2 = sim.step(pattern, step1["state"])
        out_cells = [
            wrapped.netlist.flops.index(cell)
            for cell in wrapped.output_cells.values()
        ]
        observed = [step2["state"][i] for i in out_cells]
        names = list(wrapped.output_cells)
        total = sum(
            bit << int(name[name.index("[") + 1 : -1])
            for name, bit in zip(names, observed)
            if name.startswith("sum")
        )
        assert total == 5

    def test_wrapped_core_fully_scannable(self, alu4):
        wrapped = wrap_core(alu4)
        result = run_atpg(wrapped.netlist, seed=2)
        assert result.test_coverage > 0.97


class TestRetargeting:
    def test_broadcast_covers_every_replica(self, mac4):
        atpg = run_atpg(mac4, seed=1)
        chip = replicate_netlist(mac4, 3)
        assert broadcast_detects_all_cores(mac4, atpg.patterns, chip, 3)

    def test_broadcast_cheaper_than_serial(self, mac4):
        design = insert_scan(mac4, n_chains=2)
        atpg = run_atpg(mac4, seed=1)
        broadcast = retarget_cost(design, atpg, 8, "broadcast")
        serial = retarget_cost(design, atpg, 8, "serial")
        assert broadcast.stimulus_bits * 8 == serial.stimulus_bits
        assert broadcast.test_cycles * 8 == serial.test_cycles
        assert broadcast.data_volume_bits < serial.data_volume_bits

    def test_unknown_mode(self, mac4):
        design = insert_scan(mac4, n_chains=2)
        atpg = run_atpg(mac4, seed=1)
        with pytest.raises(ValueError):
            retarget_cost(design, atpg, 2, "osmosis")

    def test_flat_vs_hier_rows(self):
        core = generators.mac_unit(2)
        rows = compare_flat_hierarchical(core, core_counts=(1, 2), seed=1)
        assert len(rows) == 2
        one, two = rows
        assert two.flat_gates == 2 * one.flat_gates
        # Hierarchical effort is constant; flat grows.
        assert two.hier_patterns == one.hier_patterns
        assert two.flat_cpu_s >= one.flat_cpu_s * 0.5  # noisy but larger work
        assert two.broadcast_data_bits < two.serial_data_bits


class TestScheduling:
    def test_respects_power_budget(self):
        tasks = [PowerTask(f"t{i}", 100 + i, 1.0) for i in range(6)]
        schedule = schedule_tests(tasks, power_budget=2.0)
        for session in schedule.sessions:
            assert session.power <= 2.0

    def test_parallelism_beats_sequential(self):
        tasks = [PowerTask(f"t{i}", 100, 1.0) for i in range(8)]
        schedule = schedule_tests(tasks, power_budget=4.0)
        assert schedule.total_cycles < sequential_cycles(tasks)
        assert schedule.total_cycles == 200  # 8 tasks, 4 per session

    def test_oversized_task_rejected(self):
        with pytest.raises(ValueError):
            schedule_tests([PowerTask("hog", 10, 9.0)], power_budget=4.0)

    def test_report_fields(self):
        tasks = [PowerTask("a", 100, 1.0), PowerTask("b", 50, 1.0)]
        report = schedule_report(tasks, 2.0)
        assert report["sessions"] == 1
        assert report["scheduled_cycles"] == 100
        assert report["speedup_x"] == 1.5

    def test_negative_task_rejected(self):
        with pytest.raises(ValueError):
            PowerTask("bad", -1, 1.0)


class TestPlanner:
    def test_plan_report(self):
        plan = build_plan()
        assert plan.report["cores"] == 4
        assert plan.report["scheduled_cycles"] > 0
        assert plan.core_flops > 0

    def test_compression_reduces_cycles(self):
        slow = build_plan(inputs=DftPlanInputs(use_compression=False))
        fast = build_plan(inputs=DftPlanInputs(use_compression=True))
        assert (
            fast.report["logic_cycles_per_core"]
            < slow.report["logic_cycles_per_core"]
        )

    def test_comparison_table_has_four_corners(self):
        rows = plan_comparison_table()
        assert len(rows) == 4
        corners = {(row["compression"], row["broadcast"]) for row in rows}
        assert len(corners) == 4


class TestDegradation:
    def test_clean_chip_ships_full(self):
        chip = TiledAccelerator(AcceleratorConfig(n_cores=2))
        outcome = screen_and_degrade(chip)
        assert outcome.shippable
        assert outcome.bin_name == "full"
        assert outcome.compute_fraction == 1.0

    def test_faulty_chip_derates(self):
        faults = {0: [PEFault(2, 2, "dead")]}
        chip = TiledAccelerator(AcceleratorConfig(n_cores=2), core_pe_faults=faults)
        outcome = screen_and_degrade(chip)
        assert outcome.shippable
        assert outcome.bin_name != "full"
        assert outcome.compute_fraction < 1.0
        assert 0 in outcome.pes_mapped_out

    def test_hopeless_chip_scrapped(self):
        faults = {
            0: [PEFault(r, 0, "dead") for r in range(8)],
        }
        chip = TiledAccelerator(
            AcceleratorConfig(n_cores=1), core_pe_faults=faults
        )
        outcome = screen_and_degrade(chip)
        assert not outcome.shippable

    def test_yield_uplift(self):
        chips = []
        for index in range(6):
            faults = {}
            if index % 2 == 0:
                faults = {0: [PEFault(1, 1, "dead")]}
            chips.append(
                TiledAccelerator(
                    AcceleratorConfig(n_cores=2), core_pe_faults=faults
                )
            )
        report = yield_with_degradation(chips)
        assert report["yield_with_mapout"] >= report["yield_strict"]
        assert report["yield_strict"] == 0.5
        assert report["yield_with_mapout"] == 1.0
