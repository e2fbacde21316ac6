"""Command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main


class TestCommands:
    def test_circuits(self, capsys):
        assert main(["circuits"]) == 0
        out = capsys.readouterr().out
        assert "c17" in out and "mac4" in out

    def test_stats(self, capsys):
        assert main(["stats", "c17"]) == 0
        out = capsys.readouterr().out
        assert "collapsed" in out

    def test_atpg_and_faultsim_roundtrip(self, tmp_path, capsys):
        pattern_file = tmp_path / "c17.pat"
        assert main(["atpg", "c17", "-o", str(pattern_file), "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "test_coverage: 1.0" in out
        assert main(["faultsim", "c17", str(pattern_file)]) == 0
        out = capsys.readouterr().out
        assert "100.00%" in out

    @pytest.mark.parametrize("engine", ["podem", "dalg", "guided", "portfolio"])
    def test_atpg_engine_selection(self, tmp_path, capsys, engine):
        pattern_file = tmp_path / f"c17_{engine}.pat"
        assert (
            main(
                [
                    "atpg",
                    "c17",
                    "-o",
                    str(pattern_file),
                    "--seed",
                    "3",
                    "--engine",
                    engine,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "test_coverage: 1.0" in out
        assert f"engine: {engine}" in out

    def test_atpg_rejects_unknown_engine(self, capsys):
        with pytest.raises(SystemExit):
            main(["atpg", "c17", "--engine", "quantum"])

    def test_atpg_on_bench_file(self, tmp_path, capsys):
        from repro.circuit.bench import save_bench
        from repro.circuit import benchmarks

        path = tmp_path / "c.bench"
        save_bench(benchmarks.c17(), str(path))
        assert main(["atpg", str(path)]) == 0
        assert "fault_coverage" in capsys.readouterr().out

    def test_atpg_on_verilog_file(self, tmp_path, capsys):
        from repro.circuit.verilog import save_verilog
        from repro.circuit import benchmarks

        path = tmp_path / "c.v"
        save_verilog(benchmarks.c17(), str(path))
        assert main(["atpg", str(path)]) == 0
        assert "fault_coverage" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command",
        [["atpg", "c17"], ["faultsim", "c17", "c17.pat"], ["lbist", "c17"]],
    )
    def test_kernel_flag_removed(self, command, capsys):
        """The good-pass kernel is chosen on ``FaultSimulator`` only."""
        with pytest.raises(SystemExit) as excinfo:
            main(command + ["--kernel", "numpy"])
        assert excinfo.value.code == 2
        assert "--kernel" in capsys.readouterr().err

    def test_lbist(self, capsys):
        assert main(["lbist", "par16", "--patterns", "128"]) == 0
        out = capsys.readouterr().out
        assert "final coverage" in out
        assert "signature" in out

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_lbist_rejects_nonpositive_patterns(self, count, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["lbist", "--circuit", "c17", "--patterns", count])
        assert excinfo.value.code == 2
        assert "--patterns" in capsys.readouterr().err

    def test_mbist(self, capsys):
        assert main(["mbist", "--cells", "32", "--samples", "5"]) == 0
        out = capsys.readouterr().out
        assert "March C-" in out

    @pytest.mark.parametrize(
        "flags",
        [
            ["--cells", "1"],     # no aggressor cell for coupling faults
            ["--cells", "0"],
            ["--samples", "0"],   # an all-1.00 matrix from zero faults
            ["--samples", "-1"],
            ["--seed", "-1"],
        ],
    )
    def test_mbist_bad_sizes_exit_two(self, flags, capsys):
        try:
            code = main(["mbist"] + flags)
        except SystemExit as exc:  # argparse-level rejections
            code = exc.code
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_mbist_independent_of_hash_seed(self):
        """The E7 fault populations must not follow ``str`` hash salting."""
        src = str(Path(repro.__file__).resolve().parents[1])
        outputs = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable, "-m", "repro", "mbist", "--cells", "16",
                 "--samples", "8"],
                capture_output=True, text=True, env=env, check=True,
            )
            outputs.add(run.stdout)
        assert len(outputs) == 1

    def test_plan(self, capsys):
        assert main(["plan"]) == 0
        assert "scheduled_cycles" in capsys.readouterr().out

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestBadArguments:
    """Bad circuits and pattern files exit 2 with one ``error:`` line."""

    @pytest.mark.parametrize(
        "command",
        [
            ["stats", "nope"],
            ["atpg", "mac4_x0"],
            ["stats", "missing.bench"],
            ["fsim", "c17", "missing.pat"],
        ],
    )
    def test_bad_circuit_or_file_exits_two(self, command, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(command) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_foreign_pattern_file_exits_two(self, tmp_path, capsys):
        pattern_file = str(tmp_path / "add8.pat")
        assert main(["atpg", "add8", "-o", pattern_file]) == 0
        assert main(["atpg", "cmp16", "-o", str(tmp_path / "cmp16.pat")]) == 0
        capsys.readouterr()
        assert main(["fsim", "cmp16", pattern_file]) == 2
        assert "input 8 is 'b[0]' but cmp16 input 8 is 'a[8]'" in capsys.readouterr().err
        assert main(["fsim", "cmp16", str(tmp_path / "cmp16.pat")]) == 0

    def test_permuted_inputs_exit_two(self, tmp_path, capsys):
        own = tmp_path / "c17.pat"
        assert main(["atpg", "c17", "-o", str(own)]) == 0
        permuted = tmp_path / "permuted.pat"
        permuted.write_text(
            own.read_text().replace("inputs 1 2 3 6 7", "inputs 7 6 3 2 1")
        )
        capsys.readouterr()
        assert main(["fsim", "c17", str(permuted)]) == 2
        assert "input 0 is '7' but c17 input 0 is '1'" in capsys.readouterr().err
        assert main(["fsim", "c17", str(own)]) == 0


class TestSupervisedCampaigns:
    @pytest.fixture()
    def pattern_file(self, tmp_path, capsys):
        path = tmp_path / "alu4.pat"
        assert main(["atpg", "alu4", "-o", str(path), "--seed", "3"]) == 0
        capsys.readouterr()
        return str(path)

    def test_supervised_backend_roundtrip(self, pattern_file, capsys):
        code = main(
            ["faultsim", "alu4", pattern_file,
             "--backend", "supervised", "--jobs", "2", "--partitions", "4"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "[supervised" in out and "4 partitions" in out

    def test_partitions_flag_threads_through_pool(self, pattern_file, capsys):
        code = main(
            ["faultsim", "alu4", pattern_file,
             "--backend", "supervised", "--jobs", "2", "--partitions", "3"]
        )
        assert code == 0
        assert "3 partitions" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags",
        [
            ["--backend", "pool"],             # the pool backend is gone
            ["--resume", "campaign.jsonl"],    # resume is --store DIR now
        ],
    )
    def test_removed_flags_exit_two(self, pattern_file, flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["faultsim", "alu4", pattern_file] + flags)
        assert excinfo.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--partitions", "0"],
            ["--jobs", "-2"],
            ["--seed", "-1"],
            ["--timeout", "0"],
            ["--retries", "-1"],
        ],
    )
    def test_invalid_arguments_rejected(self, pattern_file, flags):
        with pytest.raises(SystemExit):
            main(["faultsim", "alu4", pattern_file] + flags)

    def test_chaos_recovered_exit_zero(self, pattern_file, capsys):
        code = main(
            ["faultsim", "alu4", pattern_file, "--jobs", "2",
             "--chaos", "1:crash"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "upgraded to supervised" in out
        assert "recovered: 1 retries, 1 worker crashes" in out

    def test_chaos_unrecoverable_exit_partial(self, pattern_file, capsys):
        code = main(
            ["faultsim", "alu4", pattern_file, "--jobs", "2",
             "--retries", "0", "--chaos", "0:crash,crash"]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert "LOWER BOUND" in captured.err

    def test_resume_skips_stored_partitions(self, pattern_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        flags = ["--jobs", "2", "--partitions", "4", "--store", store,
                 "--runner-id", "r0"]
        first = main(["faultsim", "alu4", pattern_file] + flags)
        first_out = capsys.readouterr().out
        assert first == 0
        # The same runner re-run against its finished store: nothing left
        # to grade, the merge is read back from the store.
        second = main(["faultsim", "alu4", pattern_file] + flags)
        second_out = capsys.readouterr().out
        assert second == 5
        assert "[r0]: 0/4 shards graded by this runner" in second_out
        assert first_out.splitlines()[1] == second_out.splitlines()[1]  # coverage

    def test_resume_wrong_campaign_exits_two(self, pattern_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(
            ["faultsim", "alu4", pattern_file, "--store", store,
             "--runner-id", "r0"]
        ) == 0
        capsys.readouterr()
        code = main(
            ["faultsim", "alu4", pattern_file, "--seed", "9",
             "--store", store, "--runner-id", "r0"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err and "seed" in captured.err

    def test_atpg_store_rerun_grades_nothing(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        runs = []
        for name in ("first.pat", "second.pat"):
            output = str(tmp_path / name)
            assert main(
                ["atpg", "alu4", "--store", store, "--jobs", "2", "-o", output]
            ) == 0
            runs.append((capsys.readouterr().out, open(output).read()))
        (first_out, first_patterns), (second_out, second_patterns) = runs
        assert "fault_coverage" in first_out
        assert f"store {store}: 0 batch shards graded" not in first_out
        assert f"store {store}: 0 batch shards graded by this run" in second_out
        assert second_patterns == first_patterns
        assert sorted(os.listdir(store))[0] == "pass-000"

    def test_store_first_runner_grades_everything(self, pattern_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        code = main(
            ["faultsim", "alu4", pattern_file, "--jobs", "2",
             "--partitions", "4", "--store", store, "--runner-id", "r0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "store" in out and "[r0]: 4/4 shards graded by this runner" in out

    def test_store_second_runner_exits_peers(self, pattern_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(
            ["faultsim", "alu4", pattern_file, "--jobs", "2",
             "--partitions", "4", "--store", store, "--runner-id", "r0"]
        ) == 0
        first_out = capsys.readouterr().out
        code = main(
            ["faultsim", "alu4", pattern_file, "--jobs", "2",
             "--partitions", "4", "--store", store, "--runner-id", "r1"]
        )
        second_out = capsys.readouterr().out
        assert code == 5
        assert "finished by peer runners" in second_out
        assert "[r1]: 0/4 shards graded by this runner" in second_out
        # The merged result is real: coverage line identical to run one.
        assert first_out.splitlines()[1] == second_out.splitlines()[1]

    def test_store_wrong_campaign_exits_two(self, pattern_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(
            ["faultsim", "alu4", pattern_file, "--store", store]
        ) == 0
        capsys.readouterr()
        code = main(
            ["faultsim", "alu4", pattern_file, "--seed", "9", "--store", store]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--runner-id", "r0"],                      # runner without store
            ["--host-chaos", "r0:kill"],                # chaos without store
            ["--store", "S", "--runner-id", "bad id"],  # invalid runner name
            ["--store", "S", "--lease-s", "0"],
            ["--store", "S", "--host-chaos", "r0:frobnicate"],
            ["--store", "S", "--host-chaos", "r0"],     # missing mode
            ["--store", "S", "--lease-s", "inf"],       # never stolen
            ["--timeout", "nan"],                       # never trips
        ],
    )
    def test_store_invalid_arguments_exit_two(
        self, pattern_file, tmp_path, flags, capsys
    ):
        flags = [str(tmp_path / "store") if f == "S" else f for f in flags]
        try:
            code = main(["faultsim", "alu4", pattern_file] + flags)
        except SystemExit as exc:  # argparse-level rejections
            code = exc.code
        capsys.readouterr()
        assert code == 2

    def test_obs_tail_renders_store_ownership(self, pattern_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(
            ["faultsim", "alu4", pattern_file, "--jobs", "2",
             "--partitions", "4", "--store", store, "--runner-id", "r0"]
        ) == 0
        capsys.readouterr()
        assert main(["obs", "tail", store]) == 0
        out = capsys.readouterr().out
        assert "partitions 4/4 done" in out
        assert "r0: 4 published" in out
        assert "campaign complete" in out

    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        import repro.cli as cli

        def interrupted(_args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_cmd_plan", interrupted)
        assert main(["plan"]) == 130
        assert "--store" in capsys.readouterr().err
