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

    @pytest.mark.parametrize(
        "flags",
        [
            ["--work-budget", "0"],
            ["--work-budget", "-1"],
            ["--work-budget", "1.5"],
            ["--work-budget", "abc"],
            ["--podem-budget", "1"],  # the wall-clock budget is gone
            # ATPG grades in process at the default width; scheduling
            # flags belong to `repro faultsim`.
            ["--store", "campaign"],
            ["--backend", "ppsfp"],
            ["--jobs", "2"],
            ["--partitions", "4"],
            ["--word-width", "256"],
        ],
    )
    def test_atpg_bad_work_budget_exits_two(self, flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["atpg", "c17"] + flags)
        assert excinfo.value.code == 2
        assert flags[0] in capsys.readouterr().err

    def test_atpg_work_budget_aborts_on_work(self, capsys):
        assert main(
            ["atpg", "rres12", "--engine", "portfolio", "--work-budget", "2000"]
        ) == 0
        out = capsys.readouterr().out
        assert "'podem': {'work':" in out

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


class TestStartup:
    """``repro --help`` loads no library module (ROADMAP item 5), so the
    parser's choices are literals held equal to the library's."""

    def test_parser_constants_match_the_library(self):
        from repro import cli
        from repro.atpg.portfolio import ENGINE_NAMES
        from repro.sim.dispatch import BACKEND_NAMES
        from repro.sim.parallel import WORD_WIDTH, WORD_WIDTHS

        assert cli.ENGINE_NAMES == ENGINE_NAMES
        assert cli.BACKEND_NAMES == BACKEND_NAMES
        assert (cli.WORD_WIDTH, cli.WORD_WIDTHS) == (WORD_WIDTH, WORD_WIDTHS)

    def test_help_loads_no_atpg_module(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        run = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "repro", "--help"],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert "usage: repro" in run.stdout
        # -X importtime logs "import time: self | cumulative | name".
        loaded = [
            line.rsplit("|", 1)[-1].strip()
            for line in run.stderr.splitlines()
            if line.startswith("import time:")
        ]
        assert "repro.cli" in loaded
        assert [name for name in loaded if name.startswith("repro.atpg")] == []


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

    @pytest.mark.parametrize("line", ["patterns", "expect", "expect 0Q", "patterns abc"])
    def test_malformed_pattern_file_exits_two(self, line, tmp_path, capsys):
        bad = tmp_path / "bad.pat"
        bad.write_text(f"circuit c17\npattern 0 01010\n{line}\n")
        assert main(["fsim", "c17", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 3: ") and err.count("\n") == 1

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
        flags = ["--jobs", "2", "--partitions", "4", "--store", store]
        first = main(["faultsim", "alu4", pattern_file] + flags)
        first_out = capsys.readouterr().out
        assert first == 0
        # Lose one published shard, as a kill before its publish would:
        # the re-run grades that shard alone.
        os.remove(os.path.join(store, "shards", "00002.result"))
        second = main(["faultsim", "alu4", pattern_file] + flags)
        second_out = capsys.readouterr().out
        assert second == 0
        assert f"store {store}: 1/4 shards graded here" in second_out
        assert first_out.splitlines()[1] == second_out.splitlines()[1]  # coverage

    def test_resume_wrong_campaign_exits_two(self, pattern_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["faultsim", "alu4", pattern_file, "--store", store]) == 0
        capsys.readouterr()
        code = main(
            ["faultsim", "alu4", pattern_file, "--seed", "9", "--store", store]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err and "seed" in captured.err

    def test_store_first_runner_grades_everything(self, pattern_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        code = main(
            ["faultsim", "alu4", pattern_file, "--jobs", "2",
             "--partitions", "4", "--store", store]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert f"store {store}: 4/4 shards graded here" in out

    def test_store_second_runner_exits_peers(self, pattern_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        flags = ["--jobs", "2", "--partitions", "4", "--store", store]
        assert main(["faultsim", "alu4", pattern_file] + flags) == 0
        first_out = capsys.readouterr().out
        # A second runner on the finished store: nothing left to grade,
        # the merge is read back from the store.
        code = main(["faultsim", "alu4", pattern_file] + flags)
        second_out = capsys.readouterr().out
        assert code == 5
        assert "campaign already complete in the store" in second_out
        assert f"store {store}: 0/4 shards graded here" in second_out
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
            # The lease and host-chaos flags are gone: a script still
            # passing them must fail loudly, not run unsupervised.
            ["--runner-id", "r0"],
            ["--host-chaos", "r0:kill"],
            ["--store", "S", "--runner-id", "bad id"],
            ["--store", "S", "--lease-s", "0"],
            ["--store", "S", "--host-chaos", "r0:frobnicate"],
            ["--store", "S", "--host-chaos", "r0"],
            ["--store", "S", "--lease-s", "inf"],
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

    @pytest.mark.parametrize(
        "case", ["tail-without-campaign", "store-is-a-file", "campaign-not-json"]
    )
    def test_bad_store_path_exits_two(self, pattern_file, tmp_path, case, capsys):
        store = tmp_path / "store"
        if case == "store-is-a-file":
            store.write_text("")
        else:
            store.mkdir()
        if case == "campaign-not-json":
            (store / "campaign.json").write_text("not json")
        if case == "tail-without-campaign":
            argv = ["obs", "tail", str(store)]
        else:
            argv = ["faultsim", "alu4", pattern_file, "--store", str(store)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(store) in err

    def test_obs_tail_renders_store_progress(self, pattern_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(
            ["faultsim", "alu4", pattern_file, "--jobs", "2",
             "--partitions", "4", "--store", store]
        ) == 0
        capsys.readouterr()
        assert main(["obs", "tail", store]) == 0
        out = capsys.readouterr().out
        assert f"store {store}: partitions 4/4 done, faults graded 206" in out
        assert "campaign complete" in out

    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        import repro.cli as cli

        def interrupted(_args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_cmd_plan", interrupted)
        assert main(["plan"]) == 130
        assert "--store" in capsys.readouterr().err
