"""Command-line interface."""

import json

import pytest

from repro.cli import _make_engine, build_parser, main
from repro.core.parallel import SweepEngine


class TestList:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "ivybridge" in out
        assert "sra" in out and "sgemm" in out
        assert "fig9" in out


class TestProfile:
    def test_cpu_table(self, capsys):
        assert main(["profile", "stream"]) == 0
        out = capsys.readouterr().out
        assert "cpu_l1" in out and "mem_l1" in out

    def test_cpu_json(self, capsys):
        assert main(["profile", "stream", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["type"] == "cpu-critical-powers"

    def test_gpu_default_platform(self, capsys):
        assert main(["profile", "minife"]) == 0
        assert "tot_max" in capsys.readouterr().out

    def test_unknown_workload_is_error(self, capsys):
        assert main(["profile", "linpack"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_device_platform_mismatch(self, capsys):
        assert main(["profile", "stream", "--platform", "titan-xp"]) == 2
        assert "needs a CPU node" in capsys.readouterr().err


class TestCoord:
    def test_cpu_coordinate_and_execute(self, capsys):
        assert main(["coord", "stream", "208", "--execute"]) == 0
        out = capsys.readouterr().out
        assert "allocation:" in out
        assert "performance:" in out
        assert "bound respected: True" in out

    def test_rejected_budget_exit_code(self, capsys):
        assert main(["coord", "dgemm", "60"]) == 1
        assert "budget too small" in capsys.readouterr().out

    def test_gpu_coordinate(self, capsys):
        assert main(["coord", "minife", "150", "--execute"]) == 0
        out = capsys.readouterr().out
        assert "memory clock" in out


class TestSweep:
    def test_cpu_sweep(self, capsys):
        assert main(["sweep", "sra", "240", "--step", "16"]) == 0
        out = capsys.readouterr().out
        assert "P_mem (W)" in out
        assert "best:" in out

    def test_gpu_sweep(self, capsys):
        assert main(["sweep", "gpu-stream", "150"]) == 0
        assert "mem clk (MHz)" in capsys.readouterr().out


class TestExperiment:
    def test_single_artifact(self, capsys):
        assert main(["experiment", "fig3", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "=== fig3" in out

    def test_unknown_artifact(self, capsys):
        assert main(["experiment", "fig42"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize(
        "argv",
        [["sweep", "dgemm", "200"], ["experiment", "fig3"], ["fleet"]],
        ids=["sweep", "experiment", "fleet"],
    )
    def test_jobs_is_a_serve_flag_only(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--jobs", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 1" in capsys.readouterr().err

    def test_serve_takes_one_job(self):
        args = build_parser().parse_args(["serve", "--jobs", "1"])
        assert args.jobs == 1
        assert isinstance(_make_engine(args), SweepEngine)
