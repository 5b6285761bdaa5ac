import numpy as np
import pytest

from irsopt import _kernels, desk_scenario, save_scenario
from irsopt.cli import TRACE_HEADER, main


class TestSolveCommand:
    def test_writes_trace_csv(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert main(["solve", "--preset", "desk", "--seed", "0",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == TRACE_HEADER
        assert TRACE_HEADER.endswith(
            ",time_ms,probes,inner_converged,line_search_failed,extrap_accepted,phase_grad0,"
            "wsr_delta,channel_ms,decoder_ms,beamformer_ms,assembly_ms,descent_ms")
        assert len(lines) >= 2
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == len(TRACE_HEADER.split(","))
            assert 0 <= int(fields[7]) <= 40
            assert all(flag in ("0", "1") for flag in fields[8:11])
            assert float(fields[11]) >= 0.0
            # the WSR never drops beyond rounding
            assert float(fields[12]) >= -1e-12 * float(fields[1])
            # the layers' times add up to at most the iteration's
            layers = [float(f) for f in fields[13:]]
            assert min(layers) >= 0.0 and sum(layers) <= float(fields[6]) + 0.01
        err = capsys.readouterr().err
        assert "converged=" in err

    def test_stdout_when_no_out(self, capsys):
        assert main(["solve", "--preset", "desk"]) == 0
        assert TRACE_HEADER in capsys.readouterr().out

    def test_config_file_input(self, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        save_scenario(desk_scenario(user_seed=2), cfg)
        out = tmp_path / "trace.csv"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.exists()

    def test_bad_config_path_errors(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == 1
        assert "error:" in capsys.readouterr().err


class TestSweepCommand:
    def test_tiny_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--preset", "desk", "--seed", "1",
                   "--values", "0.5,1", "--trials", "1",
                   "--schemes", "random_phase,no_irs", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 4  # header + 2 schemes x 2 values x 1 trial
        captured = capsys.readouterr().out
        assert "random_phase" in captured and "no_irs" in captured

    def test_decreasing_values_rejected(self, capsys):
        assert main(["sweep", "--values", "2,1", "--trials", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_scheme_rejected(self, capsys):
        assert main(["sweep", "--values", "1", "--trials", "1",
                     "--schemes", "genie"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_repeated_scheme_keeps_the_results_file(self, tmp_path, capsys):
        out = tmp_path / "old.csv"
        out.write_bytes(b"scheme,old results\n")
        assert main(["sweep", "--values", "1", "--trials", "1",
                     "--schemes", "proposed,proposed", "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert out.read_bytes() == b"scheme,old results\n"

    def test_unknown_axis_is_usage_error(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--axis", "frequency"])

    def test_fractional_element_count_rejected(self, tmp_path, capsys, monkeypatch):
        # rejected before any solve, and before the CSV is opened
        def no_solve(*args, **kwargs):
            raise AssertionError("solve ran")

        monkeypatch.setattr("irsopt.experiments.solve", no_solve)
        out = tmp_path / "m.csv"
        assert main(["sweep", "--axis", "n_elements", "--values", "4,4.5",
                     "--trials", "1", "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [["--axis", "n_elements", "--values", "0,4"],
                                      ["--axis", "p_max", "--values=-1,4"]])
    def test_out_of_range_value_keeps_the_results_file(self, tmp_path, capsys, args):
        out = tmp_path / "old.csv"
        out.write_bytes(b"scheme,old results\n")
        assert main(["sweep", *args, "--trials", "1", "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert out.read_bytes() == b"scheme,old results\n"

    def test_element_axis(self, tmp_path):
        out = tmp_path / "m.csv"
        rc = main(["sweep", "--axis", "n_elements", "--values", "4,8",
                   "--trials", "1", "--schemes", "no_irs", "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().strip().splitlines()) == 3


class TestValidateCommand:
    def test_passes_on_healthy_build(self, capsys):
        assert main(["validate", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok:") == 8
        assert "at a binding cap" in out and "probes mean" in out
        assert "energy start's minorize-maximize steps never lower the energy" in out
        kernel = "compiled" if _kernels.JIT_ENABLED else "numpy reference"
        assert f"kernel {kernel}, worst rel objective gap" in out
        # the beamformer step solves use, against its numpy reference
        line, = [line for line in out.splitlines()
                 if "beamformer step matches the numpy reference" in line]
        if _kernels.JIT_ENABLED:
            assert "(beamformer compiled, worst rel surrogate gap " in line
            assert "worst rel dual gap " in line and "(not gated) over 20 stacks" in line
        else:
            assert "(beamformer numpy reference, the reference itself)" in line
        assert "FAIL" not in out
