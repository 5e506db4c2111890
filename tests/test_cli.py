"""End-to-end runs of the command line, in process, and in a fresh
interpreter where stderr or the import set is under test."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wavebath
from wavebath.cli import main


def python(args):
    """Run a fresh interpreter that imports this checkout's wavebath."""
    src = str(Path(wavebath.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


# 35 state dimensions: past DEGREE_CAP for the commands that print K
SEVENTEEN_TANKS = "k0=1; " + "; ".join(
    f"tank=1,{1 + 0.5 * i}" for i in range(17))


def assert_usage_error(proc, name):
    """Exit 2 with one stderr line that names `name`, no traceback."""
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().count("\n") == 0
    assert name in proc.stderr


def run(tmp_path, *argv):
    out = tmp_path / "run"
    code = main([*argv, "--out", str(out)])
    summary = None
    path = out / "summary.json"
    if path.is_file():
        summary = json.loads(path.read_text())
    return code, out, summary


class TestGoldenOutputs:
    def test_couple_unit_capacitor(self, tmp_path):
        code, _, s = run(tmp_path, "couple", "--foster", "k0=1")
        assert code == 0
        assert s["ok"] is True
        assert s["result"]["gamma_eigs"] == [[-1.0, 0.0]]
        assert s["result"]["gamma_bar_eigs"] == [[1.0, 0.0]]
        assert s["result"]["K"] == "(1-s)/(1+s)"

    def test_invert_flat_density_gives_capacitor(self, tmp_path):
        code, _, s = run(tmp_path, "invert", "--phi", "1;1 0 -1")
        assert code == 0
        assert s["result"]["Z0"] == "1/s"
        assert s["result"]["K"] == "(1-s)/(1+s)"
        assert s["result"]["foster"] == "k0 = 1"

    def test_synth_reports_certificate(self, tmp_path):
        code, _, s = run(tmp_path, "synth", "--foster", "k0 = 0.5; tank = 1,2")
        assert code == 0
        assert s["checks"]["certificate_lyapunov"]["pass"] is True
        assert s["checks"]["foster_round_trip"]["pass"] is True
        assert s["result"]["state_dim"] == 3

    def test_synth_takes_a_load_of_dimension_seventeen(self, tmp_path):
        # k0 and eight tanks: the lossless check forms no product of
        # degree 2n - 1, so only the load's own degree meets DEGREE_CAP
        foster = "k0=1; " + "; ".join(f"tank=1,{1 + 0.5 * i}"
                                      for i in range(8))
        code, _, s = run(tmp_path, "synth", "--foster", foster)
        assert code == 0
        assert s["result"]["state_dim"] == 17
        assert s["checks"]["foster_round_trip"]["pass"] is True

    def test_invert_infeasible_density_names_stage(self, tmp_path):
        # spectrum with a sign change on the axis cannot be factored
        code, _, s = run(tmp_path, "invert", "--phi", "0 0 1 ; 1 0 0 0 1")
        assert code == 1
        assert s["ok"] is False
        assert s["checks"]["synthesis"]["pass"] is False
        assert "stage" in s["checks"]["synthesis"]


class TestSimulationRuns:
    def test_line_sim_writes_trace_and_passes(self, tmp_path):
        code, out, s = run(
            tmp_path, "line-sim", "--foster", "k0=1",
            "--x-max", "4", "--t-max", "3",
        )
        assert code == 0
        assert s["artifacts"] == ["trace.csv"]
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert header == "t,xi_1,y,w,wbar"

    def test_decay_window_check(self, tmp_path):
        code, _, s = run(
            tmp_path, "line-sim", "--foster", "k0=1",
            "--x-max", "26", "--t-max", "25", "--window", "12,24",
        )
        assert code == 0
        assert s["checks"]["decay_rate"]["pass"] is True
        assert s["result"]["decay_rate_expected"] == -1.0

    def test_contaminated_window_is_usage_error(self, tmp_path, capsys):
        code, out, s = run(
            tmp_path, "line-sim", "--foster", "k0=1",
            "--x-max", "8", "--t-max", "6", "--window", "1,5",
        )
        assert code == 2
        assert s is None
        assert "window" in capsys.readouterr().err

    def test_string_sim_records_convention(self, tmp_path):
        code, _, s = run(
            tmp_path, "string-sim", "--foster", "k0=1", "--init", "noise",
            "--x-max", "4", "--t-max", "3", "--seed", "3",
        )
        assert code == 0
        assert s["result"]["convention"] == "string"

    def test_lattice_sim_passes_defaults(self, tmp_path):
        code, out, s = run(tmp_path, "lattice-sim", "--M", "40",
                           "--t-max", "20", "--dt", "0.1", "--seed", "5")
        assert code == 0
        assert s["checks"]["energy_conservation"]["pass"] is True
        assert s["checks"]["langevin_order"]["value"] > 1.9
        assert (out / "trace.csv").is_file()

    def test_lattice_guard_rejects_long_runs(self, tmp_path, capsys):
        code, _, s = run(tmp_path, "lattice-sim", "--M", "10",
                         "--t-max", "100")
        assert code == 2
        assert s is None

    def test_mb_stats_checks(self, tmp_path):
        code, _, s = run(tmp_path, "mb-stats", "--n", "20000", "--seed", "7")
        assert code == 0
        for name in ("kinetic_energy", "ks_chi2_three",
                     "kl_quadrature_agreement", "negentropy_agreement",
                     "kl_positive_off_diagonal"):
            assert s["checks"][name]["pass"] is True, name

    def test_autocorr_small_ensemble_fails_honestly(self, tmp_path, capsys):
        code, _, s = run(tmp_path, "autocorr", "--M", "40", "--t-max", "30",
                         "--runs", "4", "--seed", "1")
        assert code == 1
        assert s["ok"] is False
        err = capsys.readouterr().err
        assert "failed checks" in err


class TestDeterminism:
    def test_identical_seed_identical_bytes(self, tmp_path):
        argv = ["line-sim", "--foster", "k0 = 0.5; tank = 1,2",
                "--init", "noise", "--x-max", "4", "--t-max", "3",
                "--seed", "11"]
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main([*argv, "--out", str(a)]) == 0
        assert main([*argv, "--out", str(b)]) == 0
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == \
            (b / "summary.json").read_bytes()

    def test_different_seed_different_trace(self, tmp_path):
        argv = ["line-sim", "--foster", "k0=1", "--init", "noise",
                "--x-max", "4", "--t-max", "3"]
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main([*argv, "--seed", "1", "--out", str(a)]) == 0
        assert main([*argv, "--seed", "2", "--out", str(b)]) == 0
        assert (a / "trace.csv").read_bytes() != (b / "trace.csv").read_bytes()

    def test_lattice_trace_deterministic(self, tmp_path):
        argv = ["lattice-sim", "--M", "20", "--t-max", "9", "--seed", "8"]
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main([*argv, "--out", str(a)]) == 0
        assert main([*argv, "--out", str(b)]) == 0
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()


class TestConfigFile:
    def write_config(self, tmp_path, text):
        path = tmp_path / "run.ini"
        path.write_text(text)
        return str(path)

    def test_config_section_supplies_parameters(self, tmp_path):
        cfg = self.write_config(tmp_path, "\n".join([
            "[line-sim]",
            "foster = k0=1",
            "x_max = 4",
            "t_max = 3",
            "init = noise",
            "seed = 12",
        ]))
        code, _, s = run(tmp_path, "line-sim", "--config", cfg)
        assert code == 0
        assert s["config"]["x_max"] == 4.0
        assert s["config"]["seed"] == 12

    def test_flags_override_config(self, tmp_path):
        cfg = self.write_config(tmp_path, "\n".join([
            "[line-sim]",
            "foster = k0=1",
            "x_max = 4",
            "t_max = 3",
        ]))
        code, _, s = run(tmp_path, "line-sim", "--config", cfg,
                         "--t-max", "2")
        assert code == 0
        assert s["config"]["t_max"] == 2.0

    def test_unknown_key_aborts_before_computation(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "\n".join([
            "[line-sim]",
            "fooster = k0=1",
            "x_max = 4",
        ]))
        code, out, s = run(tmp_path, "line-sim", "--config", cfg)
        assert code == 2
        assert s is None
        assert not (out / "trace.csv").exists()
        assert "fooster" in capsys.readouterr().err

    def test_unknown_section_rejected(self, tmp_path):
        cfg = self.write_config(tmp_path, "[line-simulator]\nfoster = k0=1\n")
        code, _, s = run(tmp_path, "line-sim", "--config", cfg)
        assert code == 2

    def test_bad_value_rejected(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "\n".join([
            "[line-sim]",
            "foster = k0=1",
            "dx = banana",
        ]))
        code, _, _ = run(tmp_path, "line-sim", "--config", cfg)
        assert code == 2
        assert "dx" in capsys.readouterr().err

    @pytest.mark.parametrize("text, name", [
        ("[couple]\nfoster = k0=1\nseed = abc\n", "seed"),
        ("foster = k0=1\n", "section"),
    ], ids=["bad-seed", "no-section-header"])
    def test_unparsable_config_exits_two_without_traceback(self, tmp_path,
                                                           text, name):
        cfg = self.write_config(tmp_path, text)
        proc = python(["-m", "wavebath.cli", "couple", "--config", cfg,
                       "--out", str(tmp_path / "run")])
        assert_usage_error(proc, name)

    def test_missing_config_file(self, tmp_path):
        code, _, _ = run(tmp_path, "couple", "--config",
                         str(tmp_path / "absent.ini"))
        assert code == 2

    def test_boolean_key_parsing(self, tmp_path):
        cfg = self.write_config(tmp_path, "\n".join([
            "[lattice-sim]",
            "guarded = false",
            "M = 10",
            "t_max = 100",
            "dt = 0.5",
        ]))
        code, _, s = run(tmp_path, "lattice-sim", "--config", cfg)
        assert code == 0
        assert s["config"]["guarded"] is False


class TestUsageErrors:
    def test_missing_required_parameter(self, tmp_path, capsys):
        code, _, s = run(tmp_path, "couple")
        assert code == 2
        assert "foster" in capsys.readouterr().err

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_bad_foster_text(self, tmp_path, capsys):
        code, _, _ = run(tmp_path, "couple", "--foster", "q9=1")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["lattice-sim", "--M", "40", "--t-max", "10", "--beta", "nan"],
        ["autocorr", "--M", "40", "--t-max", "10", "--beta", "inf",
         "--runs", "4"],
    ])
    def test_non_finite_beta_exits_two_without_traceback(self, tmp_path,
                                                         argv):
        proc = python(["-m", "wavebath.cli", *argv, "--out",
                       str(tmp_path / "run")])
        assert_usage_error(proc, "beta")

    @pytest.mark.parametrize("argv, name", [
        (["autocorr", "--M", "40", "--t-max", "10", "--beta", "0",
          "--runs", "4"], "beta"),
        (["mb-stats", "--kT", "inf", "--n", "100"], "kT"),
    ])
    def test_zero_or_infinite_scale_exits_two_without_traceback(
            self, tmp_path, argv, name):
        proc = python(["-m", "wavebath.cli", *argv, "--out",
                       str(tmp_path / "run")])
        assert_usage_error(proc, name)

    @pytest.mark.parametrize("argv", [["--kT", "1e-300"], ["--m", "1e300"]],
                             ids=["kT-tiny", "m-huge"])
    def test_unnormalisable_speed_density_exits_two_without_traceback(
            self, tmp_path, argv):
        # (m / 2 pi kT)^{3/2} overflows a float for both
        proc = python(["-m", "wavebath.cli", "mb-stats", *argv, "--out",
                       str(tmp_path / "run")])
        assert_usage_error(proc, "normalisation")

    @pytest.mark.parametrize("foster, name", [
        ("k0=1; tank=1,1; tank=1,1.0000000001", "lossless"),
        (SEVENTEEN_TANKS, "degree"),
    ], ids=["coincident-tanks", "17-tanks"])
    def test_uncouplable_load_exits_two_without_traceback(self, tmp_path,
                                                          foster, name):
        proc = python(["-m", "wavebath.cli", "couple", "--foster", foster,
                       "--out", str(tmp_path / "run")])
        assert_usage_error(proc, name)

    @pytest.mark.parametrize("command", ["line-sim", "string-sim"])
    def test_large_load_runs_on_the_line(self, tmp_path, command):
        out = tmp_path / "run"
        proc = python(["-m", "wavebath.cli", command, "--foster",
                       SEVENTEEN_TANKS, "--x-max", "6", "--t-max", "5",
                       "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        summary = json.loads((out / "summary.json").read_text())
        assert all(check["pass"] for check in summary["checks"].values())

    @pytest.mark.parametrize("argv, name", [
        (["line-sim", "--t-max", "nan"], "t_max"),
        (["line-sim", "--no-guarded", "--t-max", "inf"], "t_max"),
        (["string-sim", "--x-max", "inf"], "x_max"),
        (["line-sim", "--center", "nan"], "finite"),
        (["line-sim", "--width", "0"], "finite"),
        (["string-sim", "--init", "noise", "--sigma", "nan"], "finite"),
    ], ids=["t-max-nan", "unguarded-t-max-inf", "x-max-inf", "center-nan",
            "width-zero", "sigma-nan"])
    def test_non_finite_line_input_exits_two_without_traceback(
            self, tmp_path, argv, name):
        proc = python(["-m", "wavebath.cli", *argv, "--foster", "k0=1",
                       "--out", str(tmp_path / "run")])
        assert_usage_error(proc, name)
        assert not (tmp_path / "run" / "summary.json").exists()

    def test_mb_stats_skips_scipy_stats(self, tmp_path):
        proc = python(["-c", "import sys; from wavebath.cli import main; "
                       "code = main(['mb-stats', '--n', '1000', '--out', "
                       f"{str(tmp_path / 'run')!r}]); "
                       "print(code, 'scipy.stats' in sys.modules)"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0 False"

    def test_import_skips_slow_scipy_modules(self):
        proc = python(["-c", "import sys, wavebath.cli; print(sorted("
                       "m for m in sys.modules if m.split('.')[0] == 'scipy'))"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("argv", [
        ["couple", "--foster", "k0=1"],
        ["invert", "--phi", "1;1 0 -1"],
        ["lattice-sim", "--M", "400", "--t-max", "100", "--seed", "3"],
    ])
    def test_command_runs_without_scipy(self, tmp_path, argv):
        argv = [*argv, "--out", str(tmp_path / "run")]
        proc = python(["-c", "import sys; from wavebath.cli import main; "
                       f"code = main({argv!r}); print(code, sorted("
                       "m for m in sys.modules if m.split('.')[0] == 'scipy'))"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0 []"

    def test_autocorr_loads_only_scipy_special(self, tmp_path):
        # the J0 oracle is the only scipy routine the chain commands use
        argv = ["autocorr", "--M", "40", "--t-max", "10", "--runs", "4",
                "--out", str(tmp_path / "run")]
        proc = python(["-c", "import pkgutil, sys, scipy; "
                       "from wavebath.cli import main; "
                       f"code = main({argv!r}); print(code in (0, 1), sorted("
                       "name for _, name, pkg in pkgutil.iter_modules("
                       "scipy.__path__) if pkg and not name.startswith('_') "
                       "and 'scipy.' + name in sys.modules))"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True ['special']"

    def test_bad_init_choice(self, tmp_path):
        code, _, _ = run(tmp_path, "line-sim", "--foster", "k0=1",
                         "--x-max", "4", "--t-max", "3",
                         "--init", "sawtooth")
        assert code == 2


class TestReport:
    def make_runs(self, tmp_path):
        a = tmp_path / "ra"
        b = tmp_path / "rb"
        assert main(["couple", "--foster", "k0=1", "--id", "loops",
                     "--out", str(a)]) == 0
        assert main(["invert", "--phi", "1;1 0 -1", "--id", "chain",
                     "--out", str(b)]) == 0
        return a, b

    def test_merges_and_orders_by_id(self, tmp_path, capsys):
        a, b = self.make_runs(tmp_path)
        code = main(["report", str(a), str(b), "--out", str(tmp_path)])
        assert code == 0
        table = json.loads((tmp_path / "report.json").read_text())
        assert [r["id"] for r in table["runs"]] == ["chain", "loops"]
        assert table["ok"] is True
        shown = capsys.readouterr().out
        assert "chain" in shown and "loops" in shown

    def test_missing_summary_flagged_nonzero(self, tmp_path, capsys):
        a, _ = self.make_runs(tmp_path)
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["report", str(a), str(empty), "--out", str(tmp_path)])
        assert code == 1
        table = json.loads((tmp_path / "report.json").read_text())
        assert table["missing"]
        assert "missing summary" in capsys.readouterr().err

    def test_no_directories_is_usage_error(self, capsys):
        assert main(["report"]) == 2

    def test_failed_run_propagates(self, tmp_path):
        a, _ = self.make_runs(tmp_path)
        bad = tmp_path / "bad"
        assert main(["autocorr", "--M", "40", "--t-max", "30", "--runs", "4",
                     "--seed", "1", "--id", "noisy", "--out", str(bad)]) == 1
        code = main(["report", str(a), str(bad), "--out", str(tmp_path)])
        assert code == 1


class TestTraceNumbers:
    def test_trace_matches_library_run(self, tmp_path):
        code, out, _ = run(
            tmp_path, "line-sim", "--foster", "k0=1",
            "--x-max", "4", "--t-max", "3",
        )
        assert code == 0
        rows = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)
        # xi starts at rest and the bump arrives around t = 2
        assert rows[0, 1] == 0.0
        assert abs(rows[-1, 0] - 3.0) < 1e-12
        assert np.max(np.abs(rows[:, 1])) > 0.1
