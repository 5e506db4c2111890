"""End-to-end runs of the command line, in process, and in a fresh
interpreter where stderr or the import set is under test."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wavebath
import wavebath.cli
from wavebath import lattice, realization, statmech, waveline
from wavebath.cli import main
from wavebath.realization import FosterSpec


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


def assert_refused(capsys, argv, name):
    """In process: exit 2 with one stderr line that names `name`."""
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert err.strip().count("\n") == 0
    assert name in err


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

    @pytest.mark.parametrize("dim", [27, 31, 41])
    def test_synth_reads_large_loads_off_the_spectrum(self, tmp_path, dim):
        # k0 = 1 and unit tanks 0.5 apart; at 41 the impedance's degree
        # is past DEGREE_CAP, so it is not printed
        foster = "k0=1; " + "; ".join(f"tank=1,{1 + 0.5 * i}"
                                      for i in range(dim // 2))
        code, _, s = run(tmp_path, "synth", "--foster", foster)
        assert code == 0
        assert s["result"]["state_dim"] == dim
        assert s["checks"]["foster_round_trip"]["value"] <= 1e-9
        printed = s["result"]["impedance"], s["result"]["impedance_coeffs"]
        if dim > 32:
            assert printed == (None, None)
        else:
            assert None not in printed

    def test_synth_round_trip_counts_tanks(self, tmp_path, monkeypatch):
        extract = realization.foster_from_realization

        def drop_last_tank(load):
            back = extract(load)
            return FosterSpec(back.k0, back.tanks[:-1])

        monkeypatch.setattr(realization, "foster_from_realization",
                            drop_last_tank)
        code, _, s = run(tmp_path, "synth", "--foster",
                         "k0 = 0.5; tank = 1,2; tank = 1,3")
        assert code == 1
        # strict JSON: a non-finite number is written as a string
        assert s["checks"]["foster_round_trip"]["value"] == "inf"

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

    @pytest.mark.parametrize("m", ["1e-8", "1e-20"])
    def test_mb_stats_far_from_unit_sigma(self, tmp_path, m):
        # sigma = 1e4 and 1e10: valid inputs whose quadrature runs in
        # units of sigma
        code, _, s = run(tmp_path, "mb-stats", "--m", m, "--n", "20000")
        assert code == 0
        assert all(check["pass"] for check in s["checks"].values())

    def test_autocorr_small_ensemble_fails_honestly(self, tmp_path, capsys):
        code, _, s = run(tmp_path, "autocorr", "--M", "40", "--t-max", "30",
                         "--runs", "4", "--seed", "1")
        assert code == 1
        assert s["ok"] is False
        err = capsys.readouterr().err
        assert "failed checks" in err


class TestDeterminism:
    @pytest.mark.parametrize("argv, code, files", [
        (["line-sim", "--foster", "k0 = 0.5; tank = 1,2", "--init", "noise",
          "--x-max", "4", "--t-max", "3", "--seed", "11"], 0,
         ["trace.csv", "summary.json"]),
        # four runs fail the oracle check honestly; the bytes still repeat
        (["autocorr", "--M", "40", "--t-max", "30", "--runs", "4",
          "--seed", "1"], 1,
         ["autocorr.csv", "wave_spectrum.csv", "summary.json"]),
    ], ids=["line-sim", "autocorr"])
    def test_identical_seed_identical_bytes(self, tmp_path, argv, code, files):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main([*argv, "--out", str(a)]) == code
        assert main([*argv, "--out", str(b)]) == code
        for name in files:
            assert (a / name).read_bytes() == (b / name).read_bytes()

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


# one short run of every experiment; exit 0 or 1 both write a summary
SEED_RUNS = {
    "synth": ["--foster", "k0=1"],
    "couple": ["--foster", "k0=1"],
    "line-sim": ["--foster", "k0=1", "--init", "noise", "--x-max", "4",
                 "--t-max", "3"],
    "string-sim": ["--foster", "k0=1", "--init", "noise", "--x-max", "4",
                   "--t-max", "3"],
    "lattice-sim": ["--M", "10", "--t-max", "5"],
    "autocorr": ["--M", "10", "--t-max", "5", "--runs", "2"],
    "mb-stats": ["--n", "1000"],
    "invert": ["--phi", "1;1 0 -1"],
}


class TestSeedPath:
    def test_every_experiment_is_covered(self):
        assert sorted(SEED_RUNS) == sorted(wavebath.cli._RUNNERS)

    @pytest.mark.parametrize("command", sorted(SEED_RUNS))
    def test_default_then_config_then_flag(self, tmp_path, command):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[{command}]\nseed = 12\n")
        argv = [command, *SEED_RUNS[command]]
        for extra, seed in (([], 0), (["--config", str(ini)], 12),
                            (["--config", str(ini), "--seed", "5"], 5)):
            code, _, s = run(tmp_path, *argv, *extra)
            assert code in (0, 1)
            assert s["config"]["seed"] == seed


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

    def test_undecodable_config_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_bytes(b"[couple]\nfoster = k0=1\xff\n")
        assert_refused(capsys, ["couple", "--config", str(cfg), "--out",
                                str(tmp_path / "run")],
                       f"cannot parse {cfg}")
        assert not (tmp_path / "run" / "summary.json").exists()

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

    @pytest.mark.parametrize("argv", [
        ["--help"], *([name, "--help"] for name in [*wavebath.cli._PARAMS,
                                                     "report"]),
        ["no-such-command"], ["autocorr", "--runs", "x"], [],
    ])
    def test_help_and_usage_errors_match_the_whole_parser(self, capsys,
                                                          monkeypatch, argv):
        # main builds only the invoked command's arguments; its help and
        # usage errors read byte for byte as from the parser built whole
        monkeypatch.setenv("COLUMNS", "80")
        printed = []
        for parse in (main, wavebath.cli._build_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            printed.append((exc.value.code, *capsys.readouterr()))
        assert printed[0] == printed[1]
        assert printed[0][0] == (0 if "--help" in argv else 2)

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

    @pytest.mark.parametrize("runs", ["0", "-3"])
    def test_empty_ensemble_exits_two_without_traceback(self, tmp_path,
                                                        runs):
        proc = python(["-m", "wavebath.cli", "autocorr", "--M", "40",
                       "--t-max", "10", "--runs", runs, "--out",
                       str(tmp_path / "run")])
        assert_usage_error(proc, "runs")

    @pytest.mark.parametrize("argv, name", [
        (["autocorr", "--M", "40", "--t-max", "10", "--beta", "0",
          "--runs", "4"], "beta"),
        (["mb-stats", "--kT", "inf", "--n", "100"], "kT"),
        # one step of dt leaves langevin_residual two samples
        (["lattice-sim", "--M", "10", "--dt", "1", "--t-max", "1"], "dt"),
    ])
    def test_zero_or_infinite_scale_exits_two_without_traceback(
            self, tmp_path, argv, name):
        proc = python(["-m", "wavebath.cli", *argv, "--out",
                       str(tmp_path / "run")])
        assert_usage_error(proc, name)

    @pytest.mark.parametrize("argv, chain", [
        (["autocorr", "--M=10", "--dt=0.05", "--t-max=0.05", "--runs=2"],
         dict(half_width=10, dt=0.05, t_max=0.05)),
        (["lattice-sim", "--M", "10", "--dt", "1", "--t-max", "1"],
         dict(half_width=10, dt=1.0, t_max=1.0)),
        (["lattice-sim", "--M=2", "--dt=1e-300", "--t-max=1.0"],
         dict(half_width=2, dt=1e-300, t_max=1.0)),
    ], ids=["autocorr-one-step", "lattice-sim-one-step",
            "lattice-sim-dt-1e-300"])
    def test_chain_grid_refused_by_chain_config(self, tmp_path, capsys, argv,
                                                chain):
        with pytest.raises(ValueError) as info:
            lattice.ChainConfig(c=1.0, beta=1.0, seed=0, **chain)
        code, _, s = run(tmp_path, *argv)
        assert code == 2
        assert s is None
        err = capsys.readouterr().err
        assert err == f"{argv[0]}: {info.value}\n"
        assert "dt" in err and "t_max" in err

    def test_half_step_grid_is_named_as_the_langevin_check(
            self, tmp_path, capsys, monkeypatch):
        # dt = 1e-6 over t_max = 1 is 1e6 + 1 samples, inside the limit;
        # the Langevin order check's half step doubles them
        def refuse(*args):
            raise AssertionError("a chain was sampled")

        monkeypatch.setattr(lattice, "sample_invariant", refuse)
        code, _, s = run(tmp_path, "lattice-sim", "--M=2", "--dt=1e-6",
                         "--t-max=1", "--no-guarded")
        assert code == 2
        assert s is None
        err = capsys.readouterr().err
        assert err.startswith("lattice-sim: dt = 1e-06 passes, but the "
                              "Langevin order check also runs its half "
                              "step: t_max = 1.0 over dt = 5e-07 ")
        assert err.count("\n") == 1

    def test_oversized_ensemble_exits_two_before_sampling(
            self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a chain was sampled")

        monkeypatch.setattr(lattice, "sample_invariant", refuse)
        assert_refused(capsys, ["autocorr", "--runs=1000000000000",
                                "--out", str(tmp_path / "run")],
                       "runs = 1000000000000 over a grid of 1521 samples "
                       "(t_max = 380.0, dt = 0.25) and 801 sites")
        assert not (tmp_path / "run" / "summary.json").exists()

    @pytest.mark.parametrize("argv, module, allocator, names", [
        (["lattice-sim", "--M=1000000000"], lattice, "sample_invariant",
         ["M = 1000000000", "2000000001 sites"]),
        (["line-sim", "--foster=k0=1", "--dx=1e-9"], waveline, "init_waves",
         ["dx = 1e-09", "x_max = 8.0", "t_max = 6.0"]),
        (["mb-stats", "--n=1000000000000"], statmech, "sample_mb",
         ["n = 1000000000000"]),
        (["mb-stats", f"--n={wavebath.cli.MAX_SPEEDS + 1}"], statmech,
         "sample_mb", [f"n = {wavebath.cli.MAX_SPEEDS + 1}"]),
    ], ids=["chain-sites", "line-grid", "speed-samples",
            "speed-samples-one-over-limit"])
    def test_oversized_input_exits_two_before_allocation(
            self, tmp_path, capsys, monkeypatch, argv, module, allocator,
            names):
        def refuse(*args):
            raise AssertionError(f"{allocator} ran")

        monkeypatch.setattr(module, allocator, refuse)
        code, _, s = run(tmp_path, *argv)
        assert code == 2
        assert s is None
        err = capsys.readouterr().err
        assert err.startswith(f"{argv[0]}: ") and err.count("\n") == 1
        assert all(name in err for name in names), err

    def test_single_step_wave_spectrum_exits_two(self, tmp_path, capsys):
        # two samples of the incoming wave: their Hann window is all zeros
        assert_refused(capsys, ["autocorr", "--M=10", "--dt=0.05",
                                "--t-max=0.05", "--runs=2",
                                "--out", str(tmp_path / "run")],
                       "at least 3")
        assert not (tmp_path / "run" / "summary.json").exists()
        assert not (tmp_path / "run" / "wave_spectrum.csv").exists()

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

    @pytest.mark.parametrize("c, extra", [
        ("1e300", ["--no-guarded"]), ("1e-300", []), ("-1", []), ("nan", []),
    ], ids=["c-squared-overflows", "c-squared-underflows", "negative", "nan"])
    def test_unrepresentable_coupling_exits_two(self, tmp_path, capsys, c,
                                                extra):
        assert_refused(capsys, ["lattice-sim", "--M=10", f"--c={c}",
                                "--t-max=1", *extra,
                                "--out", str(tmp_path / "run")],
                       "coupling c")

    def test_unallocatable_sample_grid_exits_two(self, tmp_path, capsys):
        # 1e300 samples: numpy refuses the array before allocating it
        assert_refused(capsys, ["lattice-sim", "--M=2", "--dt=1e-300",
                                "--t-max=1.0", "--out", str(tmp_path / "run")],
                       "lattice-sim")
        assert not (tmp_path / "run" / "summary.json").exists()

    @pytest.mark.parametrize("argv", [["mb-stats", "--n", "100"],
                                      ["report", "R"]],
                             ids=["mb-stats", "report"])
    def test_unwritable_out_exits_two(self, tmp_path, capsys, argv):
        blocker = tmp_path / "F"
        blocker.write_text("")
        out = blocker / "sub"
        assert_refused(capsys, [*argv, "--out", str(out)], str(out))

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
        (["string-sim", "--init", "noise", "--sigma", "nan"], "sigma"),
        (["line-sim", "--init", "noise", "--sigma", "-1"], "sigma"),
    ], ids=["t-max-nan", "unguarded-t-max-inf", "x-max-inf", "center-nan",
            "width-zero", "sigma-nan", "sigma-negative"])
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

    # the eight README command lines, each in a fresh process that loads
    # only the wavebath modules (besides cli) that it runs
    COMMAND_MODULES = {
        "couple": ["coupling", "ratfun", "realization"],
        "invert": ["coupling", "ratfun", "realization"],
        "lattice-sim": ["_csv", "_errors", "lattice"],
        "line-sim": ["_csv", "_errors", "coupling", "ratfun", "realization",
                     "waveline"],
        "string-sim": ["_csv", "_errors", "coupling", "ratfun",
                       "realization", "waveline"],
        "autocorr": ["_csv", "_errors", "lattice", "statmech"],
        "mb-stats": ["_csv", "statmech"],
        "report": [],
    }

    @pytest.mark.parametrize("argv", [
        ["couple", "--foster", "k0=1"],
        ["invert", "--phi", "1;1 0 -1"],
        ["lattice-sim", "--M", "400", "--t-max", "100", "--seed", "3"],
        ["line-sim", "--foster", "k0 = 0.5; tank = 1,2", "--x-max", "26",
         "--t-max", "25", "--window", "12,24"],
        ["string-sim", "--foster", "k0=1", "--init", "noise", "--seed", "7"],
        ["autocorr", "--runs", "160", "--seed", "1"],
        ["mb-stats", "--kT", "1.3"],
        ["report"],
    ])
    def test_command_runs_without_scipy(self, tmp_path, argv):
        if argv[0] == "report":     # it reads the run directories made before
            cap = str(tmp_path / "cap")
            assert main(["couple", "--foster", "k0=1", "--out", cap]) == 0
            argv = [*argv, cap]
        argv = [*argv, "--out", str(tmp_path / "run")]
        proc = python(["-c", "import sys; from wavebath.cli import main; "
                       f"code = main({argv!r}); print(code, sorted("
                       "m for m in sys.modules if m.split('.')[0] == 'scipy'"
                       "), sorted(m for m in sys.modules if m.startswith("
                       "'wavebath.') and m != 'wavebath.cli'), "
                       "'numpy' in sys.modules)"])
        assert proc.returncode == 0, proc.stderr
        # report prints its table first, and loads no numpy
        last = proc.stdout.strip().splitlines()[-1]
        loaded = ["wavebath." + m for m in self.COMMAND_MODULES[argv[0]]]
        assert last == f"0 [] {loaded} {argv[0] != 'report'}"

    def test_autocorr_loads_no_scipy_subpackage(self, tmp_path):
        # the J0 oracle is a midpoint rule, not scipy.special.j0
        argv = ["autocorr", "--M", "40", "--t-max", "10", "--runs", "4",
                "--out", str(tmp_path / "run")]
        proc = python(["-c", "import pkgutil, sys, scipy; "
                       "from wavebath.cli import main; "
                       f"code = main({argv!r}); print(code in (0, 1), sorted("
                       "name for _, name, pkg in pkgutil.iter_modules("
                       "scipy.__path__) if pkg and not name.startswith('_') "
                       "and 'scipy.' + name in sys.modules))"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True []"

    def test_package_source_imports_no_scipy(self):
        # static: a lazy import inside a function counts too
        src = Path(wavebath.__file__).resolve().parent
        found = []
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                found += [f"{path.name}:{node.lineno} {name}" for name in names
                          if name.split(".")[0] == "scipy"]
        assert found == []

    def test_bad_init_choice(self, tmp_path):
        code, _, _ = run(tmp_path, "line-sim", "--foster", "k0=1",
                         "--x-max", "4", "--t-max", "3",
                         "--init", "sawtooth")
        assert code == 2


class TestInternalErrors:
    def test_refusals_are_value_errors(self):
        assert issubclass(waveline.ReflectionWindowError, ValueError)
        assert issubclass(wavebath.cli.ConfigError, ValueError)

    def test_internal_error_exits_three(self, tmp_path, capsys, monkeypatch):
        def broken(params, out_dir):
            raise RuntimeError("boom")

        monkeypatch.setitem(wavebath.cli._RUNNERS, "couple", broken)
        code, _, s = run(tmp_path, "couple", "--foster", "k0=1")
        assert code == 3
        assert s is None
        err = capsys.readouterr().err
        assert "Traceback" in err
        last = err.strip().splitlines()[-1]
        assert last == "couple: internal error: RuntimeError: boom"

    def test_internal_error_in_report_exits_three(self, tmp_path, capsys,
                                                  monkeypatch):
        def broken(text):
            raise KeyError("boom")

        a = tmp_path / "a"
        assert main(["couple", "--foster", "k0=1", "--out", str(a)]) == 0
        monkeypatch.setattr(wavebath.cli.json, "loads", broken)
        assert main(["report", str(a), "--out", str(tmp_path / "t")]) == 3
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert last.startswith("report: internal error: KeyError")
        assert not (tmp_path / "t" / "report.json").exists()


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

    def test_refused_run_removes_the_earlier_verdict(self, tmp_path, capsys):
        out = str(tmp_path / "a")
        assert main(["couple", "--foster", "k0=1", "--out", out]) == 0
        assert main(["couple", "--foster", "k0=-1", "--out", out]) == 2
        assert not (tmp_path / "a" / "summary.json").exists()
        capsys.readouterr()
        assert main(["report", out, "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "pass" not in captured.out
        assert captured.err == f"missing summary: {out}/summary.json\n"

    def test_second_report_skips_its_own_table(self, tmp_path, capsys):
        # `report runs/* --out runs` run twice: the glob now holds the
        # report.json the first run wrote
        self.make_runs(tmp_path)
        for _ in range(2):
            entries = [str(p) for p in sorted(tmp_path.iterdir())]
            assert main(["report", *entries, "--out", str(tmp_path)]) == 0
        table = json.loads((tmp_path / "report.json").read_text())
        assert [r["id"] for r in table["runs"]] == ["chain", "loops"]
        assert table["missing"] == []
        assert "missing summary" not in capsys.readouterr().err

    def test_file_argument_is_usage_error(self, tmp_path, capsys):
        a, _ = self.make_runs(tmp_path)
        notes = tmp_path / "notes.txt"
        notes.write_text("not a run\n")
        out = tmp_path / "out"
        assert main(["report", str(a), str(notes), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.strip().count("\n") == 0
        assert "notes.txt" in err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("text", ["{", "[1]"], ids=["truncated", "list"])
    def test_malformed_summary_is_usage_error(self, tmp_path, capsys, text):
        a, _ = self.make_runs(tmp_path)
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "summary.json").write_text(text)
        out = tmp_path / "out"
        assert main(["report", str(a), str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.strip().count("\n") == 0
        assert "bad" in err and "summary.json" in err
        assert not (out / "report.json").exists()

    def test_bare_nan_in_a_summary_stays_out_of_the_report(self, tmp_path):
        # a summary.json written before it was strict JSON
        old = tmp_path / "old"
        old.mkdir()
        (old / "summary.json").write_text(
            '{"id": "old", "command": "invert", "ok": false, "checks": '
            '{"synthesis": {"pass": false, "value": NaN, "tol": 0.0}}}')
        out = tmp_path / "out"
        assert main(["report", str(old), "--out", str(out)]) == 1

        def refuse(constant):
            raise ValueError(f"bare {constant} in report.json")

        table = json.loads((out / "report.json").read_text(),
                           parse_constant=refuse)
        assert table["runs"][0]["checks"]["synthesis"]["value"] == "nan"

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
