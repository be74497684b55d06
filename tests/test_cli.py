import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from specdrift import overlap_full, overlap_goe, semicircle_stieltjes
from specdrift.cli import (COMMANDS, EXIT_ACCEPTANCE, EXIT_CONFIG, EXIT_DOMAIN, EXIT_OK,
                           EXIT_SOLVER, default_workers, finite_float, main, parse_grid)
from specdrift.errors import ConfigError
from specdrift.profiles import parse_profile


def read_csv(path):
    rows = [line.split(",") for line in path.read_text().splitlines()]
    return rows[0], np.array([[float(v) if i < 2 else 0 for i, v in enumerate(r[:2])] + [0]
                              for r in rows[1:]])[:, :2]


class TestParsers:
    def test_profiles(self):
        assert parse_profile("goe").spec == "semicircle:2.0"
        assert parse_profile("linear:0,2").support == (0.0, 2.0)
        assert parse_profile("uniform-gap:4").support == (-2.0, 2.0)
        with pytest.raises(ConfigError):
            parse_profile("weird")

    def test_grid(self):
        g = parse_grid("-1:1:0.5")
        assert np.allclose(g, [-1.0, -0.5, 0.0, 0.5, 1.0])
        for spec in ("1:0:0.5", "0:inf:0.5", "nan:1:0.5", "0:1:inf"):
            with pytest.raises(ConfigError):
                parse_grid(spec)


class TestPredict:
    def test_goe_curve_matches_closed_form(self, tmp_path):
        rc = main(["predict", "--t", "1", "--index", "200", "--n", "400",
                   "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        out = tmp_path / "prediction.csv"
        header, data = read_csv(out)
        assert header == ["a_j", "predicted_overlap", "regime_tag"]
        manifest = json.loads((tmp_path / "predict_manifest.json").read_text())
        lam = manifest["config"]["lambda_used"]
        expected = overlap_goe(1.0, lam, data[:, 0])
        assert np.max(np.abs(data[:, 1] - expected)) <= 1e-9

    def test_cauchy_lorentzian(self, tmp_path):
        rc = main(["predict", "--regime", "cauchy", "--t", "0.05", "--lambda", "0",
                   "--profile", "goe", "--grid=-1:1:0.1", "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        _, data = read_csv(tmp_path / "prediction.csv")
        # CSV carries 12 significant digits
        expected = overlap_full(0.05, 0.0, data[:, 0], semicircle_stieltjes(0.0, 0.0))
        assert np.max(np.abs(data[:, 1] - expected)) <= 1e-9

    def test_goe_regime_follows_radius(self, tmp_path):
        # a semicircle of radius 4 under --regime goe writes what --regime full does
        values = []
        for regime in ("goe", "full"):
            rc = main(["predict", "--profile", "semicircle:4", "--t", "1", "--lambda", "0.5",
                       "--grid=0:0:1", "--regime", regime, "--out-dir", str(tmp_path / regime)])
            assert rc == EXIT_OK
            values.append(read_csv(tmp_path / regime / "prediction.csv")[1][0, 1])
        assert values[0] == pytest.approx(2.5, abs=1e-9)
        assert values[1] == pytest.approx(2.5, abs=1e-9)

    def test_goe_regime_needs_semicircle(self, tmp_path):
        rc = main(["predict", "--profile", "linear:-1,1", "--regime", "goe", "--t", "1",
                   "--lambda", "0.5", "--grid=0:0:1", "--out-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG

    def test_full_regime_linear_profile(self, tmp_path):
        rc = main(["predict", "--profile", "linear", "--t", "0.5", "--lambda", "0.5",
                   "--grid", "0.1:0.9:0.2", "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        _, data = read_csv(tmp_path / "prediction.csv")
        assert np.all(data[:, 1] > 0)

    def test_index_brackets_edges_once(self, tmp_path, monkeypatch):
        # --index reads the time-t support edges twice, for the quantile and
        # for the line at it; they are bracketed once per (profile, t). The
        # edge search is what evaluates the moments at real w here.
        from specdrift import stieltjes
        moments, real_calls = stieltjes._resolvent_moments, []

        def counted(profile, w, rule=None):
            real_calls.append(np.isrealobj(w))
            return moments(profile, w, rule)

        monkeypatch.setattr(stieltjes, "_resolvent_moments", counted)
        path = tmp_path / "tab.csv"
        path.write_text("x,a\n0,-1\n0.25,-0.4\n0.5,0\n0.75,0.4\n1,1\n")
        stieltjes._edges(parse_profile(f"csv:{path}"), 0.5)
        once, real_calls[:] = sum(real_calls), []
        rc = main(["predict", "--profile", f"csv:{path}", "--t", "0.5", "--index", "350",
                   "--n", "400", "--grid=0:0:1", "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        assert once > 0 and sum(real_calls) == once

    def test_auto_regime_follows_the_parsed_profile(self, tmp_path):
        # every spelling of the unit semicircle takes the goe closed form
        written = set()
        for spec in ("goe", "GOE", "semicircle", "semicircle:2"):
            rc = main(["predict", "--profile", spec, "--t", "1", "--lambda", "0.5",
                       "--grid=-1:1:0.25", "--out-dir", str(tmp_path / spec)])
            assert rc == EXIT_OK
            written.add((tmp_path / spec / "prediction.csv").read_text())
        assert len(written) == 1 and written.pop().endswith(",goe\n")

    def test_out_of_support_exit3(self, tmp_path, capsys):
        rc = main(["predict", "--t", "1", "--lambda", "5", "--out-dir", str(tmp_path)])
        assert rc == EXIT_DOMAIN

    def test_missing_location_exit2(self, tmp_path):
        rc = main(["predict", "--t", "1", "--out-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG


class TestSimulate:
    def test_single_sample(self, tmp_path):
        rc = main(["simulate", "--n", "30", "--t", "1", "--samples", "1",
                   "--index", "15", "--seed", "5", "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        _, data = read_csv(tmp_path / "overlap_i15.csv")
        # column 1 holds N*mean; the squared-overlap row sums to 1
        rows = [line.split(",") for line in
                (tmp_path / "overlap_i15.csv").read_text().splitlines()[1:]]
        total = sum(float(r[2]) for r in rows) / 30
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_invalid_config_exit2(self, tmp_path):
        rc = main(["simulate", "--n", "30", "--t", "1", "--samples", "0",
                   "--index", "15", "--out-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit2(self, tmp_path, workers):
        rc = main(["simulate", "--n", "20", "--t", "1", "--samples", "2", "--index", "10",
                   "--workers", workers, "--out-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert not (tmp_path / "overlap_i10.csv").exists()

    def test_manifest_written(self, tmp_path):
        main(["simulate", "--n", "20", "--t", "0.5", "--samples", "2",
              "--index", "10", "--out-dir", str(tmp_path)])
        manifest = json.loads((tmp_path / "simulate_manifest.json").read_text())
        assert manifest["subcommand"] == "simulate"
        assert manifest["master_seed"] is not None

    def test_config_echoes_profile_spec(self, tmp_path):
        # --profile linear:0,1 and linear:-1,1 must leave different config blocks
        configs = {}
        for spec in ("linear:0,1", "linear:-1,1"):
            rc = main(["simulate", "--n", "20", "--t", "0.5", "--samples", "2", "--index", "10",
                       "--initial", "profile", "--profile", spec,
                       "--out-dir", str(tmp_path / spec)])
            assert rc == EXIT_OK
            manifest = json.loads((tmp_path / spec / "simulate_manifest.json").read_text())
            configs[spec] = manifest["config"]["config"]["initial"]
        assert configs["linear:0,1"] != configs["linear:-1,1"]
        assert parse_profile(configs["linear:-1,1"]["profile"]).spec == \
            parse_profile("linear:-1,1").spec


class TestReproduce:
    def test_low_sample_report_only(self, tmp_path, capsys):
        rc = main(["reproduce", "fig1", "--samples", "10", "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "report only" in out
        report = json.loads((tmp_path / "fig1_report.json").read_text())
        assert report["threshold_checked"] is False
        assert (tmp_path / "fig1_empirical.csv").exists()
        assert (tmp_path / "fig1_prediction.csv").exists()

    def test_zero_samples_exit2(self, tmp_path):
        # 0 is refused like any count below one, not read as "the default"
        for samples in ("0", "-1"):
            rc = main(["reproduce", "fig1", "--samples", samples, "--out-dir", str(tmp_path)])
            assert rc == EXIT_CONFIG
        assert not list(tmp_path.glob("*.csv"))

    def test_expected_peak_from_kernel(self, tmp_path):
        # the kernel of eigenvalue 320 at t = 1 peaks at lambda + t H_1(lambda)
        rc = main(["reproduce", "fig2", "--samples", "2", "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "fig2_report.json").read_text())
        lam = report["lambda_used"]
        assert report["peak_expected"] == pytest.approx(
            lam + semicircle_stieltjes(1.0, lam).real, rel=1e-15)
        assert report["peak_expected"] == pytest.approx(1.0434, abs=1e-4)


class TestStieltjes:
    def test_closed_form_match(self, tmp_path):
        rc = main(["stieltjes", "--profile", "goe", "--t", "1",
                   "--grid=-2:2:0.5", "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        rows = [line.split(",") for line in
                (tmp_path / "stieltjes.csv").read_text().splitlines()[1:]]
        for r in rows:
            lam, rho = float(r[0]), float(r[4])
            assert rho == pytest.approx(semicircle_stieltjes(1.0, lam).imag / math.pi,
                                        abs=1e-6)

    def test_far_field(self, tmp_path):
        rc = main(["stieltjes", "--profile", "goe", "--t", "1",
                   "--grid", "50:50:1", "--eta", "1.0", "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        r = (tmp_path / "stieltjes.csv").read_text().splitlines()[1].split(",")
        g = complex(float(r[2]), float(r[3]))
        z = complex(50.0, 1.0)
        assert abs(g + 1.0 / z) <= 2.0 / abs(z) ** 2

    def test_t0_linear_uniform(self, tmp_path):
        rc = main(["stieltjes", "--profile", "linear", "--t", "0",
                   "--grid", "0.2:0.8:0.2", "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        rows = [line.split(",") for line in
                (tmp_path / "stieltjes.csv").read_text().splitlines()[1:]]
        for r in rows:
            assert float(r[4]) == pytest.approx(1.0, abs=1e-4)

    def test_zero_end_slope_quiet(self, tmp_path):
        # PCHIP sets the lower end slope of these knots to 0: the chart
        # poles' start beyond that end is infinite, rejected without a warning
        import specdrift
        path = tmp_path / "flat_end.csv"
        path.write_text("x,a\n0,0\n0.5,0.1\n1,1\n")
        env = dict(os.environ, PYTHONPATH=str(Path(specdrift.__file__).parents[1]))
        for argv in (["stieltjes", "--t", "0.5", "--grid=-1:2:0.5"],
                     ["predict", "--t", "0.5", "--index", "100", "--n", "400"]):
            proc = subprocess.run([sys.executable, "-m", "specdrift.cli", *argv,
                                   "--profile", f"csv:{path}", "--out-dir", str(tmp_path)],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert (proc.returncode, proc.stderr) == (EXIT_OK, ""), argv


class TestSubspaceCmd:
    def test_delta_zero_refused(self, tmp_path):
        rc = main(["subspace", "--n", "40", "--t", "0.02", "--samples", "5",
                   "--gamma", "-1", "1", "--delta", "0", "--out-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG

    def test_report_fields(self, tmp_path):
        rc = main(["subspace", "--n", "60", "--t", "0.02", "--samples", "10",
                   "--gamma", "-1", "1", "--delta", "0.2", "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "subspace_report.json").read_text())
        assert report["empirical_distance"] >= 0
        assert report["predicted_distance"] > 0
        assert math.isfinite(report["ratio"])
        assert report["rank_deficient_samples"] == 0
        manifest = json.loads((tmp_path / "subspace_manifest.json").read_text())
        assert manifest["config"]["rank_deficient_samples"] == 0

    def test_mapped_margin_refused(self, tmp_path):
        # the widened window [0.3, 1.2] maps back to [0.21, 0.85] at t = 1,
        # which no longer holds the inner window [0.5, 1]
        rc = main(["subspace", "--n", "60", "--t", "1", "--samples", "5",
                   "--gamma", "0.5", "1", "--delta", "0.2", "--out-dir", str(tmp_path)])
        assert rc == EXIT_DOMAIN
        assert not (tmp_path / "subspace_report.json").exists()

    def test_all_rank_deficient_refused(self, tmp_path):
        # t = 4 spreads the spectrum so far that every sample has fewer
        # perturbed than initial eigenvalues in the windows (Q < P)
        rc = main(["subspace", "--n", "100", "--samples", "5", "--t", "4",
                   "--gamma", "-1", "1", "--delta", "0.01", "--out-dir", str(tmp_path)])
        assert rc == EXIT_DOMAIN
        assert not (tmp_path / "subspace_report.json").exists()


class TestThetaCdfCmds:
    def test_theta_json(self, tmp_path):
        rc = main(["theta", "--profile", "goe", "--n", "60", "--t", "1",
                   "--samples", "10", "--z", "0", "1", "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "theta.json").read_text())
        emp = complex(*report["empirical"])
        lim = complex(*report["limit"])
        assert abs(emp - lim) <= 0.1

    def test_cdf_json(self, tmp_path):
        rc = main(["cdf", "--profile", "goe", "--n", "60", "--t", "1",
                   "--samples", "10", "--lambda", "0", "--alpha", "0",
                   "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "cdf.json").read_text())
        assert abs(report["empirical"] - report["limit"]) <= 0.1


class TestConfigFile:
    def test_ini_defaults_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[predict]\nt = 0.5\nn = 100\nindex = 50\n")
        rc = main(["predict", "--config", str(cfg), "--t", "1.0",
                   "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        manifest = json.loads((tmp_path / "predict_manifest.json").read_text())
        assert manifest["config"]["t"] == 1.0   # flag wins
        assert manifest["config"]["n"] == 100   # ini supplies the rest

    def test_missing_config_file(self, tmp_path):
        rc = main(["predict", "--config", str(tmp_path / "nope.ini"), "--t", "1",
                   "--lambda", "0", "--out-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG


class TestRerunDeterminism:
    def test_bit_exact_outputs(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            rc = main(["simulate", "--n", "30", "--t", "1", "--samples", "4",
                       "--index", "15", "--seed", "77", "--out-dir", str(d)])
            assert rc == EXIT_OK
        assert (d1 / "overlap_i15.csv").read_text() == (d2 / "overlap_i15.csv").read_text()


# small valid arguments of each subcommand that takes --profile
PROFILE_COMMANDS = {
    "predict": ["predict", "--t", "1", "--lambda", "0"],
    "simulate": ["simulate", "--n", "20", "--t", "1", "--samples", "2", "--index", "10",
                 "--initial", "profile"],
    "stieltjes": ["stieltjes", "--t", "1", "--grid", "0:0:1"],
    "theta": ["theta", "--n", "20", "--t", "1", "--samples", "2", "--z", "0", "1",
              "--initial", "profile"],
    "cdf": ["cdf", "--n", "20", "--t", "1", "--samples", "2", "--lambda", "0",
            "--alpha", "0", "--initial", "profile"],
}


class TestMalformedInput:
    @pytest.mark.parametrize("command", sorted(PROFILE_COMMANDS))
    @pytest.mark.parametrize("spec", ["linear:1", "semicircle:abc", "csv:MISSING",
                                      "semicircle:inf", "linear:0,inf", "uniform-gap:inf",
                                      "csv:NAN_KNOT", "csv:INF_KNOT"])
    def test_bad_profile_exit2(self, tmp_path, command, spec):
        (tmp_path / "nan.csv").write_text("x,a\n0,-1\nnan,0\n1,1\n")
        (tmp_path / "inf.csv").write_text("x,a\n0,-1\n0.5,0\n1,inf\n")
        spec = (spec.replace("MISSING", str(tmp_path / "missing.csv"))
                .replace("NAN_KNOT", str(tmp_path / "nan.csv"))
                .replace("INF_KNOT", str(tmp_path / "inf.csv")))
        rc = main([*PROFILE_COMMANDS[command], "--profile", spec, "--out-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_number_exit2(self, tmp_path, capsys, value):
        # every float flag of every subcommand: argparse refuses the value
        # before anything runs (nan used to run to a csv of nan, inf to a
        # LinAlgError traceback or a solver failure)
        for name, (_func, _help, flags) in COMMANDS.items():
            for flag, options in flags.items():
                if options.get("type") is not finite_float:
                    continue
                if "nargs" in options:
                    if value.startswith("-"):
                        continue  # argparse would read -inf as a flag
                    args = [flag, *["0"] * (options["nargs"] - 1), value]
                else:
                    args = [f"{flag}={value}"]
                out = tmp_path / name / flag.lstrip("-")
                with pytest.raises(SystemExit) as info:
                    main([*MINIMAL_ARGV[name], *args, "--out-dir", str(out)])
                assert info.value.code == EXIT_CONFIG, (name, flag)
                assert "finite_float" in capsys.readouterr().err, (name, flag)
                assert not out.exists()

    def test_bad_weight_exit2(self, tmp_path):
        # a NaN threshold would reach the limit's clip as NaN; an infinite
        # one would run as g = one or as g = 0
        for g in ("indicator:x", "indicator:nan", "step:0", "indicator:inf",
                  "indicator:1e400", "indicator:-inf"):
            rc = main([*PROFILE_COMMANDS["theta"], "--g", g, "--out-dir", str(tmp_path)])
            assert rc == EXIT_CONFIG, g

    def test_bad_eta_exit2(self, tmp_path):
        for eta in ("0.01,x", "0.01,nan", "inf", "0.01,-inf"):
            rc = main([*PROFILE_COMMANDS["stieltjes"], f"--eta={eta}",
                       "--out-dir", str(tmp_path)])
            assert rc == EXIT_CONFIG, eta
        assert not (tmp_path / "stieltjes.csv").exists()

    @pytest.mark.parametrize("command", sorted(PROFILE_COMMANDS) + ["subspace"])
    def test_trailing_config_exit2(self, tmp_path, command):
        argv = PROFILE_COMMANDS.get(command, ["subspace"])
        assert main([*argv, "--out-dir", str(tmp_path), "--config"]) == EXIT_CONFIG

    def test_negative_eta_exit3(self, tmp_path):
        rc = main(["stieltjes", "--profile", "goe", "--t", "1", "--grid=-0.5:0.5:0.5",
                   "--eta=-0.01,-0.005", "--out-dir", str(tmp_path)])
        assert rc == EXIT_DOMAIN
        assert not (tmp_path / "stieltjes.csv").exists()


def _csv_numbers(path):
    """Every field of a CSV below its header that reads as a number."""
    for row in list(csv.reader(path.open()))[1:]:
        for field in row:
            try:
                yield float(field)
            except ValueError:
                pass


# the predict grid holds a_j = lambda, where the kernel's denominator is smallest
EDGE_T_ARGV = {f"predict-{regime}-t={t}": ["predict", "--t", t, "--lambda", "0", "--regime", regime,
                                           "--grid=-0.5:0.5:0.25"]
               for regime in ("goe", "full", "cauchy") for t in ("0", "1e-300", "-1", "1e300")}
EDGE_T_ARGV["stieltjes-t=-1"] = ["stieltjes", "--t", "-1", "--grid=-3:3:0.5"]


class TestEdgeTimes:
    """t = 0, a t whose square underflows to 0, a negative t and a t whose
    kernel terms overflow end in a success or a typed error's exit code: no
    exception escapes main, and every number in every CSV written is
    finite. (The goe regime at t = 0 and 1e-300 used to raise
    ArithmeticError, the full one to write a non-finite kernel, t = -1 to
    fail in math.sqrt, and the cauchy one at 1e300 to raise OverflowError.)"""

    @pytest.mark.parametrize("profile", ["goe", "linear:-1,1"])
    @pytest.mark.parametrize("case", EDGE_T_ARGV)
    def test_exit_code_and_finite_csv(self, tmp_path, case, profile):
        rc = main([*EDGE_T_ARGV[case], "--profile", profile, "--out-dir", str(tmp_path)])
        assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_DOMAIN)
        for path in tmp_path.glob("*.csv"):
            assert all(math.isfinite(v) for v in _csv_numbers(path)), path


def _off(value, delta):
    return repr(value + delta)


# the time-t support edges of goe at t = 1 and of linear:-1,1 at t = 0.5
# (x = sqrt(1 + t) solves t G0'(x) = 1 on the uniform density)
_GOE_EDGE = 2.0 * math.sqrt(2.0)
_LIN_EDGE = math.sqrt(1.5) + 0.25 * math.log((math.sqrt(1.5) + 1.0) / (math.sqrt(1.5) - 1.0))
_LIN = ["--profile", "linear:-1,1"]
_MC = ["--n", "20", "--samples", "2"]
EDGE_INPUT_ARGV = {
    # lambda on and within 1e-9 of a time-t edge, or of the initial one (cauchy)
    **{f"predict-goe-{where}": ["predict", "--t", "1", "--lambda", _off(_GOE_EDGE, d)]
       for where, d in (("on", 0.0), ("past", 1e-9), ("inside", -1e-9))},
    **{f"predict-full-goe-{where}": ["predict", "--t", "1", "--lambda", _off(_GOE_EDGE, d),
                                     "--regime", "full"]
       for where, d in (("on", 0.0), ("inside", -1e-9))},
    **{f"predict-full-linear-{where}": ["predict", *_LIN, "--t", "0.5",
                                        "--lambda", _off(_LIN_EDGE, d)]
       for where, d in (("on", 0.0), ("past", 1e-9), ("inside", -1e-9))},
    **{f"predict-cauchy-{name}-{where}": ["predict", *prof, "--t", "1e-3", "--regime", "cauchy",
                                          "--lambda", _off(edge, d)]
       for name, prof, edge in (("goe", [], 2.0), ("linear", _LIN, 1.0))
       for where, d in (("on", 0.0), ("past", 1e-9), ("inside", -1e-9))},
    "stieltjes-goe-t0-edges": ["stieltjes", "--t", "0", "--grid=-2:2:1"],
    "stieltjes-linear-t0-edges": ["stieltjes", *_LIN, "--t", "0", "--grid=-1:1:1"],
    "stieltjes-goe-near-edge": ["stieltjes", "--t", "1",
                                f"--grid={_off(_GOE_EDGE, -1e-9)}:{_off(_GOE_EDGE, 1e-9)}:1e-9"],
    "stieltjes-linear-near-edge": ["stieltjes", *_LIN, "--t", "0.5",
                                   f"--grid={_off(_LIN_EDGE, -1e-9)}:{_off(_LIN_EDGE, 1e-9)}:1e-9"],
    "cdf-on-edge": ["cdf", *_MC, "--t", "1", "--lambda", repr(_GOE_EDGE), "--alpha", "2"],
    "cdf-inside-edge": ["cdf", *_MC, "--t", "1", "--lambda", _off(_GOE_EDGE, -1e-9),
                        "--alpha", _off(-2.0, 1e-9)],
    "cdf-profile-on-edge": ["cdf", *_MC, "--t", "0.5", "--lambda", repr(_LIN_EDGE), "--alpha", "1",
                            "--initial", "profile", *_LIN],
    # n = 2 and samples = 1
    "simulate-n2": ["simulate", "--n", "2", "--samples", "1", "--t", "1", "--index", "1", "2"],
    "simulate-n2-profile": ["simulate", "--n", "2", "--samples", "1", "--t", "0.5", "--index", "2",
                            "--initial", "profile", *_LIN],
    "simulate-samples1": ["simulate", "--n", "20", "--samples", "1", "--t", "1", "--index", "10"],
    "theta-n2": ["theta", "--n", "2", "--samples", "1", "--t", "1", "--z", "0", "1"],
    "theta-n2-indicator": ["theta", "--n", "2", "--samples", "1", "--t", "1", "--z", "0.5", "0.1",
                           "--g", "indicator:0"],
    "cdf-n2": ["cdf", "--n", "2", "--samples", "1", "--t", "1", "--lambda", "0", "--alpha", "0"],
    "subspace-n2": ["subspace", "--n", "2", "--samples", "1", "--t", "0.02", "--gamma", "-1", "1",
                    "--delta", "0.2"],
    "predict-n2-index": ["predict", "--n", "2", "--index", "1", "--t", "1"],
    "predict-n2-last-index": ["predict", *_LIN, "--n", "2", "--index", "2", "--t", "0.5"],
    # empty windows and a margin of 1e-300
    "subspace-empty-window": ["subspace", *_MC, "--t", "0.02", "--gamma", "5", "6", "--delta", "0.2"],
    "subspace-narrow-window": ["subspace", *_MC, "--t", "0.02", "--gamma", "0.1", "0.1000001",
                               "--delta", "0.2"],
    "subspace-delta-1e-300": ["subspace", *_MC, "--t", "0.02", "--gamma", "-1", "1",
                              "--delta", "1e-300"],
    # even binning windows, up to the whole spectrum
    **{f"simulate-binning-{w}": ["simulate", *_MC, "--t", "1", "--index", "1", "20",
                                 "--binning", w] for w in ("0", "2", "20")},
    # one-point grids
    "stieltjes-one-point": ["stieltjes", "--t", "1", "--grid=0:0:1"],
    "stieltjes-one-point-t0": ["stieltjes", *_LIN, "--t", "0", "--grid=0.5:0.5:1"],
    **{f"predict-one-point-{regime}": ["predict", "--t", "1", "--lambda", "0", "--grid=0:0:1",
                                       "--regime", regime] for regime in ("goe", "full", "cauchy")},
    # an eta of 1e-300 and a tol of 0
    **{f"stieltjes-{name}-{flag[2:]}": ["stieltjes", *prof, "--t", t, "--grid=-3:3:0.5", flag, value]
       for name, prof, t in (("goe", [], "1"), ("goe-t0", [], "0"), ("linear", _LIN, "0.5"))
       for flag, value in (("--eta", "1e-300"), ("--tol", "0"))},
    "theta-z-1e-300": ["theta", *_MC, "--t", "1", "--z", "0", "1e-300"],
}


class TestEdgeInputs:
    """The edge inputs beyond t: lambda on and by the support edges, n = 2,
    one sample, empty and narrow windows, a vanishing margin, even binning
    windows, one-point grids, eta 1e-300 and tol 0. Each ends in a success
    or a typed error's exit code with no exception out of main (a numpy
    RuntimeWarning is one here), and every number in every CSV is finite;
    the JSON writers refuse a non-finite number themselves."""

    @pytest.mark.parametrize("case", EDGE_INPUT_ARGV)
    def test_exit_code_and_finite_csv(self, tmp_path, case):
        rc = main([*EDGE_INPUT_ARGV[case], "--out-dir", str(tmp_path)])
        assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_DOMAIN, EXIT_ACCEPTANCE, EXIT_SOLVER)
        for path in tmp_path.glob("*.csv"):
            assert all(math.isfinite(v) for v in _csv_numbers(path)), path

    @pytest.mark.parametrize("step", ["1e-300", "1e-7"])
    @pytest.mark.parametrize("command", ["predict", "stieltjes"])
    def test_oversized_grid_exit2_unallocated(self, tmp_path, monkeypatch, command, step):
        # more than a million points is refused before any is allocated
        arange = np.arange

        def guarded(*args, **kwargs):
            if len(args) == 3:  # a lo:hi:step grid
                start, stop, step = args
                assert (stop - start) / step <= 1e6, "grid allocated"
            return arange(*args, **kwargs)

        monkeypatch.setattr(np, "arange", guarded)
        where = ["--lambda", "0"] if command == "predict" else []
        rc = main([command, "--t", "1", *where, f"--grid=-3:3:{step}",
                   "--out-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("argv", [
        # --scale would be echoed in the manifest but change nothing
        [*PROFILE_COMMANDS["theta"], "--scale", "4"],
        # --index would override --lambda
        ["predict", "--t", "1", "--index", "200", "--n", "400", "--lambda", "1.5",
         "--grid=0:0:1"]], ids=["scale-with-profile-start", "predict-index-and-lambda"])
    def test_refused_combination_exit2(self, tmp_path, argv):
        assert main([*argv, "--out-dir", str(tmp_path)]) == EXIT_CONFIG
        assert not list(tmp_path.glob("*.csv")) and not list(tmp_path.glob("*.json"))


class TestGOEScale:
    """A GOE start of scale s has the semicircle of radius 2 sqrt(s) as its
    limit profile; the predictions follow --scale."""

    def test_subspace_prediction(self, tmp_path):
        predicted = {}
        for scale in ("1", "4"):
            rc = main(["subspace", "--n", "200", "--t", "0.02", "--samples", "20",
                       "--gamma", "-1", "1", "--delta", "0.2", "--scale", scale,
                       "--out-dir", str(tmp_path / scale)])
            assert rc == EXIT_OK
            report = json.loads((tmp_path / scale / "subspace_report.json").read_text())
            predicted[scale] = report["predicted_distance"]
        assert predicted["1"] == pytest.approx(0.00273774, rel=1e-5)
        assert predicted["4"] == pytest.approx(0.00257631, rel=1e-4)

    def test_theta_limit(self, tmp_path):
        rc = main(["theta", "--n", "200", "--t", "1", "--samples", "20", "--z", "0", "0.1",
                   "--scale", "4", "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "theta.json").read_text())
        assert report["limit"][0] == pytest.approx(0.0, abs=1e-9)
        assert report["limit"][1] == pytest.approx(0.43733, abs=1e-5)
        assert abs(report["empirical"][1] - report["limit"][1]) <= 0.02

    @pytest.mark.parametrize("command", ["simulate", "theta", "cdf"])
    def test_conflicting_profile_exit2(self, tmp_path, command):
        argv = [a for a in PROFILE_COMMANDS[command] if a not in ("--initial", "profile")]
        rc = main([*argv, "--profile", "linear", "--out-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG
        rc = main([*argv, "--profile", "goe", "--scale", "4", "--out-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG

    def test_matching_profile_accepted(self, tmp_path):
        argv = [a for a in PROFILE_COMMANDS["cdf"] if a not in ("--initial", "profile")]
        rc = main([*argv, "--profile", "semicircle:4", "--scale", "4",
                   "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK


_IMPORT_PROBE = """
import json, sys
from specdrift.cli import main

def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code

codes = [run(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "modules": sorted(sys.modules)}))
"""


def run_in_fresh_process(argvs):
    """Exit codes of main(argv) for each argv, run in turn in one new
    interpreter, and the modules loaded there afterwards."""
    import specdrift
    env = dict(os.environ, PYTHONPATH=str(Path(specdrift.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["codes"], set(result["modules"])


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class TestImports:
    def test_no_scipy_loaded(self, tmp_path):
        # scipy is a test-only dependency: no invocation, tabulated (csv:)
        # profiles included, imports it
        path = tmp_path / "profile.csv"
        path.write_text("x,a\n0,-1\n0.5,0\n1,1\n")
        out = str(tmp_path)
        codes, modules = run_in_fresh_process([
            ["--version"],
            ["predict", "--profile", "goe", "--t", "1", "--lambda", "0", "--out-dir", out],
            ["reproduce", "fig1", "--samples", "2", "--out-dir", out],
            ["predict", "--profile", f"csv:{path}", "--t", "1", "--lambda", "0",
             "--out-dir", out],
            ["stieltjes", "--profile", f"csv:{path}", "--t", "0.5", "--grid=-1.5:1.5:0.5",
             "--out-dir", out]])
        assert codes == [0] + [EXIT_OK] * 4
        assert sorted(m for m in modules if m.split(".")[0] == "scipy") == []

    def test_limit_commands_skip_monte_carlo(self, tmp_path):
        # predict, stieltjes and --version load no module they never call:
        # each subcommand imports its compute modules itself
        out = str(tmp_path)
        codes, modules = run_in_fresh_process([
            ["--version"],
            ["predict", "--profile", "linear:-1,1", "--t", "0.5", "--index", "100",
             "--n", "400", "--out-dir", out],
            ["stieltjes", "--profile", "goe", "--t", "1", "--grid=-1:1:0.5", "--out-dir", out]])
        assert codes == [0, EXIT_OK, EXIT_OK]
        assert "specdrift.stieltjes" in modules
        skipped = {"specdrift.montecarlo", "specdrift.subspace", "specdrift.matrices",
                   "concurrent.futures", "configparser", "numpy.polynomial"}
        assert modules & skipped == set()

    def test_program_run_freezes_start_up_heap(self, tmp_path):
        # main() on the process's own command line freezes the heap built so
        # far out of the cyclic collector; a library call main([...]) does not
        import specdrift
        probe = ("import gc, json, sys\n"
                 "from specdrift.cli import main\n"
                 "argv = ['stieltjes', '--t', '1', '--grid=0:0:1', '--out-dir', sys.argv[1]]\n"
                 "counts = [gc.get_freeze_count()]\n"
                 "codes = [main(argv)]\n"
                 "counts.append(gc.get_freeze_count())\n"
                 "sys.argv[1:] = argv\n"
                 "codes.append(main())\n"
                 "counts.append(gc.get_freeze_count())\n"
                 "print(json.dumps([codes, counts]))")
        env = dict(os.environ, PYTHONPATH=str(Path(specdrift.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", probe, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        codes, (start, library, program) = json.loads(proc.stdout.strip().splitlines()[-1])
        assert codes == [EXIT_OK, EXIT_OK]
        assert library == start and program > start

    def test_blas_threads_pinned_before_numpy(self):
        # `import specdrift` loads no numpy, so specdrift.cli can still pin
        # the BLAS thread count; a count the user set wins
        import specdrift
        probe = ("import json, os, sys\n"
                 "import specdrift\n"
                 "numpy_at_import = 'numpy' in sys.modules\n"
                 "import specdrift.cli\n"
                 "print(json.dumps([numpy_at_import, [os.environ.get(v) for v in %r]]))"
                 % (THREAD_VARS,))
        env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
        env["PYTHONPATH"] = str(Path(specdrift.__file__).parents[1])
        for user, expected in (({}, "1"), ({"OPENBLAS_NUM_THREADS": "3"}, "3")):
            proc = subprocess.run([sys.executable, "-c", probe], env={**env, **user},
                                  capture_output=True, text=True, timeout=120, check=True)
            numpy_at_import, values = json.loads(proc.stdout.strip().splitlines()[-1])
            assert numpy_at_import is False
            assert values == ["1", expected, "1"]

    def test_lazy_exports_resolve(self):
        # a stale entry in the lazy export table fails only when accessed, so
        # every public name and submodule is accessed here
        import specdrift
        listing = dir(specdrift)
        for name in specdrift.__all__:
            assert name in listing, name
            if name != "__version__":
                assert specdrift.__getattr__(name) is getattr(specdrift, name), name
        for module in specdrift._EXPORTS:
            assert specdrift.__getattr__(module).__name__ == f"specdrift.{module}"
        with pytest.raises(AttributeError):
            specdrift.__getattr__("LinearProfile")  # a line is parse_profile("linear:lo,hi")

    def test_default_workers(self):
        assert default_workers() == min(2, len(os.sched_getaffinity(0)))


# a minimal valid argv of every subcommand, and the namespace it parses to
MINIMAL_ARGV = {
    "predict": ["predict", "--t", "1", "--lambda", "0"],
    "simulate": ["simulate", "--n", "20", "--t", "1", "--samples", "2", "--index", "10"],
    "reproduce": ["reproduce", "fig1", "--samples", "2"],
    "subspace": ["subspace", "--n", "20", "--t", "0.02", "--samples", "2",
                 "--gamma", "-1", "1", "--delta", "0.2"],
    "stieltjes": ["stieltjes", "--t", "1", "--grid", "0:0:1"],
    "theta": ["theta", "--n", "20", "--t", "1", "--samples", "2", "--z", "0", "1"],
    "cdf": ["cdf", "--n", "20", "--t", "1", "--samples", "2", "--lambda", "0", "--alpha", "0"],
}
COMMON = {"seed": 20260823, "out_dir": ".", "config": None}
MC = {"n": 20, "t": 1.0, "samples": 2, "workers": default_workers(), **COMMON}
START = {"initial": "goe", "scale": 1.0, "profile": None}
NAMESPACES = {
    "predict": {"subcommand": "predict", "profile": "goe", "t": 1.0, "index": None, "n": None,
                "lam": 0.0, "regime": "auto", "grid": None, **COMMON},
    "simulate": {"subcommand": "simulate", **MC, "index": [10], **START, "binning": 1},
    "reproduce": {"subcommand": "reproduce", "figure": "fig1", "samples": 2,
                  "workers": default_workers(), **COMMON},
    "subspace": {"subcommand": "subspace", **MC, "t": 0.02, "gamma": [-1.0, 1.0],
                 "delta": 0.2, "scale": 1.0},
    "stieltjes": {"subcommand": "stieltjes", "profile": "goe", "t": 1.0, "grid": "0:0:1",
                  "eta": None, "tol": 1e-12, **COMMON},
    "theta": {"subcommand": "theta", **MC, "z": [0.0, 1.0], "g": "one", **START},
    "cdf": {"subcommand": "cdf", **MC, "lam": 0.0, "alpha": 0.0, **START},
}
MANIFEST_KEYS = {"subcommand", "config", "master_seed", "toolkit_version",
                 "duration_seconds", "outputs", "tolerances"}


class TestContract:
    def test_namespaces(self):
        from specdrift.cli import build_parser
        parser = build_parser()
        for name, argv in MINIMAL_ARGV.items():
            parsed = vars(parser.parse_args(argv))
            parsed.pop("func")
            assert parsed == NAMESPACES[name], name

    @pytest.mark.parametrize("name", sorted(MINIMAL_ARGV))
    def test_manifest(self, tmp_path, name):
        rc = main([*MINIMAL_ARGV[name], "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        manifest = json.loads((tmp_path / f"{name}_manifest.json").read_text())
        assert set(manifest) == MANIFEST_KEYS
        assert manifest["subcommand"] == name and manifest["master_seed"] == 20260823
        assert manifest["outputs"] and all(Path(p).is_file() for p in manifest["outputs"])
        echo = manifest["config"]
        for key, value in {**NAMESPACES[name], "out_dir": str(tmp_path)}.items():
            # simulate and reproduce put the experiment's config block under "config"
            if key != "config" or name not in ("simulate", "reproduce"):
                assert echo[key] == value, key


class TestConfigValues:
    def test_value_with_spaces(self, tmp_path):
        folder = tmp_path / "dir with space"
        folder.mkdir()
        (folder / "p.csv").write_text("x,a\n0,-1\n0.5,0\n1,1\n")
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[stieltjes]\nprofile = csv:{folder / 'p.csv'}\ngrid = -0.5:0.5:0.5\n")
        rc = main(["stieltjes", "--config", str(cfg), "--t", "0.5", "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        manifest = json.loads((tmp_path / "stieltjes_manifest.json").read_text())
        assert manifest["config"]["profile"] == f"csv:{folder / 'p.csv'}"

    def test_nargs_value_split(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[theta]\nz = 0 1\n")
        rc = main(["theta", "--config", str(cfg), "--n", "20", "--t", "1", "--samples", "2",
                   "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        manifest = json.loads((tmp_path / "theta_manifest.json").read_text())
        assert manifest["config"]["z"] == [0.0, 1.0]

    def test_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[predict]\nlambda = 0\nbinning = 2\n")
        rc = main(["predict", "--config", str(cfg), "--t", "1", "--out-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'binning'" in err and "[predict]" in err

    def test_config_before_subcommand(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[predict]\nlambda = 0\n")
        with pytest.raises(SystemExit) as info:
            main(["--config", str(cfg), "predict", "--t", "1", "--out-dir", str(tmp_path)])
        assert info.value.code == 2
