import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from specdrift import overlap_cauchy, overlap_goe, semicircle_density
from specdrift.cli import (EXIT_ACCEPTANCE, EXIT_CONFIG, EXIT_DOMAIN, EXIT_OK,
                           main, parse_grid, parse_profile)
from specdrift.errors import ConfigError
from specdrift.stieltjes import semicircle_density_line


def read_csv(path):
    rows = [line.split(",") for line in path.read_text().splitlines()]
    return rows[0], np.array([[float(v) if i < 2 else 0 for i, v in enumerate(r[:2])] + [0]
                              for r in rows[1:]])[:, :2]


class TestParsers:
    def test_profiles(self):
        assert parse_profile("goe").kind == "semicircle-quantile"
        assert parse_profile("linear:0,2").support == (0.0, 2.0)
        assert parse_profile("uniform-gap:4").support == (-2.0, 2.0)
        with pytest.raises(ConfigError):
            parse_profile("weird")

    def test_grid(self):
        g = parse_grid("-1:1:0.5")
        assert np.allclose(g, [-1.0, -0.5, 0.0, 0.5, 1.0])
        with pytest.raises(ConfigError):
            parse_grid("1:0:0.5")


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
        expected = overlap_cauchy(0.05, 0.0, data[:, 0], semicircle_density_line(0.0, 0.0))
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
        assert parse_profile(configs["linear:-1,1"]["profile"]).cache_token == \
            parse_profile("linear:-1,1").cache_token


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


class TestStieltjes:
    def test_closed_form_match(self, tmp_path):
        rc = main(["stieltjes", "--profile", "goe", "--t", "1",
                   "--grid=-2:2:0.5", "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        rows = [line.split(",") for line in
                (tmp_path / "stieltjes.csv").read_text().splitlines()[1:]]
        for r in rows:
            lam, rho = float(r[0]), float(r[4])
            assert rho == pytest.approx(semicircle_density(1.0, lam), abs=1e-6)

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
    @pytest.mark.parametrize("spec", ["linear:1", "semicircle:abc", "csv:MISSING"])
    def test_bad_profile_exit2(self, tmp_path, command, spec):
        spec = spec.replace("MISSING", str(tmp_path / "missing.csv"))
        rc = main([*PROFILE_COMMANDS[command], "--profile", spec, "--out-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG

    def test_bad_weight_exit2(self, tmp_path):
        # a NaN threshold would reach the limit's clip as NaN
        for g in ("indicator:x", "indicator:nan", "step:0"):
            rc = main([*PROFILE_COMMANDS["theta"], "--g", g, "--out-dir", str(tmp_path)])
            assert rc == EXIT_CONFIG

    def test_bad_eta_exit2(self, tmp_path):
        rc = main([*PROFILE_COMMANDS["stieltjes"], "--eta", "0.01,x",
                   "--out-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("command", sorted(PROFILE_COMMANDS) + ["subspace"])
    def test_trailing_config_exit2(self, tmp_path, command):
        argv = PROFILE_COMMANDS.get(command, ["subspace"])
        assert main([*argv, "--out-dir", str(tmp_path), "--config"]) == EXIT_CONFIG

    def test_negative_eta_exit3(self, tmp_path):
        rc = main(["stieltjes", "--profile", "goe", "--t", "1", "--grid=-0.5:0.5:0.5",
                   "--eta=-0.01,-0.005", "--out-dir", str(tmp_path)])
        assert rc == EXIT_DOMAIN
        assert not (tmp_path / "stieltjes.csv").exists()


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

argvs, csv_argv = json.loads(sys.argv[1])
codes = [run(argv) for argv in argvs]
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "scipy": loaded, "csv": run(csv_argv)}))
"""


class TestImports:
    def test_no_scipy_unless_tabulated(self, tmp_path):
        # scipy is only imported by a tabulated (csv:) profile
        import specdrift
        path = tmp_path / "profile.csv"
        path.write_text("x,a\n0,-1\n0.5,0\n1,1\n")
        out = str(tmp_path)
        argvs = [["--version"],
                 ["predict", "--profile", "goe", "--t", "1", "--lambda", "0", "--out-dir", out],
                 ["reproduce", "fig1", "--samples", "2", "--out-dir", out]]
        csv_argv = ["predict", "--profile", f"csv:{path}", "--t", "1", "--lambda", "0",
                    "--out-dir", out]
        env = dict(os.environ, PYTHONPATH=str(Path(specdrift.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps([argvs, csv_argv])],
                              env=env, capture_output=True, text=True, timeout=300, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["codes"] == [0, EXIT_OK, EXIT_OK]
        assert result["scipy"] == []
        assert result["csv"] == EXIT_OK
