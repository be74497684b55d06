import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from specdrift import overlap_cauchy, overlap_goe, semicircle_density
from specdrift.cli import (COMMANDS, EXIT_ACCEPTANCE, EXIT_CONFIG, EXIT_DOMAIN, EXIT_OK,
                           default_workers, finite_float, main, parse_grid)
from specdrift.errors import ConfigError
from specdrift.profiles import parse_profile
from specdrift.stieltjes import semicircle_density_line, semicircle_hilbert


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

    def test_expected_peak_from_kernel(self, tmp_path):
        # the kernel of eigenvalue 320 at t = 1 peaks at lambda + t H_1(lambda)
        rc = main(["reproduce", "fig2", "--samples", "2", "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "fig2_report.json").read_text())
        lam = report["lambda_used"]
        assert report["peak_expected"] == pytest.approx(lam + semicircle_hilbert(1.0, lam),
                                                        rel=1e-15)
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
        # a NaN threshold would reach the limit's clip as NaN
        for g in ("indicator:x", "indicator:nan", "step:0"):
            rc = main([*PROFILE_COMMANDS["theta"], "--g", g, "--out-dir", str(tmp_path)])
            assert rc == EXIT_CONFIG

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
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class TestImports:
    def test_no_scipy_loaded(self, tmp_path):
        # scipy is a test-only dependency: no invocation, tabulated (csv:)
        # profiles included, imports it
        import specdrift
        path = tmp_path / "profile.csv"
        path.write_text("x,a\n0,-1\n0.5,0\n1,1\n")
        out = str(tmp_path)
        argvs = [["--version"],
                 ["predict", "--profile", "goe", "--t", "1", "--lambda", "0", "--out-dir", out],
                 ["reproduce", "fig1", "--samples", "2", "--out-dir", out],
                 ["predict", "--profile", f"csv:{path}", "--t", "1", "--lambda", "0",
                  "--out-dir", out],
                 ["stieltjes", "--profile", f"csv:{path}", "--t", "0.5", "--grid=-1.5:1.5:0.5",
                  "--out-dir", out]]
        env = dict(os.environ, PYTHONPATH=str(Path(specdrift.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(argvs)],
                              env=env, capture_output=True, text=True, timeout=300, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["codes"] == [0] + [EXIT_OK] * 4
        assert result["scipy"] == []

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
