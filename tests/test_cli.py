"""Configuration parsing and command-line behavior."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fbmsde.cli as cli
from fbmsde.config import parse_config
from fbmsde.drifts import lamperti_inverse
from fbmsde.errors import ConfigError
from fbmsde.fbm import CirculantSampler, Hurst, TimeGrid
from fbmsde.solver import SchemeConfig, integrate

REPO = Path(__file__).resolve().parents[1]

MINIMAL_MR = {
    "seed": 7,
    "model": {
        "model": "mean_reverting",
        "a1": 1.0,
        "a2": 1.0,
        "gamma": 0.7,
        "sigma": 0.5,
        "y0": 1.0,
        "hurst": 0.7,
    },
}


def config_text(**overrides) -> str:
    cfg = json.loads(json.dumps(MINIMAL_MR))
    for key, value in overrides.items():
        if isinstance(value, dict) and key in cfg:
            cfg[key].update(value)
        else:
            cfg[key] = value
    return json.dumps(cfg)


class TestParseConfig:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config(config_text())
        assert cfg.scheme["tol_abs"] == 1e-12
        assert cfg.scheme["bracket_growth"] == 2.0
        assert cfg.scheme["method"] == "circulant"
        assert cfg.experiment["p"] == 2.0
        assert cfg.io["out_dir"] == "."
        assert len(cfg.digest) == 64

    def test_build_model(self):
        model = parse_config(config_text()).build_model()
        assert model.family == "mean_reverting"
        assert model.gamma == 0.7

    def test_gamma_out_of_range_names_path(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(config_text(model={"gamma": 1.2}))
        assert any("$.model.gamma" in e for e in excinfo.value.errors)

    def test_unknown_key_named(self):
        bad = json.loads(config_text())
        bad["model"]["gama"] = 0.7
        with pytest.raises(ConfigError) as excinfo:
            parse_config(json.dumps(bad))
        assert any("$.model.gama" in e and "unknown" in e for e in excinfo.value.errors)

    def test_syntax_error_reports_position(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config('{"seed": 1,\n  "model": }')
        assert "line 2" in excinfo.value.errors[0]

    def test_all_errors_collected(self):
        bad = json.loads(config_text(model={"gamma": 1.2}))
        bad["extra_block"] = {}
        bad["seed"] = "not-an-int"
        with pytest.raises(ConfigError) as excinfo:
            parse_config(json.dumps(bad))
        joined = "\n".join(excinfo.value.errors)
        assert "$.model.gamma" in joined
        assert "$.extra_block" in joined
        assert "$.seed" in joined
        assert len(excinfo.value.errors) >= 3

    def test_cross_field_constraint_surfaces(self):
        cfg = {
            "seed": 1,
            "model": {
                "model": "ait_sahalia",
                "a_m1": 1.0, "a0": 1.0, "a1": 1.0, "a2": 1.0,
                "r": 2.4, "rho": 1.5,
                "sigma": 0.5, "y0": 1.0, "hurst": 0.7,
            },
        }
        with pytest.raises(ConfigError) as excinfo:
            parse_config(json.dumps(cfg))
        assert any("min(2, rho) + 1" in e for e in excinfo.value.errors)

    def test_digest_ignores_io_block(self):
        a = parse_config(config_text())
        b = parse_config(config_text(io={"out_dir": "elsewhere"}))
        assert a.digest == b.digest

    def test_seed_changes_digest(self):
        a = parse_config(config_text())
        b = parse_config(config_text(seed=8))
        assert a.digest != b.digest


def run_cli(*argv: str) -> int:
    return cli.main(list(argv))


class TestCli:
    def test_fbm_csv(self, tmp_path, capsys):
        out = tmp_path / "paths.csv"
        code = run_cli(
            "fbm", "--hurst", "0.7", "--steps", "4", "--paths", "2",
            "--seed", "3", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# master_seed=3 config_digest=")
        assert lines[1] == "path_index,node_index,time,value"
        assert len(lines) == 2 + 2 * 5
        assert lines[2] == "0,0,0.0,0.0"

    def test_fbm_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run_cli(
                "fbm", "--hurst", "0.7", "--steps", "8", "--paths", "3",
                "--seed", "11", "--method", "cholesky", "--out", str(out),
            )
        assert a.read_bytes() == b.read_bytes()

    def test_simulate_writes_trajectories(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config_text(scheme={"steps": 16}))
        out = tmp_path / "sim.csv"
        code = run_cli("simulate", "--config", str(cfg), "--paths", "2", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        header = lines[1].split(",")
        assert header == [
            "path_index", "node_index", "time", "x_value", "y_value",
            "residual", "iterations",
        ]
        assert len(lines) == 2 + 2 * 17
        x_values = [float(line.split(",")[3]) for line in lines[2:]]
        assert all(v > 0.0 for v in x_values)

    def test_simulate_rows_equal_per_value_format(self, tmp_path):
        steps, paths = 32, 3
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config_text(scheme={"steps": steps}, experiment={"paths": paths}))
        out = tmp_path / "sim.csv"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 0
        # the same trajectories, formatted one value at a time
        run = parse_config(cfg.read_text())
        model = run.build_model()
        drift, cert = model.drift()
        grid = TimeGrid(1.0, steps)
        sampler = CirculantSampler(Hurst(model.hurst), grid)
        noise = np.stack([sampler.sample(run.seed, i).increments for i in range(paths)])
        scheme = SchemeConfig(steps=steps, horizon=1.0, sigma=model.sigma_x, x0=model.x0)
        sol = integrate(drift, scheme, noise, cert)
        x, y, t = sol.values, lamperti_inverse(model, sol.values), grid.times
        rows = []
        for i in range(paths):
            rows.append((i, 0, t[0], x[i, 0], y[i, 0], 0.0, 0))
            rows.extend(
                (i, n + 1, t[n + 1], x[i, n + 1], y[i, n + 1],
                 sol.residuals[i, n], sol.iterations[i, n])
                for n in range(steps)
            )
        lines = out.read_text().splitlines()
        assert lines[2:] == [",".join(cli._fmt(v) for v in row) for row in rows]
        assert any(line.split(",")[5].startswith("-") for line in lines[2:])

    def test_simulate_and_moments_reruns_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config_text(scheme={"steps": 32}, experiment={"paths": 3}))
        outputs = []
        for tag in ("a", "b"):
            sim_out = tmp_path / f"sim_{tag}.csv"
            run_cli("simulate", "--config", str(cfg), "--out", str(sim_out))
            mom_dir = tmp_path / f"mom_{tag}"
            run_cli("moments", "--config", str(cfg), "--out-dir", str(mom_dir))
            outputs.append(
                (
                    sim_out.read_bytes(),
                    (mom_dir / "moments.csv").read_bytes(),
                    (mom_dir / "probe.json").read_bytes(),
                )
            )
        assert outputs[0] == outputs[1]

    def test_simulate_overrides_change_digest(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config_text(scheme={"steps": 32}, experiment={"paths": 2}))

        def digest(*overrides):
            out = tmp_path / "sim.csv"
            argv = ("simulate", "--config", str(cfg), "--out", str(out), *overrides)
            assert run_cli(*argv) == 0
            return out.read_text().splitlines()[0].split("config_digest=")[1]

        plain = digest()
        assert plain == parse_config(cfg.read_text()).digest
        halved = digest("--steps", "16")
        assert halved == parse_config(
            config_text(scheme={"steps": 16}, experiment={"paths": 2})
        ).digest
        assert len({plain, halved, digest("--paths", "3")}) == 3

    def test_simulate_cholesky_byte_identical_across_threads(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            config_text(scheme={"steps": 300, "method": "cholesky"}, experiment={"paths": 3})
        )
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"sim_{threads}.csv"
            argv = ("simulate", "--config", str(cfg), "--threads", threads, "--out", str(out))
            assert run_cli(*argv) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_simulate_rejects_excessive_step(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            config_text(
                model={"a2": -1.0},  # h0 = 1/(|a2| (1 - gamma)) = 10/3
                scheme={"steps": 1, "horizon": 4.0},
            )
        )
        code = run_cli("simulate", "--config", str(cfg), "--out", "unused.csv")
        assert code == 1
        captured = capsys.readouterr()
        assert "h0" in captured.err

    def test_invalid_config_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config_text(model={"gamma": 1.2}))
        code = run_cli("simulate", "--config", str(cfg))
        assert code == 1
        assert "$.model.gamma" in capsys.readouterr().err

    def test_missing_config_flag(self, capsys):
        assert run_cli("converge") == 1

    def test_converge_writes_report_and_levels(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            config_text(
                experiment={"paths": 6, "k_min": 3, "k_max": 5, "k_ref": 8}
            )
        )
        out_dir = tmp_path / "results"
        code = run_cli(
            "converge", "--config", str(cfg), "--out-dir", str(out_dir),
            "--threads", "1", "--keep-paths",
        )
        assert code in (0, 3)  # tiny run may land outside the band
        report = json.loads((out_dir / "report.json").read_text())
        assert report["meta"]["master_seed"] == 7
        assert len(report["levels"]) == 3
        assert "y_interp" in report["fits"]
        levels_lines = (out_dir / "levels.csv").read_text().splitlines()
        assert levels_lines[1] == "level,h,e_mean,e_stderr"
        errors_lines = (out_dir / "errors.csv").read_text().splitlines()
        assert len(errors_lines) == 2 + 6 * 3

    def test_converge_band_failure_maps_to_exit_three(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            config_text(experiment={"paths": 6, "k_min": 3, "k_max": 5, "k_ref": 8})
        )

        real = cli.run_strong_error

        def failing(plan, workers=1, keep_paths=False):
            report = real(plan, workers=workers, keep_paths=keep_paths)
            band = dict(report.order_band)
            band["passed"] = False
            return type(report)(
                plan=report.plan, levels=report.levels, fits=report.fits,
                targets=report.targets, order_band=band, trend_ok=report.trend_ok,
                incomplete=report.incomplete, failures=report.failures,
                per_path_errors=report.per_path_errors,
            )

        monkeypatch.setattr(cli, "run_strong_error", failing)
        code = run_cli("converge", "--config", str(cfg), "--out-dir", str(tmp_path / "o"))
        assert code == 3

    def test_converge_plan_flag_alias(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            config_text(experiment={"paths": 4, "k_min": 3, "k_max": 5, "k_ref": 8})
        )
        code = run_cli("converge", "--plan", str(cfg), "--out-dir", str(tmp_path / "o"))
        assert code in (0, 3)
        assert (tmp_path / "o" / "report.json").exists()

    def test_moments_outputs(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            config_text(scheme={"steps": 64}, experiment={"paths": 4})
        )
        out_dir = tmp_path / "m"
        code = run_cli("moments", "--config", str(cfg), "--out-dir", str(out_dir))
        assert code == 0
        probe = json.loads((out_dir / "probe.json").read_text())
        assert probe["meta"]["config_digest"]
        moments_lines = (out_dir / "moments.csv").read_text().splitlines()
        assert moments_lines[1] == "p,negative_moment,positive_moment"

    def test_converge_all_paths_failed_is_a_clean_runtime_error(self, tmp_path, capsys):
        # no residual can meet a 1e-300 tolerance, so every path fails
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            config_text(
                scheme={"tol_abs": 1e-300, "tol_rel": 1e-300},
                experiment={"paths": 3, "k_min": 2, "k_max": 4, "k_ref": 7},
            )
        )
        out_dir = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run_cli(
                "converge", "--config", str(cfg), "--out-dir", str(out_dir),
                "--threads", "1",
            )
        assert code == 2
        err = capsys.readouterr().err
        assert "runtime error: all 3 paths failed" in err
        assert "(path, level, step): [[0, " in err

        def reject(constant):
            raise ValueError(f"non-JSON constant {constant} in output")

        for path in out_dir.glob("*.json") if out_dir.exists() else ():
            json.loads(path.read_text(), parse_constant=reject)

    def test_moments_honours_scheme_method(self, tmp_path):
        bodies = {}
        for method in ("circulant", "cholesky"):
            cfg = tmp_path / f"{method}.json"
            cfg.write_text(
                config_text(
                    scheme={"steps": 64, "method": method}, experiment={"paths": 4}
                )
            )
            out_dir = tmp_path / method
            code = run_cli("moments", "--config", str(cfg), "--out-dir", str(out_dir))
            assert code == 0
            lines = (out_dir / "moments.csv").read_text().splitlines()
            bodies[method] = lines[1:]  # past the digest header
        assert bodies["circulant"] != bodies["cholesky"]

    @pytest.mark.parametrize("command", ["simulate", "moments"])
    def test_honours_solver_settings(self, tmp_path, capsys, command):
        # no residual can meet a 1e-300 tolerance, so the first step fails
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            config_text(
                scheme={"steps": 64, "tol_abs": 1e-300, "tol_rel": 1e-300},
                experiment={"paths": 2},
            )
        )
        out_dir = tmp_path / "o"
        code = run_cli(command, "--config", str(cfg), "--out-dir", str(out_dir))
        assert code == 2
        assert "implicit step failed" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("paths", ["-1", "0"])
    def test_simulate_rejects_path_count_below_one(self, tmp_path, capsys, paths):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config_text(scheme={"steps": 16}))
        out = tmp_path / "sim.csv"
        code = run_cli(
            "simulate", "--config", str(cfg), "--paths", paths, "--out", str(out)
        )
        assert code == 1
        assert "config error: $.experiment.paths" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("paths", ["-1", "0"])
    def test_fbm_rejects_path_count_below_one(self, tmp_path, capsys, paths):
        out = tmp_path / "fbm.csv"
        code = run_cli(
            "fbm", "--hurst", "0.7", "--steps", "4", "--paths", paths, "--out", str(out)
        )
        assert code == 1
        assert f"validation error: --paths must be >= 1, got {paths}" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-2"])
    @pytest.mark.parametrize(
        "command", ["simulate", "converge", "moments", "verify-assumptions"]
    )
    def test_rejects_thread_count_below_one(self, tmp_path, capsys, command, threads):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            config_text(
                scheme={"steps": 16},
                experiment={"paths": 4, "k_min": 3, "k_max": 5, "k_ref": 8},
            )
        )
        code = run_cli(
            command, "--config", str(cfg), "--threads", threads,
            "--out-dir", str(tmp_path / "out"),
        )
        assert code == 1
        assert f"validation error: --threads must be >= 1, got {threads}" in (
            capsys.readouterr().err
        )
        assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize(
        "command, overrides, layers",
        [
            (
                ["simulate", "--out", "sim.csv"],
                {"scheme": {"steps": 16}, "experiment": {"paths": 2}},
                {"solver", "fbm.sample", "drifts.lamperti_inverse"},
            ),
            (
                ["converge", "--out-dir", ".", "--threads", "1"],
                {"experiment": {"paths": 4, "k_min": 3, "k_max": 5, "k_ref": 8}},
                {"convergence", "solver", "fbm.sample", "fbm.subsample"},
            ),
        ],
        ids=["simulate", "converge"],
    )
    def test_traced_benchmark_child_runs(self, tmp_path, command, overrides, layers):
        # the traced child wraps module attributes by name, so a renamed or
        # removed one crashes the benchmark
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config_text(**overrides))
        stats = tmp_path / "stats.json"
        proc = subprocess.run(
            [
                sys.executable, str(REPO / "perfbench" / "child.py"), str(stats), "1",
                *command, "--config", str(cfg),
            ],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        assert layers <= {span[1] for span in json.loads(stats.read_text())["spans"]}

    def test_verify_assumptions(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config_text())
        assert run_cli("verify-assumptions", "--config", str(cfg)) == 0
        out = capsys.readouterr().out
        assert "one_sided_lipschitz" in out
        assert "pass" in out

    def test_verify_assumptions_subnormal_negative_a2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config_text(model={"a2": -5e-324}))
        assert run_cli("verify-assumptions", "--config", str(cfg)) in (0, 1)
        assert "h0=inf" in capsys.readouterr().out

    def test_cli_import_loads_no_scipy(self, tmp_path):
        code = (
            "import sys, fbmsde.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "[]"
        # nor does building a Cholesky sampler or simulating with one
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config_text(scheme={"steps": 32, "method": "cholesky"}))
        code = (
            "import sys, fbmsde.cli as cli; "
            "from fbmsde.fbm import CholeskySampler, TimeGrid; "
            "CholeskySampler(0.7, TimeGrid(1.0, 300)).sample(1); "
            f"assert cli.main(['simulate', '--config', {str(cfg)!r}, "
            f"'--out', {str(tmp_path / 'sim.csv')!r}]) == 0; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip().splitlines()[-1] == "[]"

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "p.csv"
        proc = subprocess.run(
            [
                sys.executable, "-m", "fbmsde", "fbm", "--hurst", "0.7",
                "--steps", "2", "--out", str(out),
            ],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert out.exists()
