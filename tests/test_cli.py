"""Configuration parsing and command-line behavior."""

import json
import os
import stat
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import fbmsde.cli as cli
import fbmsde.convergence as convergence
from fbmsde.config import parse_config
from fbmsde.drifts import lamperti_inverse
from fbmsde.errors import ConfigError, IntegrationError
from fbmsde.fbm import CholeskySampler, CirculantSampler, Hurst, TimeGrid, path_values
from fbmsde.solver import SchemeConfig, integrate

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "tests" / "golden"))
import record  # noqa: E402

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


VERIFY_MR_STDOUT = """\
drift: mean_reverting(a1=1.0, a2=1.0, gamma=0.7)
certificate: K=0 alpha=2.33333 theta=2.33333 q=1 h0=inf regime=standard
check                    status   worst margin         at x
-----------------------------------------------------------
one_sided_lipschitz      pass              0.3      5011.87
singular_lower_bound     pass        0.0107523     0.794328
upper_growth             pass      4.64252e-10       0.0001
negative_part_growth     pass        9.999e-05        10000
derivative_growth        pass      1.39333e-16     0.365174
fd_consistency_deriv1    pass         0.999819      32.5462
fd_consistency_deriv2    pass         0.951895      4097.32
"""

VERIFY_AS_STDOUT = """\
drift: ait_sahalia(a={-1:1.0, 0:1.0, 1:1.0, 2:1.0}, r=3.0, rho=1.5)
certificate: K=0 alpha=3 theta=3 q=5 h0=4.44444 regime=standard
check                    status   worst margin         at x
-----------------------------------------------------------
one_sided_lipschitz      pass          3.28071      1.15478
singular_lower_bound     pass         0.155804     0.707946
upper_growth             pass      1.00024e-12       0.0001
negative_part_growth     pass              0.5        10000
derivative_growth        pass                0     0.459727
fd_consistency_deriv1    pass         0.999876    0.0486968
fd_consistency_deriv2    pass         0.999857     0.971628
"""


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
        ladder = {"paths": 4, "k_min": 2, "k_max": 4, "k_ref": 7}
        cfg = parse_config(config_text(experiment=ladder), "converge")
        assert cfg.scheme["tol_abs"] == 1e-12
        assert cfg.scheme["bracket_growth"] == 2.0
        assert cfg.scheme["method"] == "circulant"
        assert cfg.experiment["p"] == 2.0
        assert cfg.io["out_dir"] == "."
        assert len(cfg.digest) == 64

    def test_build_model(self):
        model = parse_config(config_text(), "verify-assumptions").model
        assert model.family == "mean_reverting"
        assert model.gamma == 0.7

    def test_gamma_out_of_range_names_path(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(config_text(model={"gamma": 1.2}), "verify-assumptions")
        assert any("$.model.gamma" in e for e in excinfo.value.errors)

    def test_unknown_key_named(self):
        bad = json.loads(config_text())
        bad["model"]["gama"] = 0.7
        with pytest.raises(ConfigError) as excinfo:
            parse_config(json.dumps(bad), "verify-assumptions")
        assert any("$.model.gama" in e and "unknown" in e for e in excinfo.value.errors)

    @pytest.mark.parametrize("value", ["bogus", [], {"model": "ait_sahalia"}])
    def test_unknown_family_and_method_are_named(self, tmp_path, capsys, value):
        # a JSON list or object is reported like any unknown name, not hashed
        text = config_text(model={"model": value}, scheme={"steps": 4, "method": value})
        expected = [
            f"$.model.model: must be one of 'mean_reverting', 'ait_sahalia', got {value!r}",
            f"$.scheme.method: must be 'circulant' or 'cholesky', got {value!r}",
        ]
        with pytest.raises(ConfigError) as excinfo:
            parse_config(text, "simulate")
        assert excinfo.value.errors == expected
        # and the command prints each on its own line and writes no file
        cfg, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        cfg.write_text(text)
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "".join(f"config error: {e}\n" for e in expected)
        assert not out.exists()

    def test_syntax_error_reports_position(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config('{"seed": 1,\n  "model": }', "verify-assumptions")
        assert "line 2" in excinfo.value.errors[0]

    def test_all_errors_collected(self):
        bad = json.loads(config_text(model={"gamma": 1.2}))
        bad["extra_block"] = {}
        bad["seed"] = "not-an-int"
        with pytest.raises(ConfigError) as excinfo:
            parse_config(json.dumps(bad), "verify-assumptions")
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
            parse_config(json.dumps(cfg), "verify-assumptions")
        assert any("min(2, rho) + 1" in e for e in excinfo.value.errors)

    @pytest.mark.parametrize("p_list", [[2.0, 2.0], [2, 4.0, 2.0]])
    def test_repeated_moment_order_is_named(self, p_list):
        # 2 and 2.0 are one order, which would fold twice into one moment
        with pytest.raises(ConfigError) as excinfo:
            parse_config(
                config_text(scheme={"steps": 16}, experiment={"paths": 2, "p_list": p_list}),
                "moments",
            )
        assert excinfo.value.errors == ["$.experiment.p_list: duplicate order 2.0"]

    def test_digest_ignores_io_block(self):
        a = parse_config(config_text(), "verify-assumptions")
        b = parse_config(config_text(io={"out_dir": "elsewhere"}), "verify-assumptions")
        assert a.digest == b.digest

    def test_seed_changes_digest(self):
        a = parse_config(config_text(), "verify-assumptions")
        b = parse_config(config_text(seed=8), "verify-assumptions")
        assert a.digest != b.digest

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**65 - 1])
    def test_seed_outside_the_64_bit_range_is_rejected(self, seed):
        # the per-path mix works mod 2^64: these would alias seed 2^64 - 1
        with pytest.raises(ConfigError) as excinfo:
            parse_config(config_text(seed=seed), "verify-assumptions")
        assert excinfo.value.errors == [f"$.seed: must lie in [0, 2^64), got {seed}"]

    def test_seed_range_ends_are_accepted(self):
        for seed in (0, 2**64 - 1):
            assert parse_config(config_text(seed=seed), "verify-assumptions").seed == seed


def run_cli(*argv: str) -> int:
    return cli.main(list(argv))


def run_module(*argv: str, wrapper=(), path=(), cwd=None) -> subprocess.CompletedProcess:
    """Run ``python -m fbmsde *argv`` in a fresh interpreter on this tree's ``src``.

    ``wrapper`` is a command line that gets the fbmsde one appended and runs
    it as its child.  ``path`` holds directories put on ``sys.path`` before
    ``src``, where a ``sitecustomize`` module can patch the package at start-up.
    """
    return subprocess.run(
        [*wrapper, sys.executable, "-m", "fbmsde", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([*map(str, path), str(REPO / "src")])},
    )


@pytest.mark.parametrize("fault", ["iterable", "write"])
def test_failed_streamed_write_leaves_no_file(tmp_path, fault):
    def pieces():
        yield "first\n"
        if fault == "iterable":
            raise RuntimeError("no second piece")
        yield b"not text"  # a text file's write raises TypeError

    target = tmp_path / "out.csv"
    with pytest.raises((RuntimeError, TypeError)):
        cli._atomic_write(str(target), pieces())
    assert list(tmp_path.iterdir()) == []
    target.write_bytes(b"old\n")
    with pytest.raises((RuntimeError, TypeError)):
        cli._atomic_write(str(target), pieces())
    assert target.read_bytes() == b"old\n"
    assert [path.name for path in tmp_path.iterdir()] == ["out.csv"]


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
@pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
def test_written_file_mode_follows_the_umask(tmp_path, umask):
    out = tmp_path / "fbm.csv"
    old = os.umask(umask)
    try:
        code = run_cli("fbm", "--hurst", "0.7", "--steps", "4", "--out", str(out))
    finally:
        os.umask(old)
    assert code == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask


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

    def test_fbm_rows_equal_per_value_format(self, tmp_path):
        # 600 steps are three pieces of PATH_TEXT_LINES lines, the last short
        steps, paths, seed = 600, 2, 3
        out = tmp_path / "paths.csv"
        argv = ("fbm", "--hurst", "0.7", "--steps", str(steps), "--paths", str(paths))
        assert run_cli(*argv, "--seed", str(seed), "--out", str(out)) == 0
        grid = TimeGrid(1.0, steps)
        values = path_values(CirculantSampler(Hurst(0.7), grid).sample(seed, range(paths)))
        rows = [
            (i, n, grid.times[n], values[i, n]) for i in range(paths) for n in range(steps + 1)
        ]
        lines = out.read_text().splitlines()
        assert lines[2:] == [",".join(cli._fmt(v) for v in row) for row in rows]

    def test_fbm_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run_cli(
                "fbm", "--hurst", "0.7", "--steps", "8", "--paths", "3",
                "--seed", "11", "--method", "cholesky", "--out", str(out),
            )
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("sampler_cls", [CirculantSampler, CholeskySampler])
    def test_fbm_draws_each_chunk_with_one_sample_call(
        self, tmp_path, monkeypatch, sampler_cls
    ):
        method = "circulant" if sampler_cls is CirculantSampler else "cholesky"
        argv = (
            "fbm", "--hurst", "0.7", "--steps", "8", "--paths", "5",
            "--seed", "11", "--method", method, "--out",
        )
        whole, chunked = tmp_path / "whole.csv", tmp_path / "chunked.csv"
        assert run_cli(*argv, str(whole)) == 0
        calls = []
        real = sampler_cls.sample

        def sample(self, master_seed, path_index=0):
            calls.append(path_index)
            return real(self, master_seed, path_index)

        monkeypatch.setattr(sampler_cls, "sample", sample)
        # at most two 8-step paths per chunk: 5 paths make 3 chunks
        monkeypatch.setattr(convergence, "CHUNK_PATH_STEPS", 16)
        assert run_cli(*argv, str(chunked)) == 0
        assert calls == [range(0, 1), range(1, 3), range(3, 5)]
        assert chunked.read_bytes() == whole.read_bytes()

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
        # 600 steps are three pieces of PATH_TEXT_LINES lines per path, the
        # last short
        steps, paths = 600, 3
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config_text(scheme={"steps": steps}, experiment={"paths": paths}))
        out = tmp_path / "sim.csv"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 0
        # the same trajectories, formatted one value at a time
        run = parse_config(cfg.read_text(), "simulate")
        model = run.model
        drift = model.drift()[0]
        grid = TimeGrid(1.0, steps)
        sampler = CirculantSampler(Hurst(model.hurst), grid)
        noise = np.stack([sampler.sample(run.seed, i) for i in range(paths)])
        scheme = SchemeConfig(drift, grid, sigma=model.sigma_x, x0=model.x0)
        sol = integrate(scheme, noise)
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
        assert plain == parse_config(cfg.read_text(), "simulate").digest
        halved = digest("--steps", "16")
        assert halved == parse_config(
            config_text(scheme={"steps": 16}, experiment={"paths": 2}), "simulate"
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

    def test_moments_rejects_excessive_step_before_drawing(
        self, tmp_path, monkeypatch, capsys
    ):
        def refuse(*args):
            raise AssertionError("a sampler was built")

        monkeypatch.setattr(convergence, "make_sampler", refuse)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            config_text(
                model={"a2": -1.0},  # h0 = 1/(|a2| (1 - gamma)) = 10/3
                scheme={"steps": 1, "horizon": 4.0},
                experiment={"paths": 3},
            )
        )
        out_dir = tmp_path / "m"
        assert run_cli("moments", "--config", str(cfg), "--out-dir", str(out_dir)) == 1
        assert capsys.readouterr().err == (
            "validation error: step size h=4 must stay below the implicit-step bound "
            "h0=3.33333 for the unique-positive-root guarantee\n"
        )
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "command, steps, ladder",
        [
            ("fbm", 10**21, (2, 4, 200)),
            ("simulate", 10**30, (2, 4, 200)),
            ("moments", 10**30, (2, 4, 200)),
            ("converge", 2**200, (2, 4, 200)),  # the reference grid
            ("converge", 2**1100, (1100, 1102, 1105)),  # the plan's coarsest level
        ],
        ids=["fbm", "simulate", "moments", "converge", "converge-k_min"],
    )
    def test_grid_past_any_memory_is_a_runtime_error(
        self, tmp_path, capsys, command, steps, ladder
    ):
        # numpy cannot even size such a grid's arrays, and raises ValueError
        # where a grid merely too large for this machine gets MemoryError
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            config_text(
                scheme={"steps": steps},
                experiment={"paths": 2, **dict(zip(("k_min", "k_max", "k_ref"), ladder))},
            )
        )
        out = str(tmp_path / "out.csv")
        argv = {
            "fbm": ["--hurst", "0.7", "--steps", str(steps), "--out", out],
            "simulate": ["--config", str(cfg), "--out", out],
            "moments": ["--config", str(cfg), "--out-dir", str(tmp_path / "m")],
            "converge": ["--config", str(cfg), "--out-dir", str(tmp_path / "c"), "--threads", "1"],
        }[command]
        assert run_cli(command, *argv) == 2
        assert capsys.readouterr().err == (
            f"runtime error: out of memory: a grid of {steps} steps is past the "
            "281474976710656-step limit\n"
        )
        assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]

    def test_invalid_config_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config_text(model={"gamma": 1.2}))
        code = run_cli("simulate", "--config", str(cfg))
        assert code == 1
        assert "$.model.gamma" in capsys.readouterr().err

    def test_missing_config_flag(self, capsys):
        assert run_cli("converge") == 1

    def test_one_path_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            config_text(
                scheme={"steps": 16},
                experiment={"paths": 1, "k_min": 3, "k_max": 5, "k_ref": 8},
            )
        )
        sim = tmp_path / "sim.csv"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(sim)) == 0
        assert len(sim.read_text().splitlines()) == 2 + 17
        mom = tmp_path / "mom"
        assert run_cli("moments", "--config", str(cfg), "--out-dir", str(mom)) == 0
        assert json.loads((mom / "probe.json").read_text())["paths"] == 1
        # the ladder's own minimum of two paths still holds
        conv = tmp_path / "conv"
        capsys.readouterr()
        code = run_cli("converge", "--config", str(cfg), "--out-dir", str(conv))
        assert code == 1
        assert capsys.readouterr().err == (
            "config error: $.experiment.paths: must be an integer >= 2, got 1\n"
        )
        assert not conv.exists()

    @pytest.mark.parametrize("command", ["simulate", "moments", "verify-assumptions"])
    def test_keep_paths_is_a_converge_flag(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(command, "--config", str(tmp_path / "cfg.json"), "--keep-paths")
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --keep-paths" in capsys.readouterr().err

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

        def failing(plan, workers=1):
            report = real(plan, workers=workers)
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

    @pytest.mark.parametrize(
        "command, argv, files",
        [
            ("simulate", [], ["simulate.csv"]),
            ("converge", ["--threads", "1", "--keep-paths"],
             ["errors.csv", "levels.csv", "report.json"]),
            ("moments", [], ["modulus.csv", "moments.csv", "probe.json"]),
        ],
    )
    def test_every_output_names_its_run(self, tmp_path, command, argv, files):
        # each CSV opens with the run's seed and digest, and each JSON report
        # holds them in its meta block and is written with sorted keys
        text = config_text(
            seed=11,
            scheme={"steps": 128},
            experiment={"paths": 5, "k_min": 2, "k_max": 4, "k_ref": 7},
        )
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out_dir = tmp_path / "out"
        code = run_cli(command, "--config", str(cfg), "--out-dir", str(out_dir), *argv)
        assert code in (cli.EXIT_OK, cli.EXIT_BAND)
        digest = parse_config(text, command).digest
        assert sorted(path.name for path in out_dir.iterdir()) == files
        for name in files:
            body = (out_dir / name).read_text()
            if name.endswith(".json"):
                report = json.loads(body)
                assert body == json.dumps(report, indent=2, sort_keys=True) + "\n"
                assert report["meta"] == {"master_seed": 11, "config_digest": digest}
            else:
                assert body.split("\n", 1)[0] == f"# master_seed=11 config_digest={digest}"

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

    def test_converge_estimate_out_of_float_range_is_a_runtime_error(
        self, tmp_path, capsys
    ):
        # levels 2^2..2^4 against 2^7: at p = 150 every path's e^p underflows
        # to 0.0 at level 3, so no order can be fitted, and the run names p,
        # level and kind
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            config_text(experiment={"paths": 8, "k_min": 2, "k_max": 4, "k_ref": 7, "p": 150})
        )
        out_dir = tmp_path / "o"
        code = run_cli(
            "converge", "--config", str(cfg), "--out-dir", str(out_dir), "--threads", "1"
        )
        assert code == cli.EXIT_RUNTIME
        assert capsys.readouterr().err == (
            "runtime error: level 3 x_node: the p=150.0 error estimate is 0.0 with "
            "bootstrap stderr 0.0; an order fit needs a finite positive estimate "
            "and a finite stderr\n"
        )
        assert not out_dir.exists()

    def test_converge_dead_worker_is_a_clean_runtime_error(self, tmp_path):
        # a worker killed mid-chunk (OOM killer, signal) breaks the pool; in a
        # subprocess, since the worker dies by os._exit
        (tmp_path / "sitecustomize.py").write_text(
            "import os\n"
            "import fbmsde.convergence as convergence\n"
            "def die(plan, noise, start):\n"
            "    os._exit(9)\n"
            "convergence._ladder_chunk = die\n"
            "convergence._available_cpus = lambda: 2\n"
        )
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            config_text(experiment={"paths": 4, "k_min": 2, "k_max": 4, "k_ref": 7})
        )
        out_dir = tmp_path / "o"
        proc = run_module(
            "converge", "--config", str(cfg), "--threads", "2", "--out-dir", str(out_dir),
            path=[tmp_path],
        )
        assert proc.returncode == 2, proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith(
            "runtime error: a worker process died before returning its paths"
        )
        assert not out_dir.exists()

    def test_converge_incomplete_names_the_failed_path(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            config_text(experiment={"paths": 4, "k_min": 2, "k_max": 4, "k_ref": 7})
        )
        make_sampler = convergence.make_sampler

        class Sampler:
            def __init__(self, *args):
                self.inner = make_sampler(*args)

            def sample(self, master_seed, paths):
                noise = self.inner.sample(master_seed, paths).copy()
                if 2 in paths:
                    # step 96 of the 2^7 reference, and so of every level's
                    # block sums: the same instant on every grid
                    noise[2 - paths.start, 96] = np.nan
                return noise

        monkeypatch.setattr(convergence, "make_sampler", Sampler)
        out_dir = tmp_path / "o"
        code = run_cli("converge", "--config", str(cfg), "--out-dir", str(out_dir),
                       "--threads", "1")
        assert code == 2
        err = capsys.readouterr().err
        assert "incomplete: 1 path(s) failed, the first path 2 at level 7, step 96" in err
        assert json.loads((out_dir / "report.json").read_text())["failures"] == [[2, 7, 96]]

    def test_moments_runs_a_critical_model_with_positive_k(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        model = {"a1": 2.648, "a2": -4.362, "gamma": 0.5, "sigma": 0.325, "y0": 1.482,
                 "hurst": 0.736}
        cfg.write_text(
            config_text(model=model, scheme={"steps": 16}, experiment={"paths": 2})
        )
        with pytest.warns(UserWarning, match="critical-regime model"):
            code = run_cli("moments", "--config", str(cfg), "--out-dir", str(tmp_path / "m"))
        assert code == 0, capsys.readouterr().err
        assert (tmp_path / "m" / "probe.json").exists()

    def test_stray_arithmetic_error_is_a_runtime_error(self, tmp_path, monkeypatch, capsys):
        def overflowing(*args, **kwargs):
            raise OverflowError("math range error")

        monkeypatch.setattr(cli, "moment_probe", overflowing)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config_text(scheme={"steps": 16}, experiment={"paths": 2}))
        code = run_cli("moments", "--config", str(cfg), "--out-dir", str(tmp_path / "m"))
        assert code == 2
        assert capsys.readouterr().err == "runtime error: OverflowError: math range error\n"

    def test_moment_out_of_float_range_is_a_runtime_error(self, tmp_path, capsys):
        # a path minimum below 1 takes x^-p past the float range at order
        # 20000; order 2000 still fits and keeps its bytes
        def moments(p, out_dir):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(
                config_text(scheme={"steps": 64}, experiment={"paths": 8, "p_list": [p]})
            )
            return run_cli("moments", "--config", str(cfg), "--out-dir", str(out_dir))

        assert moments(2000.0, tmp_path / "fits") == 0
        rows = (tmp_path / "fits" / "moments.csv").read_text().splitlines()
        # the goldens' rule: its bytes under their dispatch target, its
        # numbers elsewhere, since x^-2000 magnifies a last-bit difference
        # of the path minimum 2000 times
        assert record.matches(
            rows[2].encode(),
            b"2000.0,5.054740167573327e+225,3.836737534949133e+123",
            record.exact_here(),
        )
        capsys.readouterr()
        assert moments(20000.0, tmp_path / "overflows") == cli.EXIT_RUNTIME
        assert capsys.readouterr().err == (
            "runtime error: the p=20000.0 negative moment E sup X^-20000.0 is out of "
            "float range\n"
        )
        assert not (tmp_path / "overflows").exists()

    @pytest.mark.parametrize(
        "command, stage",
        [("fbm", "make_sampler"), ("simulate", "integrate"), ("moments", "moment_probe")],
    )
    def test_out_of_memory_is_a_runtime_error(
        self, tmp_path, monkeypatch, capsys, command, stage
    ):
        # numpy refusing an allocation, stood in for: a real oversized one can
        # get the process killed instead where memory is overcommitted
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 PiB for an array")

        # the one chunk pipeline builds every command's samplers
        monkeypatch.setattr(convergence if stage == "make_sampler" else cli, stage, refuse)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config_text(scheme={"steps": 16}, experiment={"paths": 2}))
        out = str(tmp_path / "out.csv")
        argv = {
            "fbm": ["--hurst", "0.7", "--steps", "16", "--out", out],
            "simulate": ["--config", str(cfg), "--out", out],
            "moments": ["--config", str(cfg), "--out-dir", str(tmp_path / "m")],
        }[command]
        assert run_cli(command, *argv) == 2
        assert capsys.readouterr().err == (
            "runtime error: out of memory: Unable to allocate 8.00 PiB for an array\n"
        )
        assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("command", ["fbm", "simulate"])
    def test_grid_too_large_for_memory_fails_before_the_node_labels(
        self, tmp_path, monkeypatch, capsys, command
    ):
        # The grid's times are the first grid-sized array, so numpy refusing
        # it ends the run at once; building the labels first would grow a
        # list of 10^10 strings until the process was killed.
        def refuse(grid):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        def labels(*args):
            raise AssertionError("node labels built before the grid's times")

        monkeypatch.setattr(TimeGrid, "times", property(refuse))
        monkeypatch.setattr(cli, "range", labels, raising=False)
        steps = str(10**10)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config_text(experiment={"paths": 2}))
        out = str(tmp_path / "out.csv")
        argv = {
            "fbm": ["--hurst", "0.7", "--steps", steps, "--out", out],
            "simulate": ["--config", str(cfg), "--steps", steps, "--out", out],
        }[command]
        assert run_cli(command, *argv) == 2
        assert capsys.readouterr().err == (
            "runtime error: out of memory: Unable to allocate 74.5 GiB for an array\n"
        )
        assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]

    def test_threads_default_to_the_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        args = cli.build_parser().parse_args(["converge", "--config", "x.json"])
        assert args.threads == 3

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

    def test_simulate_memory_beyond_its_arrays_does_not_grow_with_paths(
        self, tmp_path, monkeypatch
    ):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "sim.csv"

        def peak(paths):
            tracemalloc.start()
            try:
                assert run_cli(
                    "simulate", "--config", str(cfg), "--paths", str(paths),
                    "--out", str(out),
                ) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # 2048 Cholesky steps are past the kept-panel budget, so each draw
        # generates its panels
        for method, steps in (("circulant", 1024), ("cholesky", 2048)):
            # two paths per chunk, so 8 paths make four chunks
            monkeypatch.setattr(convergence, "CHUNK_PATH_STEPS", 2 * steps)
            cfg.write_text(config_text(scheme={"steps": steps, "method": method}))
            peak(2)  # first-call allocations (imports, caches) are not per path
            small = peak(2)
            path_text = out.stat().st_size / 2
            assert peak(8) - small < path_text

    def test_simulate_write_phase_holds_no_whole_path_text(self, tmp_path, monkeypatch):
        measured = {}

        def atomic_write(path, parts):
            parts = iter(parts)
            next(parts)  # the CSV head, yielded once path 0's columns are built
            numpy_data = tracemalloc.DomainFilter(False, np.lib.tracemalloc_domain)
            text, held = 0, 0
            tracemalloc.start()
            try:
                for piece in parts:
                    text += len(piece)
                    # Python objects alive while a piece is being written
                    snapshot = tracemalloc.take_snapshot().filter_traces([numpy_data])
                    held = max(held, sum(trace.size for trace in snapshot.traces))
                    del snapshot
                measured.update(text=text, held=held, peak=tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(cli, "_atomic_write", atomic_write)
        cfg = tmp_path / "cfg.json"
        # one chunk, two paths of 2^14 steps: about 2.4 MB of text.  The head
        # comes once path 0's columns are built, so path 1's numeric
        # temporaries (np.unique of its residuals, lamperti_inverse) are the
        # ones the window sees.
        cfg.write_text(config_text(scheme={"steps": 2**14}, experiment={"paths": 2}))
        assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "sim.csv")) == 0
        # measured 0.03 of the two paths' text, 1.4 when each path's lines
        # were joined into one piece
        assert measured["held"] < measured["text"] / 4
        # measured 0.29 (0.58 of one path's text), 2.6 when each path's lines
        # were joined into one piece
        assert measured["peak"] < 2 * measured["text"]

    def test_simulate_failure_in_a_later_chunk_names_its_path(
        self, tmp_path, monkeypatch, capsys
    ):
        calls = []
        real = cli.integrate

        def integrate(*args, **kwargs):
            sol = real(*args, **kwargs)
            calls.append(len(sol.values))
            if len(calls) == 2:
                sol.failures[1] = IntegrationError("injected", step=3)
            return sol

        monkeypatch.setattr(cli, "integrate", integrate)
        # at most two 16-step paths per chunk: 5 paths make chunks 0, 1-2, 3-4
        monkeypatch.setattr(convergence, "CHUNK_PATH_STEPS", 32)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config_text(scheme={"steps": 16}))
        out = tmp_path / "sim.csv"
        out.write_bytes(b"old\n")
        code = run_cli("simulate", "--config", str(cfg), "--paths", "5", "--out", str(out))
        assert code == 2
        assert "runtime error: path 2: injected" in capsys.readouterr().err
        assert calls == [1, 2]
        assert out.read_bytes() == b"old\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json", "sim.csv"]

    @pytest.mark.parametrize("steps", [600, 2048], ids=["kept", "streamed"])
    def test_simulate_cholesky_factorization_error_writes_no_file(
        self, tmp_path, monkeypatch, capsys, steps
    ):
        def indefinite(hurst, h, lags):
            gamma = np.zeros(lags)
            gamma[:2] = 1.0, 2.0  # the second leading minor is negative
            return gamma

        monkeypatch.setattr("fbmsde.fbm._fgn_autocovariance", indefinite)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config_text(scheme={"steps": steps, "method": "cholesky"}))
        out = tmp_path / "sim.csv"
        code = run_cli("simulate", "--config", str(cfg), "--paths", "3", "--out", str(out))
        assert code == 2
        assert "pivot 2" in capsys.readouterr().err
        assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]

    # Each command's path-chunk pipeline: its argument lines at 5 paths of
    # 2^7 steps (the converge reference), and the function its chunk task
    # calls on the drawn noise.
    CHUNKED = {
        "fbm": (["--hurst", "0.7", "--steps", "128", "--paths", "5"], cli, "path_values"),
        "simulate": (["--threads", "1"], cli, "integrate"),
        "moments": (["--threads", "1"], convergence, "integrate_blocks"),
        "converge": (["--threads", "1"], convergence, "integrate"),
    }

    def _run_chunked(self, tmp_path, command, name) -> dict:
        """Run ``command`` of CHUNKED into ``tmp_path / name``; its files' bytes."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            config_text(
                scheme={"steps": 128, "method": "cholesky"},
                experiment={"paths": 5, "k_min": 2, "k_max": 4, "k_ref": 7},
            )
        )
        out = tmp_path / name
        argv, _, _ = self.CHUNKED[command]
        where = ["--out", str(out / "fbm.csv")] if command == "fbm" else [
            "--config", str(cfg), "--out-dir", str(out)
        ]
        assert run_cli(command, *argv, *where) in (cli.EXIT_OK, cli.EXIT_BAND)
        return {path.name: path.read_bytes() for path in out.iterdir()}

    @pytest.mark.parametrize("command", list(CHUNKED))
    def test_chunks_move_no_output_byte(self, tmp_path, monkeypatch, command):
        make_sampler = convergence.make_sampler
        chunks = []

        def counted(*args):
            chunks.append(args)
            return make_sampler(*args)

        monkeypatch.setattr(convergence, "make_sampler", counted)
        whole = self._run_chunked(tmp_path, command, "whole")
        assert len(chunks) == 1
        # at most two paths of 2^7 steps per chunk: 5 paths make 3 chunks
        monkeypatch.setattr(convergence, "CHUNK_PATH_STEPS", 2 * 128)
        chunks.clear()
        assert self._run_chunked(tmp_path, command, "chunked") == whole
        assert len(chunks) == 3

    @pytest.mark.parametrize("command", list(CHUNKED))
    def test_no_sampler_is_alive_while_its_chunk_runs(self, tmp_path, monkeypatch, command):
        _, owner, task = self.CHUNKED[command]
        make_sampler, run_task = convergence.make_sampler, getattr(owner, task)
        samplers, alive = [], []

        def tracked(*args):
            sampler = make_sampler(*args)
            samplers.append(weakref.ref(sampler))
            return sampler

        def traced(*args, **kwargs):
            alive.append(samplers[-1]() is not None)
            return run_task(*args, **kwargs)

        monkeypatch.setattr(convergence, "make_sampler", tracked)
        monkeypatch.setattr(owner, task, traced)
        # two paths per chunk, so each command builds three samplers
        monkeypatch.setattr(convergence, "CHUNK_PATH_STEPS", 2 * 128)
        self._run_chunked(tmp_path, command, "out")
        assert len(samplers) == 3 and alive and not any(alive)

    @pytest.mark.parametrize("command", ["fbm", "simulate"])
    def test_no_earlier_chunk_is_alive_while_the_next_runs(self, tmp_path, monkeypatch, command):
        # the path writer frees each chunk's result, and the columns of its
        # last path, before the next chunk is drawn
        _, owner, task = self.CHUNKED[command]
        run_task = getattr(owner, task)
        results, alive = [], []

        def traced(*args, **kwargs):
            alive.extend(result() is not None for result in results)
            result = run_task(*args, **kwargs)
            results.append(weakref.ref(result))
            return result

        monkeypatch.setattr(owner, task, traced)
        # two paths per chunk, so each command runs three chunks
        monkeypatch.setattr(convergence, "CHUNK_PATH_STEPS", 2 * 128)
        self._run_chunked(tmp_path, command, "out")
        assert len(results) == 3 and alive and not any(alive)

    def test_moments_rejects_a_repeated_order(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            config_text(scheme={"steps": 64}, experiment={"paths": 8, "p_list": [2, 2.0]})
        )
        out_dir = tmp_path / "moments"
        assert run_cli("moments", "--config", str(cfg), "--out-dir", str(out_dir)) == 1
        assert "$.experiment.p_list: duplicate order 2.0" in capsys.readouterr().err
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

    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**65 - 1)])
    @pytest.mark.parametrize("command", ["fbm", "simulate", "converge", "moments"])
    def test_rejects_a_seed_outside_the_64_bit_range(self, tmp_path, capsys, command, seed):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            config_text(
                scheme={"steps": 16},
                experiment={"paths": 4, "k_min": 3, "k_max": 5, "k_ref": 8},
            )
        )
        if command == "fbm":
            where = ["--hurst", "0.7", "--steps", "16", "--out", str(tmp_path / "fbm.csv")]
        else:
            where = ["--config", str(cfg), "--out-dir", str(tmp_path / "out")]
        assert run_cli(command, *where, "--seed", seed) == 1
        assert f"validation error: --seed must lie in [0, 2^64), got {seed}" in (
            capsys.readouterr().err
        )
        assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]

    def test_largest_seed_draws_its_own_paths(self, tmp_path):
        def draw(seed):
            out = tmp_path / f"fbm-{seed}.csv"
            argv = ["--hurst", "0.7", "--steps", "8", "--paths", "2", "--seed", seed]
            assert run_cli("fbm", *argv, "--out", str(out)) == 0
            return out.read_text().splitlines()[2:]

        assert draw(str(2**64 - 1)) != draw("0")

    @pytest.mark.parametrize("threads", ["0", "-2"])
    @pytest.mark.parametrize("command", ["simulate", "converge", "moments"])
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
        "command, overrides, layers, solver_steps",
        [
            (
                ["simulate", "--out", "sim.csv"],
                {"scheme": {"steps": 16}, "experiment": {"paths": 2}},
                {"solver", "fbm.sample", "drifts.lamperti_inverse"},
                2 * 16,
            ),
            (
                ["converge", "--out-dir", ".", "--threads", "1"],
                {"experiment": {"paths": 4, "k_min": 3, "k_max": 5, "k_ref": 8}},
                {"convergence", "solver", "fbm.sample", "fbm.subsample"},
                None,
            ),
        ],
        ids=["simulate", "converge"],
    )
    def test_traced_benchmark_child_runs(
        self, tmp_path, command, overrides, layers, solver_steps
    ):
        # the traced child wraps module attributes by name, so a renamed or
        # removed one crashes the benchmark; it counts a solver span's steps
        # from the iteration records of what the wrapped call returns, so
        # simulate's spans must count every path-step
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
        spans = json.loads(stats.read_text())["spans"]
        assert layers <= {span[1] for span in spans}
        if solver_steps is not None:
            assert sum(span[5][0] for span in spans if span[1] == "solver") == solver_steps

    def test_verify_assumptions(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config_text())
        assert run_cli("verify-assumptions", "--config", str(cfg)) == 0
        out = capsys.readouterr().out
        assert "one_sided_lipschitz" in out
        assert "pass" in out

    @pytest.mark.parametrize(
        "model, expected",
        [
            (MINIMAL_MR["model"], VERIFY_MR_STDOUT),
            (
                {
                    "model": "ait_sahalia", "a_m1": 1.0, "a0": 1.0, "a1": 1.0,
                    "a2": 1.0, "r": 3.0, "rho": 1.5, "sigma": 0.5, "y0": 1.0,
                    "hurst": 0.7,
                },
                VERIFY_AS_STDOUT,
            ),
        ],
        ids=["mean_reverting", "ait_sahalia"],
    )
    def test_verify_assumptions_output_is_pinned(self, tmp_path, capsys, model, expected):
        # the models of the docs' two complete examples; every worst margin
        # and the point where it occurs is part of the pinned text
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 7, "model": model}))
        assert run_cli("verify-assumptions", "--config", str(cfg)) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize(
        "flag, value", [("--seed", "3"), ("--threads", "2"), ("--out-dir", "out")]
    )
    def test_verify_assumptions_takes_only_config(self, tmp_path, capsys, flag, value):
        # the audit writes no file, prints no seed and runs in this process
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config_text())
        with pytest.raises(SystemExit) as excinfo:
            run_cli("verify-assumptions", "--config", str(cfg), flag, value)
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

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

    def test_cli_import_loads_no_process_pool(self):
        # only a pooled converge imports the pool, at the moment it spawns it
        code = (
            "import sys, fbmsde.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('concurrent', 'multiprocessing'))))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "[]"

    def test_benchmark_hooks_name_existing_attributes(self):
        # the benchmark's tracer wraps package attributes by name, so a
        # renamed one fails here and not only in the benchmark's self-test
        path = os.pathsep.join([str(REPO / "src"), str(REPO / "perfbench")])
        proc = subprocess.run(
            [sys.executable, "-c", "import child; child.install(child.Tracer())"],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "p.csv"
        proc = run_module("fbm", "--hurst", "0.7", "--steps", "2", "--out", str(out))
        assert proc.returncode == 0
        assert out.exists()

    @pytest.mark.parametrize(
        "bound, argv, config",
        [
            # a Cholesky draw holds one 2 MB panel buffer, never the factor (1 GB
            # at 2^14 steps); 71.8 MB with a 256-column buffer of 32 MB
            (
                56,
                ["fbm", "--method", "cholesky", "--hurst", "0.7", "--steps", "16384",
                 "--paths", "4", "--out", "out.csv"],
                None,
            ),
            # 45.0 MB with an 8 MB panel buffer
            (
                56,
                ["simulate", "--config", "cfg.json", "--paths", "8", "--out", "out.csv"],
                {"scheme": {"steps": 4096, "method": "cholesky"}},
            ),
            # the probe streams each chunk through one set of block buffers, 16
            # blocks of 1024 steps here: 48.5 MB with fresh solver arrays per
            # block, 54.5 MB with every block kept until the chunk ends
            (
                52,
                ["moments", "--config", "cfg.json", "--out-dir", "out"],
                {"scheme": {"steps": 16384}, "experiment": {"paths": 64}},
            ),
            # the benchmark's pooled ladder: the workers inherit numpy.random and
            # numpy.fft and free the levels' noise before the reference, so the
            # parent sets the peak; 40.6 MB with each worker importing its own
            (
                42,
                ["converge", "--config", "cfg.json", "--threads", "2", "--out-dir", "out"],
                {"experiment": {"paths": 200, "k_min": 4, "k_max": 9, "k_ref": 13}},
            ),
        ],
        ids=["fbm-cholesky", "simulate-cholesky", "moments", "converge-pooled"],
    )
    def test_peak_rss_stays_bounded(self, tmp_path, bound, argv, config):
        # a fresh wrapper process reads its children's peak RSS, pool workers
        # included since the CLI waits for them; pytest's own RUSAGE_CHILDREN
        # already holds every subprocess an earlier test ran
        peak = (
            "import resource, subprocess, sys; "
            "subprocess.run(sys.argv[1:], check=True); "
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)"
        )
        if config is not None:
            (tmp_path / "cfg.json").write_text(config_text(**config))
        proc = run_module(*argv, wrapper=[sys.executable, "-c", peak], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        mb = float(proc.stdout.splitlines()[-1])
        print(f"{argv[0]} peak RSS {mb:.1f} MB")
        assert mb <= bound
