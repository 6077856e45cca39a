"""Contract of the CLI over the configuration space.

Draws config-valid models of both families, edges included, and runs every
subcommand in-process on small grids.  Whatever the model, a run exits 0-3
and never raises, emits no RuntimeWarning, writes no NaN or Infinity into
JSON, names the path and step of an integration failure, and writes the same
converge bytes for any pool size.
"""

import contextlib
import io
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fbmsde.cli as cli
from fbmsde.drifts import MODELS, lamperti_inverse
from fbmsde.fbm import TimeGrid, make_sampler
from fbmsde.solver import SchemeConfig, integrate

from oracles import lamperti_inverse_extended

# grids of at most 64 steps: simulate and moments, and the converge reference
STEPS = 64
PATHS = 3
LADDER = {"k_min": 1, "k_max": 3, "k_ref": 6}

# Ait-Sahalia models whose steps once failed on a NaN from the solver's own
# fallback leaping out of the drift's float range; each step's root lies
# where the drift is finite.  (model, horizon, steps, seed)
NAN_LEAP_MODELS = [
    (
        {"model": "ait_sahalia", "a_m1": 0.255835, "a0": 0.084254, "a1": 3.506749,
         "a2": 0.698928, "r": 4.465532, "rho": 2.046667, "sigma": 0.414849, "y0": 0.01027,
         "hurst": 0.61893},
        0.1, 64, 997188871,
    ),
    (
        {"model": "ait_sahalia", "a_m1": 0.677842, "a0": 0.152658, "a1": 9.818693,
         "a2": 0.150282, "r": 3.53886, "rho": 1.002503, "sigma": 0.167727, "y0": 169.132127,
         "hurst": 0.771423},
        5.0, 16, 4230257624,
    ),
    (
        {"model": "ait_sahalia", "a_m1": 7.166894, "a0": 0.03628, "a1": 0.651394,
         "a2": 5.881167, "r": 6.762823, "rho": 2.993338, "sigma": -0.014496, "y0": 0.003068,
         "hurst": 0.578716},
        0.1, 16, 1613438798,
    ),
]


# Per NaN-leap model, bounds on the solver's largest iteration count for one
# step and on its total, on 8 circulant paths.  They measured 15 and 1329,
# 16 and 601, and 29 and 1032; without the log-space Newton fallback, where
# every step that plain Newton does not settle expands or bisects its
# bracket, 113 and 2897, 25 and 720, and 116 and 4680.
LEAP_ITERATION_BOUNDS = [(20, 1500), (20, 660), (40, 1200)]


def _leap(index: int) -> dict:
    return dict(zip(("model", "horizon", "steps", "seed"), NAN_LEAP_MODELS[index]))


def _config(model: dict, horizon: float, steps: int, seed: int, method: str) -> dict:
    return {
        "seed": seed,
        "model": model,
        "scheme": {"horizon": horizon, "steps": steps, "method": method},
        "experiment": {"paths": PATHS, "p_list": [2.0, 4.0], **LADDER},
    }


def _signed(magnitude):
    return st.tuples(magnitude, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


def _decades(low: int, high: int):
    return st.floats(low, high).map(lambda e: float(10.0**e))


MEAN_REVERTING = st.fixed_dictionaries({
    "model": st.just("mean_reverting"),
    "a1": _decades(-1, 1),
    "a2": st.one_of(st.floats(-2.0, 0.0), st.floats(0.0, 5.0)),
    "gamma": st.one_of(st.just(0.5), st.floats(0.5, 0.95), st.just(0.98)),
    "sigma": _signed(st.floats(0.01, 2.0)),
    "y0": _decades(-3, 3),
    "hurst": st.floats(0.55, 0.95),
})


@st.composite
def ait_sahalia(draw):
    rho = draw(st.one_of(st.floats(1.001, 1.05), st.floats(1.05, 3.0)))
    r_floor = max(2.0 * rho - 1.0, min(2.0, rho) + 1.0)
    return {
        "model": "ait_sahalia",
        "a_m1": draw(_decades(-1, 1)),
        "a0": draw(_decades(-1.5, 1)),
        "a1": draw(_decades(-1, 1)),
        "a2": draw(_decades(-1, 1)),
        "r": r_floor + draw(st.floats(0.01, 4.0)),
        "rho": rho,
        "sigma": draw(_signed(st.floats(0.01, 2.0))),
        "y0": draw(_decades(-3, 3)),
        "hurst": draw(st.floats(0.55, 0.95)),
    }


# H = nextafter(0.5, 1) puts 1/H - 1 at 1 - 4.4e-16.  At the rules' edges,
# mean-reverting at gamma = 1/2 has alpha = 1, and Ait-Sahalia with r at the
# smallest float its rules accept has alpha = 1 + 2.2e-16 (rho = 2.336): the
# smallest margins an edge search over both families found.
EDGE_HURST = math.nextafter(0.5, 1.0)
MR_EDGE = {"model": "mean_reverting", "a1": 1.0, "a2": 1.0, "gamma": 0.5,
           "sigma": 0.5, "y0": 1.0, "hurst": EDGE_HURST}
AS_EDGE = {"model": "ait_sahalia", "a_m1": 1.0, "a0": 1.0, "a1": 1.0, "a2": 1.0,
           "r": 3.672, "rho": 2.336, "sigma": 0.5, "y0": 1.0, "hurst": EDGE_HURST}


@settings(max_examples=200, deadline=None)
@given(model=st.one_of(MEAN_REVERTING, ait_sahalia()))
@example(model=MR_EDGE)
@example(model=AS_EDGE)
def test_rules_give_alpha_above_the_hurst_bound(model):
    # the positivity theory needs alpha > 1/H - 1, and no model that passes
    # its family's rules breaks it: gamma >= 1/2 and r + 1 > 2 rho give
    # alpha >= 1, and H > 1/2 gives 1/H - 1 < 1
    params = dict(model)
    spec = MODELS[params.pop("model")](**params)
    assert spec.drift()[1].alpha >= 1.0 > 1.0 / spec.hurst - 1.0


# K h0 = 1 - 1.1e-13, and K h0 = 1 - 7.2e-8 with b2 = (rho - 1) a1 nearly 0,
# where K comes within b2 of the non-singular part's peak 1/h0
MR_STIFF = {"model": "mean_reverting", "a1": 1.0, "a2": -1.0, "gamma": 0.7,
            "sigma": 0.5, "y0": 1.0, "hurst": 0.7}
AS_TINY_A1 = {"model": "ait_sahalia", "a_m1": 0.1083, "a0": 5.599, "a1": 5.08e-14,
              "a2": 0.7345, "r": 5.2112, "rho": 2.519, "sigma": 0.5, "y0": 1.0, "hurst": 0.7}


@settings(max_examples=200, deadline=None)
@given(model=st.one_of(MEAN_REVERTING, ait_sahalia()))
@example(model=MR_STIFF)
@example(model=AS_TINY_A1)
def test_certificate_step_bound_keeps_h_below_one_over_k(model):
    # SchemeConfig.for_model checks only h < h0: with K h0 <= 1 every such h
    # is below 1/K too.  Mean-reverting has K <= -a2 (1 - gamma) = 1/h0 when
    # a2 < 0 and K = 0 otherwise; Ait-Sahalia has K <= sup B' <= 1/h0 - b2.
    params = dict(model)
    cert = MODELS[params.pop("model")](**params).drift()[1]
    assert cert.K == 0.0 or (cert.K * cert.h0 <= 1.0 and cert.h0 <= 1.0 / cert.K)


# 1/m = 20: Y overflows at x = 1e30, where X^hi + X^hi (lo log X) would
# read inf - inf
MR_STEEP = {**MR_EDGE, "gamma": 0.95, "hurst": 0.7}


@pytest.mark.skipif(
    np.finfo(np.longdouble).nmant < 63, reason="np.longdouble is a plain double here"
)
@settings(max_examples=200, deadline=None)
@given(model=st.one_of(MEAN_REVERTING, ait_sahalia()), first=st.floats(-7.0, -5.0))
@example(model=MR_STEEP, first=-6.0)
@example(model=AS_EDGE, first=-6.0)
def test_lamperti_inverse_is_within_an_ulp_of_extended_precision(model, first):
    params = dict(model)
    spec = MODELS[params.pop("model")](**params)
    xs = np.append(np.logspace(first, first + 12.0, 241), [1e-30, 1e30])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        y = lamperti_inverse(spec, xs)
        exact = lamperti_inverse_extended(spec, xs)
    # out of float range, Y is inf or 0.0 exactly where the exact power is
    assert not np.isnan(y).any()
    assert np.array_equal(np.isinf(y), np.isinf(exact))
    assert np.array_equal(y == 0.0, exact == 0.0)
    inside = np.isfinite(exact) & (exact > 0.0)
    assert np.all(np.abs(y[inside] - exact[inside]) <= np.spacing(exact[inside]))


def _reject_constant(constant):
    raise AssertionError(f"non-JSON constant {constant} in output")


def _run(*argv) -> int:
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(
        err
    ), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = cli.main(list(argv))
    err = err.getvalue()
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not runtime, (argv, [str(w.message) for w in runtime])
    assert code in (0, 1, 2, 3), (argv, code, err)
    if code == 2:
        # a failed integration names its path and step
        named = re.search(r"path \d+.*step \d+", err) or "(path, level, step): [[" in err
        assert named, (argv, err)
    return code


def _check_json(directory):
    for path in sorted(directory.glob("*.json")):
        json.loads(path.read_text(), parse_constant=_reject_constant)


def _check_every_subcommand(tmp_path, config: dict) -> dict:
    """Run each subcommand on ``config``; returns the exit code of each."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    codes = {"verify-assumptions": _run("verify-assumptions", "--config", str(cfg))}
    model, scheme = config["model"], config["scheme"]
    codes["fbm"] = _run(
        "fbm", "--hurst", repr(model["hurst"]), "--steps", str(scheme["steps"]),
        "--horizon", repr(scheme["horizon"]), "--paths", str(PATHS),
        "--seed", str(config["seed"]), "--method", scheme["method"],
        "--out", str(tmp_path / "fbm.csv"),
    )
    codes["simulate"] = _run(
        "simulate", "--config", str(cfg), "--out", str(tmp_path / "simulate.csv")
    )
    codes["moments"] = _run(
        "moments", "--config", str(cfg), "--out-dir", str(tmp_path / "moments")
    )
    _check_json(tmp_path / "moments")
    outputs = {}
    for threads in ("1", "2"):
        out_dir = tmp_path / f"converge-{threads}"
        codes["converge"] = _run(
            "converge", "--config", str(cfg), "--threads", threads,
            "--keep-paths", "--out-dir", str(out_dir),
        )
        _check_json(out_dir)
        outputs[threads] = {
            path.name: path.read_bytes() for path in sorted(out_dir.glob("*"))
        }
    assert outputs["1"] == outputs["2"]
    return codes


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    model=st.one_of(MEAN_REVERTING, ait_sahalia()),
    horizon=st.floats(0.1, 5.0),
    steps=st.sampled_from([1, 2, 16, STEPS]),
    seed=st.integers(0, 2**32 - 1),
    method=st.sampled_from(["circulant", "cholesky"]),
)
@example(**_leap(0), method="circulant")
@example(**_leap(1), method="circulant")
@example(**_leap(2), method="cholesky")
def test_every_subcommand_keeps_its_contract(
    tmp_path_factory, model, horizon, steps, seed, method
):
    config = _config(model, horizon, steps, seed, method)
    codes = _check_every_subcommand(tmp_path_factory.mktemp("run"), config)
    if any(model == leap[0] for leap in NAN_LEAP_MODELS):
        assert codes["simulate"] == codes["moments"] == 0, codes


def test_nan_leap_models_take_the_log_newton_fallback():
    for (model, horizon, steps, seed), (most, total) in zip(
        NAN_LEAP_MODELS, LEAP_ITERATION_BOUNDS
    ):
        params = dict(model)
        spec = MODELS[params.pop("model")](**params)
        scheme = SchemeConfig.for_model(spec, TimeGrid(horizon, steps))
        noise = make_sampler("circulant", spec.hurst, scheme.grid).sample(seed, range(8))
        sol = integrate(scheme, noise)
        assert not sol.failures
        assert sol.iterations.max() <= most and sol.iterations.sum() <= total


def test_nan_leap_models_solve_within_tolerance(tmp_path):
    for model, horizon, steps, seed in NAN_LEAP_MODELS:
        config = _config(model, horizon, steps, seed, "circulant")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "simulate.csv"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=2)
        assert len(rows) == PATHS * (steps + 1)
        x, residual = rows[:, 3], rows[:, 5]
        assert np.all(np.isfinite(x)) and np.all(x > 0.0)
        assert np.all(np.abs(residual) <= 1e-12 + 1e-12 * x)
