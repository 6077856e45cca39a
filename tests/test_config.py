"""The keys each subcommand reads, and the digest that names a run.

A run's configuration keeps exactly the scheme and experiment keys that
``COMMAND_KEYS`` lists for its subcommand, unset ones at their default, and
its digest covers the seed, the model and those keys.  So a key the command
does not read, or a key set to the value it takes when unset, moves no byte
of any output, header included, and a key it reads moves the digest.

Every block is checked against the rules of the classes that read it, which
live on those classes: the model's on its family's class, the scheme's and
the experiment's on the grid, the sampler methods, the solver settings, the
ladder plan and the moment probe.  Every broken rule is one error on its own
key, with the text the class's constructor raises for it.
"""

import json
import re
from pathlib import Path

import pytest

import fbmsde.cli as cli
from fbmsde import config
from fbmsde.config import COMMAND_KEYS, parse_config
from fbmsde.convergence import ExperimentPlan, ProbePlan
from fbmsde.drifts import MODELS
from fbmsde.errors import ConfigError, ParameterError, reads
from fbmsde.fbm import METHOD_RULE, TimeGrid, make_sampler
from fbmsde.solver import SolverSettings

MR = {"model": "mean_reverting", "a1": 1.0, "a2": 1.0, "gamma": 0.7, "sigma": 0.5,
      "y0": 1.0, "hurst": 0.7}
AS = {"model": "ait_sahalia", "a_m1": 1.0, "a0": 1.0, "a1": 1.0, "a2": 1.0,
      "r": 3.0, "rho": 1.5, "sigma": 0.5, "y0": 1.0, "hurst": 0.7}

# Two valid values of every scheme and experiment key, neither of them the
# value a command takes when the key is unset or the one RUNS sets.  Each
# ladder level is valid with the other two of the converge run, whose
# k_min = 2, k_max = 5 and k_ref = 9 leave one level of room on either side.
# On the 32 steps of the moments run, ladder_rungs is clamped to at most 4,
# which the unset default of 6 becomes.
VALUES = {
    "scheme": {
        "steps": (24, 48),
        "horizon": (0.5, 0.75),
        "tol_abs": (1e-11, 1e-10),
        "tol_rel": (1e-11, 1e-10),
        "max_iter": (100, 50),
        "bracket_growth": (3.0, 4.0),
        "method": ("cholesky", "cholesky"),
    },
    "experiment": {
        "paths": (5, 6),
        "p": (4.0, 3.0),
        "k_min": (3, 1),
        "k_max": (6, 4),
        "k_ref": (10, 8),
        "p_list": ([3.0], [1.0, 6.0]),
        "ladder_rungs": (2, 3),
    },
}

# The keys each command requires, and the argv that runs it in ``{out}``.
RUNS = {
    "simulate": (
        {"scheme": {"steps": 16}},
        ["--out", "{out}/simulate.csv"],
    ),
    "converge": (
        {"experiment": {"paths": 4, "k_min": 2, "k_max": 5, "k_ref": 9}},
        ["--threads", "1", "--keep-paths", "--out-dir", "{out}"],
    ),
    "moments": (
        {"scheme": {"steps": 32}, "experiment": {"paths": 3}},
        ["--out-dir", "{out}"],
    ),
}


def _config(command: str, **blocks) -> dict:
    """The command's minimal configuration with each block of ``blocks`` merged in."""
    required, _ = RUNS[command]
    cfg = {"seed": 7, "model": MR}
    for name in ("scheme", "experiment"):
        block = {**required.get(name, {}), **blocks.get(name, {})}
        if block:
            cfg[name] = block
    return cfg


def _run(command: str, cfg: dict, workdir) -> dict:
    """The command's exit code and every file it wrote, by name."""
    workdir.mkdir()
    config = workdir / "config.json"
    config.write_text(json.dumps(cfg))
    out = workdir / "out"
    argv = [arg.format(out=out) for arg in RUNS[command][1]]
    code = cli.main([command, "--config", str(config), *argv])
    return {"exit": code, **{path.name: path.read_bytes() for path in sorted(out.iterdir())}}


def _whole(value: float):
    return int(value) if value.is_integer() else value


def _digest(command: str, cfg: dict) -> str:
    return parse_config(json.dumps(cfg), command).digest


def _unread(command: str) -> dict:
    """Every scheme and experiment key the command does not read, at its first value."""
    return {
        name: {k: v[0] for k, v in VALUES[name].items() if k not in COMMAND_KEYS[command][name]}
        for name in ("scheme", "experiment")
    }


@pytest.mark.parametrize("command", sorted(RUNS))
def test_unread_keys_move_no_output_byte(tmp_path, command):
    plain = _run(command, _config(command), tmp_path / "plain")
    assert plain["exit"] in (0, 3) and len(plain) > 1
    unread = _unread(command)
    assert any(unread.values())
    assert _run(command, _config(command, **unread), tmp_path / "unread") == plain
    # and each one alone, at either value, leaves the digest as it was
    for name, block in unread.items():
        for key in block:
            for which in (0, 1):
                cfg = _config(command, **{name: {key: VALUES[name][key][which]}})
                assert _digest(command, cfg) == _digest(command, _config(command)), key


@pytest.mark.parametrize("command", sorted(RUNS))
def test_keys_set_to_their_defaults_move_no_output_byte(tmp_path, command):
    plain = _run(command, _config(command), tmp_path / "plain")
    defaults = {
        name: {k: v for k, v in keys.items() if v is not None}
        for name, keys in COMMAND_KEYS[command].items()
    }
    # and spelled with an int for each whole float
    spelled = json.loads(json.dumps(defaults), parse_float=lambda v: _whole(float(v)))
    for i, blocks in enumerate((defaults, spelled)):
        assert _run(command, _config(command, **blocks), tmp_path / str(i)) == plain
    assert COMMAND_KEYS["simulate"]["experiment"]["paths"] == 1
    assert list(COMMAND_KEYS["moments"]["experiment"]["p_list"]) == [2.0, 4.0]


@pytest.mark.parametrize("command", sorted(RUNS))
def test_every_read_key_moves_the_digest(command):
    plain = _digest(command, _config(command))
    for name, keys in COMMAND_KEYS[command].items():
        for key in keys:
            for value in VALUES[name][key]:
                cfg = _config(command, **{name: {key: value}})
                assert _digest(command, cfg) != plain, (name, key, value)
    # the model and the seed are part of every digest too
    assert _digest(command, {**_config(command), "seed": 8}) != plain
    assert _digest(command, {**_config(command), "model": {**MR, "a1": 2.0}}) != plain


@pytest.mark.parametrize("command", sorted(COMMAND_KEYS))
def test_run_keeps_exactly_the_keys_its_command_reads(command):
    every = {name: {k: v[0] for k, v in VALUES[name].items()} for name in VALUES}
    cfg = parse_config(json.dumps({"seed": 7, "model": MR, **every}), command)
    assert cfg.scheme.keys() == COMMAND_KEYS[command]["scheme"].keys()
    assert cfg.experiment.keys() == COMMAND_KEYS[command]["experiment"].keys()


@pytest.mark.parametrize(
    "command, missing",
    [
        ("simulate", ["$.scheme.steps"]),
        ("converge", [f"$.experiment.{k}" for k in ("paths", "k_min", "k_max", "k_ref")]),
        ("moments", ["$.scheme.steps", "$.experiment.paths"]),
    ],
)
def test_required_keys_are_named(command, missing):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps({"seed": 7, "model": MR}), command)
    assert excinfo.value.errors == [f"{path}: required for {command}" for path in missing]


def test_plan_takes_every_field_from_the_run():
    cfg = parse_config(json.dumps(_config("converge", scheme={"tol_abs": 1e-11})), "converge")
    solver = SolverSettings(tol_abs=1e-11)
    assert cfg.plan(ExperimentPlan) == ExperimentPlan(
        MR_MODEL, 1.0, 2.0, 2, 5, 9, 4, 7, "circulant", solver
    )
    cfg = parse_config(json.dumps(_config("moments", experiment={"p_list": [3, 1.5]})), "moments")
    assert cfg.plan(ProbePlan) == ProbePlan(
        MR_MODEL, 1.0, 32, 3, (3.0, 1.5), 7, 6, "circulant", SolverSettings()
    )
    # a field the run does not hold takes no default: moments reads no ladder
    with pytest.raises(KeyError):
        cfg.plan(ExperimentPlan)


def test_overrides_are_checked_as_file_values():
    text = json.dumps(_config("simulate"))
    cfg = parse_config(text, "simulate", {"seed": 9, "scheme": {"steps": 8, "horizon": None}})
    assert (cfg.seed, cfg.scheme["steps"], cfg.scheme["horizon"]) == (9, 8, 1.0)
    assert cfg.digest == _digest("simulate", {**_config("simulate", scheme={"steps": 8}), "seed": 9})
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text, "simulate", {"experiment": {"paths": 0}})
    assert excinfo.value.errors == ["$.experiment.paths: must be an integer >= 1, got 0"]


# Every numeric key, with the model family that has it.
NUMERIC_KEYS = (
    [("model", key, MR) for key in sorted(MR) if key != "model"]
    + [("model", key, AS) for key in sorted(AS.keys() - MR.keys()) if key != "model"]
    + [
        (name, key, MR)
        for name, keys in VALUES.items()
        for key in keys
        if key != "method"
    ]
)


@pytest.mark.parametrize("token", ["Infinity", "-Infinity", "NaN", "1e400"])
@pytest.mark.parametrize(
    "block, key, model", NUMERIC_KEYS, ids=[f"{b}.{k}" for b, k, _ in NUMERIC_KEYS]
)
def test_non_finite_numbers_are_rejected_by_path(block, key, model, token):
    # json reads NaN and Infinity, and 1e400 as inf
    cfg = {"seed": 7, "model": dict(model), "scheme": {"steps": 16}, "experiment": {}}
    cfg[block][key] = ["@"] if key == "p_list" else "@"
    text = json.dumps(cfg).replace('"@"', token)
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text, "simulate")  # every key is checked, read or not
    assert any(e.startswith(f"$.{block}.{key}: ") for e in excinfo.value.errors)


def test_non_finite_tolerance_exits_one(tmp_path, capsys):
    # an infinite tolerance once accepted the explicit-Euler predictor as every node
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_config("simulate")).replace('"steps"', '"tol_abs": Infinity, "steps"'))
    out = tmp_path / "sim.csv"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    assert "config error: $.scheme.tol_abs: must be a finite number > 0, got inf" in (
        capsys.readouterr().err
    )
    assert not out.exists()


def test_repeated_keys_are_rejected_at_any_depth(tmp_path, capsys):
    # json keeps a repeated key's last value, so the run and its digest would
    # name only that one
    text = json.dumps(_config("simulate"))
    for key, first, last in (("seed", 7, 8), ("gamma", 0.7, 0.6), ("steps", 16, 8)):
        text = text.replace(f'"{key}": {first}', f'"{key}": {first}, "{key}": {last}')
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "sim.csv"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "config error: $.seed: duplicate key\n"
        "config error: $.model.gamma: duplicate key\n"
        "config error: $.scheme.steps: duplicate key\n"
    )
    assert not out.exists()
    text = text.replace('"steps": 16, "steps": 8', '"p_list": [{"a": 1, "a": 2}]')
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text, "simulate")
    assert excinfo.value.errors[-1] == "$.scheme.p_list[0].a: duplicate key"


@pytest.mark.parametrize("command", sorted(RUNS))
def test_integer_spellings_of_float_keys_write_the_same_bytes(tmp_path, command):
    spellings = [
        {"scheme": {"horizon": h, "bracket_growth": g}, "experiment": {"p": p, "p_list": pl}}
        for h, g, p, pl in ((1, 3, 2, [2, 4]), (1.0, 3.0, 2.0, [2.0, 4.0]))
    ]
    runs = [
        _run(command, _config(command, **blocks), tmp_path / str(i))
        for i, blocks in enumerate(spellings)
    ]
    assert runs[0] == runs[1]
    if command == "moments":
        assert b'"horizon": 1.0' in runs[0]["probe.json"]


def test_float_keys_are_stored_as_floats():
    every = {name: {k: v[0] for k, v in VALUES[name].items()} for name in VALUES}
    every["scheme"].update(horizon=1, tol_abs=1, tol_rel=1, bracket_growth=2)
    every["experiment"].update(p=2, p_list=[2, 4])
    text = json.dumps({"seed": 7, "model": MR, **every})
    # converge reads p, moments p_list
    converge, moments = (parse_config(text, command) for command in ("converge", "moments"))
    stored = [converge.scheme[k] for k in ("horizon", "tol_abs", "tol_rel", "bracket_growth")]
    stored += [converge.experiment["p"], *moments.experiment["p_list"]]
    assert all(type(v) is float for v in stored)


def test_ladder_rungs_past_the_grid_move_no_output_byte(tmp_path):
    # 32 steps fit 4 rungs, so 4, 6 and 20 run one probe under one digest
    def run(rungs):
        cfg = _config("moments", experiment={"ladder_rungs": rungs})
        return _run("moments", cfg, tmp_path / str(rungs))

    four = run(4)
    assert four["exit"] == 0
    assert len(four["modulus.csv"].splitlines()) == 2 + 4
    assert run(6) == four
    assert run(20) == four
    assert run(3) != four


# For each rule of each model family and of each scheme and experiment rule
# table, in the order of the table: keys that break that rule and no other,
# and the config error they give.
BROKEN_RULES = {
    "mean_reverting": [
        ({"a1": -1.0}, "$.model.a1: must be positive, got -1.0"),
        ({"gamma": 0.3}, "$.model.gamma: must lie in [0.5, 1), got 0.3"),
        ({"hurst": 0.4}, "$.model.hurst: must lie in (0.5, 1), got 0.4"),
        ({"sigma": 0.0}, "$.model.sigma: must be nonzero"),
        ({"y0": -1.0}, "$.model.y0: must be positive, got -1.0"),
    ],
    "ait_sahalia": [
        ({"a_m1": -1.0}, "$.model.a_m1: must be positive, got -1.0"),
        ({"a0": 0.0}, "$.model.a0: must be positive, got 0.0"),
        ({"a1": -2.0}, "$.model.a1: must be positive, got -2.0"),
        ({"a2": -0.5}, "$.model.a2: must be positive, got -0.5"),
        ({"rho": 0.9}, "$.model.rho: must exceed 1, got 0.9"),
        ({"rho": 2.1}, "$.model.r: must satisfy r + 1 > 2*rho, got r=3.0, rho=2.1"),
        ({"r": 2.4}, "$.model.r: must satisfy r >= min(2, rho) + 1, got r=2.4, rho=1.5"),
        ({"hurst": 1.0}, "$.model.hurst: must lie in (0.5, 1), got 1.0"),
        ({"sigma": -0.0}, "$.model.sigma: must be nonzero"),
        ({"y0": 0.0}, "$.model.y0: must be positive, got 0.0"),
    ],
    "TimeGrid": [
        ({"horizon": -1.0}, "$.scheme.horizon: must be a finite number > 0, got -1.0"),
        ({"steps": 0}, "$.scheme.steps: must be an integer >= 1, got 0"),
    ],
    "METHOD_RULE": [
        ({"method": "fft"}, "$.scheme.method: must be 'circulant' or 'cholesky', got 'fft'"),
    ],
    "SolverSettings": [
        ({"tol_abs": 0.0}, "$.scheme.tol_abs: must be a finite number > 0, got 0.0"),
        ({"tol_rel": -1e-9}, "$.scheme.tol_rel: must be a finite number > 0, got -1e-09"),
        ({"max_iter": 7}, "$.scheme.max_iter: must be an integer >= 8, got 7"),
        ({"bracket_growth": 1.0}, "$.scheme.bracket_growth: must be a finite number > 1, got 1.0"),
    ],
    "ExperimentPlan": [
        ({"horizon": 0.0}, "$.scheme.horizon: must be a finite number > 0, got 0.0"),
        ({"p": 0.5}, "$.experiment.p: must be a finite number >= 1, got 0.5"),
        ({"k_min": 0}, "$.experiment.k_min: must be an integer >= 1, got 0"),
        ({"k_max": 3}, "$.experiment.k_max: order fits need at least 3 ladder levels "
         "(k_max >= k_min + 2), got k_min=2, k_max=3"),
        ({"k_ref": 7}, "$.experiment.k_ref: must be at least k_max + 3 to keep the "
         "reference bias negligible, got k_ref=7, k_max=5"),
        ({"paths": 1}, "$.experiment.paths: must be an integer >= 2, got 1"),
        ({"method": "fft"}, "$.scheme.method: must be 'circulant' or 'cholesky', got 'fft'"),
    ],
    "ProbePlan": [
        ({"horizon": -2.0}, "$.scheme.horizon: must be a finite number > 0, got -2.0"),
        ({"steps": -4}, "$.scheme.steps: must be an integer >= 1, got -4"),
        ({"paths": 0}, "$.experiment.paths: must be an integer >= 1, got 0"),
        ({"p_list": [1, -2]},
         "$.experiment.p_list: must be a non-empty list of positive finite numbers"),
        ({"p_list": [2, 4.0, 2.0]}, "$.experiment.p_list: duplicate order 2.0"),
        ({"ladder_rungs": 0}, "$.experiment.ladder_rungs: must be an integer >= 1, got 0"),
        ({"method": "fft"}, "$.scheme.method: must be 'circulant' or 'cholesky', got 'fft'"),
    ],
}
BASE_MODELS = {"mean_reverting": MR, "ait_sahalia": AS}
MR_MODEL = MODELS["mean_reverting"](**{k: v for k, v in MR.items() if k != "model"})
# Each scheme and experiment rule table, the command whose run reads it, and
# what reads it, built from that run's values: it raises for a broken rule.
TABLES = {
    "TimeGrid": (TimeGrid.rules, "simulate", lambda v: TimeGrid(v["horizon"], v["steps"])),
    "METHOD_RULE": (
        (METHOD_RULE,), "simulate", lambda v: make_sampler(v["method"], 0.7, TimeGrid(1.0, 4))
    ),
    "SolverSettings": (
        SolverSettings.rules,
        "simulate",
        lambda v: SolverSettings(v["tol_abs"], v["tol_rel"], v["max_iter"], v["bracket_growth"]),
    ),
    "ExperimentPlan": (
        ExperimentPlan.rules,
        "converge",
        lambda v: ExperimentPlan(
            MR_MODEL, v["horizon"], v["p"], v["k_min"], v["k_max"], v["k_ref"], v["paths"], 7,
            v["method"],
        ),
    ),
    "ProbePlan": (
        ProbePlan.rules,
        "moments",
        lambda v: ProbePlan(
            MR_MODEL, v["horizon"], v["steps"], v["paths"], v["p_list"], 7, v["ladder_rungs"],
            v["method"],
        ),
    ),
}


def _block(key: str) -> str:
    return "scheme" if key in VALUES["scheme"] else "experiment"


def test_broken_rule_cases_cover_every_rule():
    tables = {
        **{family: (cls.rules, "model") for family, cls in MODELS.items()},
        **{name: (rules, None) for name, (rules, _, _) in TABLES.items()},
    }
    assert tables.keys() == BROKEN_RULES.keys()
    for name, (rules, block) in tables.items():
        keys = [expected.split(":")[0] for _, expected in BROKEN_RULES[name]]
        assert keys == [f"$.{block or _block(key)}.{key}" for key, _, _ in rules]


@pytest.mark.parametrize(
    "family, index",
    [(family, i) for family, cases in BROKEN_RULES.items() for i in range(len(cases))],
)
def test_each_broken_rule_is_one_error_with_the_constructors_text(family, index):
    overrides, expected = BROKEN_RULES[family][index]
    if family in TABLES:
        _, command, build = TABLES[family]
        cfg = _config(command)
        for key, value in overrides.items():
            cfg.setdefault(_block(key), {})[key] = value
        with pytest.raises(ConfigError) as excinfo:
            parse_config(json.dumps(cfg), command)
        assert excinfo.value.errors == [expected]
        values = {k: v for keys in COMMAND_KEYS[command].values() for k, v in keys.items()}
        for name in ("scheme", "experiment"):
            values.update(cfg.get(name, {}))
        with pytest.raises(ParameterError) as excinfo:
            build(values)
        assert f"$.{expected.split('.')[1]}.{excinfo.value}" == expected
        return
    model = {**BASE_MODELS[family], **overrides}
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps({"seed": 1, "model": model}), "verify-assumptions")
    assert excinfo.value.errors == [expected]
    params = {key: value for key, value in model.items() if key != "model"}
    with pytest.raises(ParameterError) as excinfo:
        MODELS[family](**params)
    assert f"$.model.{excinfo.value}" == expected


@pytest.mark.parametrize(
    "command, cfg, expected",
    [
        (
            "simulate",
            {"model": {**MR, "a1": -1.0, "gamma": 0.3}, "scheme": {"steps": 16}},
            [
                "$.model.a1: must be positive, got -1.0",
                "$.model.gamma: must lie in [0.5, 1), got 0.3",
            ],
        ),
        (
            "simulate",
            {"model": {**AS, "r": 2.0, "rho": 1.5, "y0": -1.0}, "scheme": {"steps": 16}},
            [
                "$.model.r: must satisfy r + 1 > 2*rho, got r=2.0, rho=1.5",
                "$.model.r: must satisfy r >= min(2, rho) + 1, got r=2.0, rho=1.5",
                "$.model.y0: must be positive, got -1.0",
            ],
        ),
        (
            # the ladder's rules guard the strong-order estimate
            "converge",
            {
                "model": MR,
                "scheme": {"max_iter": 4},
                "experiment": {"paths": 1, "k_min": 4, "k_max": 5, "k_ref": 7},
            },
            [
                "$.scheme.max_iter: must be an integer >= 8, got 4",
                "$.experiment.k_max: order fits need at least 3 ladder levels "
                "(k_max >= k_min + 2), got k_min=4, k_max=5",
                "$.experiment.k_ref: must be at least k_max + 3 to keep the reference "
                "bias negligible, got k_ref=7, k_max=5",
                "$.experiment.paths: must be an integer >= 2, got 1",
            ],
        ),
    ],
    ids=["mean_reverting", "ait_sahalia", "ladder"],
)
def test_every_broken_rule_is_reported_in_one_pass(tmp_path, capsys, command, cfg, expected):
    text = json.dumps({"seed": 1, **cfg})
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text, command)
    assert excinfo.value.errors == expected
    # and the command prints each on its own line and writes no file
    config, out = tmp_path / "cfg.json", tmp_path / "out"
    config.write_text(text)
    assert cli.main([command, "--config", str(config), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == "".join(f"config error: {e}\n" for e in expected)
    assert not out.exists()


def test_a_rule_reading_a_bad_key_is_not_checked():
    # rho is not a number, so neither constraint on r is checked
    model = {**AS, "r": 2.0, "rho": "x"}
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps({"seed": 1, "model": model}), "verify-assumptions")
    assert excinfo.value.errors == ["$.model.rho: must be a finite number, got 'x'"]


DOCS = Path(__file__).resolve().parents[1] / "docs" / "config.md"


def _key_table() -> dict[str, list[str]]:
    """``block.key`` -> the cells of its row in docs/config.md's key table."""
    rows = {}
    for line in DOCS.read_text().splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if re.fullmatch(r"`(scheme|experiment)\.\w+`", cells[0]):
            rows[cells[0].strip("`")] = cells[1:]
    return rows


def test_docs_key_table_matches_command_keys():
    # each subcommand's column: blank where it does not read the key,
    # "required", or the value the key takes when unset
    rows = _key_table()
    commands = ["simulate", "converge", "moments"]
    expected = {}
    for index, command in enumerate(commands):
        for block, keys in COMMAND_KEYS[command].items():
            for key, default in keys.items():
                cells = expected.setdefault(f"{block}.{key}", [""] * len(commands))
                cells[index] = "required" if default is None else f"`{json.dumps(default)}`"
    assert {name: cells[:-1] for name, cells in rows.items()} == expected


def test_docs_key_table_states_each_rule():
    # A one-key rule's message, less "must be", its article and its "got ..."
    # tail, stands in the key's valid-values cell; a rule that relates two
    # keys names the relation the cell shows in code.
    rules = dict.fromkeys(rule for table in config._RULES.values() for rule in table)
    for name, cells in _key_table().items():
        key, cell = name.split(".")[1], cells[-1]
        stated = [(message, test) for k, message, test in rules if k == key]
        assert stated, name
        for message, test in stated:
            if callable(message):  # its text names the offending value alone
                continue
            if reads(test) == (key,):
                text = re.sub(r"^must be (an? )?", "", message.split(", got")[0])
                assert text in cell.replace("`", "").replace('"', "'"), (name, text)
            else:
                assert re.search(r"`([^`]+)`", cell)[1] in message, (name, message)
