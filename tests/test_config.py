"""Config fields: each field of the four config blocks declares its rule,
and the rules run when a config is built, so no value, however
malformed, gets past `RunConfig.from_dict` as anything but a
ConfigError.  Nothing here builds a model or generates data: a valid
config may still ask for far more work than a test can afford."""

import dataclasses
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nswave import cli
from nswave.errors import ConfigError
from nswave.model import ModelConfig
from nswave.pipeline import DatasetConfig, RunConfig, TrainConfig
from nswave.solvers import ProblemSpec

SECTIONS = {"problem": ProblemSpec, "dataset": DatasetConfig,
            "model": ModelConfig, "training": TrainConfig}

BASE = {
    # interior is ignored by schrodinger, and makes kind=rte valid
    "problem": {"kind": "schrodinger", "n": 32, "eta_coarse": 4,
                "eta_scale": 10.0, "interior": 28},
    "dataset": {"n_eta": 6, "n_f": 2, "seed": 3},
    "model": {"n": 32, "levels": 2, "alpha": 2, "depth": 2, "nb": 1, "p": 2,
              "padding": "periodic", "symmetric": True, "seed": 0},
    "training": {"learning_rate": 1e-3, "batch_fraction": 0.2,
                 "max_epochs": 2, "patience": 10, "seed": 1,
                 "operator_samples": 1},
}

# values some field may accept, and values no field accepts
ANY = [True, None, 10**30, 2**63]
NEVER = [math.nan, math.inf, -math.inf, "x", [1]]

FIELDS = [(section, f) for section, cls in SECTIONS.items()
          for f in dataclasses.fields(cls)]
RULES = {(section, f.name): f.metadata.get("rule") for section, f in FIELDS}


def _never(value) -> bool:
    return value in ("x", [1]) or (isinstance(value, float)
                                   and not math.isfinite(value))


def _candidates(rule: dict) -> list:
    """Boundary values of a rule, valid and not, plus the fixed lists."""
    values = ANY + NEVER
    if rule["low"] is not None:
        values += [rule["low"] - 1, rule["low"]]
    if rule["above"] is not None:
        values += [rule["above"], rule["above"] + 1]
    for choice in rule["choices"] or ():
        values += [choice] + ([choice.upper(), choice + " "]
                              if isinstance(choice, str) else [])
    if rule["choices"] and not isinstance(rule["choices"][0], str):
        values += [min(rule["choices"]) - 1, max(rule["choices"]) + 1]
    return values


# one to three (section, field, value) edits of BASE
edits = st.lists(st.sampled_from(sorted(RULES)).flatmap(
    lambda key: st.tuples(*map(st.just, key),
                          st.sampled_from(_candidates(RULES[key])))),
    min_size=1, max_size=3)


def _edited(changes) -> tuple[dict, dict]:
    raw = json.loads(json.dumps(BASE))
    final = {}
    for section, name, value in changes:
        raw[section][name] = value
        final[section, name] = value
    return raw, final


@pytest.mark.parametrize("cls", SECTIONS.values(), ids=SECTIONS.keys())
def test_every_config_field_declares_a_rule(cls):
    for f in dataclasses.fields(cls):
        assert set(f.metadata.get("rule", ())) == {
            "kind", "low", "above", "choices", "optional"}, f.name


@pytest.mark.parametrize("section,field", FIELDS,
                         ids=[f"{s}.{f.name}" for s, f in FIELDS])
def test_a_config_holding_a_malformed_value_cannot_be_built(section, field):
    kwargs = {**BASE[section], field.name: [1]}
    with pytest.raises(ConfigError, match=rf"^{section}\.{field.name} must "):
        SECTIONS[section](**kwargs)


@settings(max_examples=300, deadline=None)
@given(edits)
def test_from_dict_returns_or_raises_config_error(changes):
    raw, final = _edited(changes)
    try:
        cfg = RunConfig.from_dict(raw)
    except ConfigError:
        return
    assert not any(_never(v) for v in final.values())
    built = cfg.to_dict()
    for (section, name), value in final.items():
        assert built[section][name] == value
        # a bool is never a number
        assert isinstance(value, bool) == (RULES[section, name]["kind"]
                                           is bool)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(changes=edits)
def test_cli_rejects_exactly_the_configs_from_dict_rejects(changes, tmp_path,
                                                           capsys):
    raw, _ = _edited(changes)
    try:
        RunConfig.from_dict(json.loads(json.dumps(raw)))
        want, prefix = cli.EXIT_DATA, "data error:"  # the data dir is missing
    except ConfigError:
        want, prefix = cli.EXIT_CONFIG, "config error:"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    rc = cli.main(["train", "--config", str(path),
                   "--data", str(tmp_path / "missing"),
                   "--out", str(tmp_path / "ck")])
    err = capsys.readouterr().err
    assert rc == want
    assert err.startswith(prefix)
    assert "Traceback" not in err
