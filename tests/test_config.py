import json

import pytest

from streamdeg.config import RunConfig, load_config


def test_defaults():
    cfg = load_config()
    assert cfg.delta == 1.0
    assert cfg.tau == 2.0
    assert cfg.class_ratio == 0.1
    assert cfg.sigma_mult == 3.0
    assert cfg.grubbs_alpha == 0.05
    assert cfg.ks_alpha == 0.1
    assert cfg.two_sample_alpha == 0.1
    assert cfg.zero_majority == 0.5
    assert cfg.normalized is False
    assert cfg.ks_size_mode == "support-extent"
    assert cfg.rollback_fit == "refit"


def test_precedence_file_env_flags(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"tau": 1.0, "delta": 0.5, "seed": 9}))
    cfg = load_config(
        path,
        overrides={"tau": 4.0},
        environ={"STREAMDEG_TAU": "3.0", "STREAMDEG_DELTA": "0.25"},
    )
    assert cfg.tau == 4.0  # flag beats env beats file
    assert cfg.delta == 0.25  # env beats file
    assert cfg.seed == 9  # file beats default


def test_bool_env_coercion():
    cfg = load_config(environ={"STREAMDEG_NORMALIZED": "true"})
    assert cfg.normalized is True
    cfg = load_config(environ={"STREAMDEG_NORMALIZED": "0"})
    assert cfg.normalized is False


@pytest.mark.parametrize("raw,value", [
    ("1", True), ("TRUE", True), ("Yes", True), ("on", True),
    ("0", False), ("False", False), ("NO", False), ("oFF", False),
])
def test_bool_env_coercion_any_case(raw, value):
    assert load_config(environ={"STREAMDEG_NORMALIZED": raw}).normalized is value


@pytest.mark.parametrize("raw", ["ture", "", "2", "y", " true"])
def test_bool_env_unrecognized_rejected(raw):
    with pytest.raises(ValueError, match="STREAMDEG_NORMALIZED must be"):
        load_config(environ={"STREAMDEG_NORMALIZED": raw})


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"no_such_option": 1}))
    with pytest.raises(ValueError):
        load_config(path)


@pytest.mark.parametrize(
    "field,value",
    [
        ("tau", -1.0),
        ("delta", 0.0),
        ("delta", float("nan")),
        ("tau", float("inf")),
        ("sigma_mult", float("nan")),
        ("grubbs_alpha", 1.5),
        ("ks_size_mode", "bogus"),
        ("rollback_fit", "sometimes"),
        ("threads", 0),
        ("seed", -1),
    ],
)
def test_validation(field, value):
    with pytest.raises(ValueError):
        load_config(overrides={field: value})


def test_to_dict_round_trips_every_field():
    import dataclasses

    cfg = RunConfig()
    assert set(cfg.to_dict()) == {f.name for f in dataclasses.fields(RunConfig)}
