import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from setfusion.config import (
    _LAYOUT,
    default_config,
    default_config_text,
    dump_config,
    load_config,
    parse_config,
)
from setfusion.errors import ConfigError
from setfusion.trainer import TrainConfig


def with_value(section: str, key: str, value: str) -> str:
    """The default config text with one key of one section replaced."""
    lines, current = [], None
    for line in default_config_text().splitlines():
        stripped = line.strip()
        if stripped.startswith("["):
            current = stripped[1:-1]
        elif current == section and stripped.split("=")[0].strip() == key:
            line = f"{key} = {value}"
        lines.append(line)
    text = "\n".join(lines)
    assert text != default_config_text().rstrip("\n"), f"no key {key} in [{section}]"
    return text


def test_default_config_round_trips():
    cfg = default_config()
    assert parse_config(dump_config(cfg)) == cfg


def test_load_config_equals_parse_config_of_the_file_text(tmp_path):
    text = with_value("run", "seed", "7")
    path = tmp_path / "run.ini"
    path.write_text(text)
    assert load_config(path) == parse_config(text)
    assert load_config(path).seed == 7


@pytest.mark.parametrize("widths", ["32,16,8", "32", "32,0"])
def test_rho_hidden_must_be_two_positive_widths(widths):
    with pytest.raises(ConfigError, match="rho_hidden"):
        parse_config(with_value("model", "rho_hidden", widths))


@pytest.mark.parametrize("section", ["phase1", "phase2"])
def test_zero_epoch_budget_rejected(section):
    with pytest.raises(ConfigError, match=f"max_epochs_{section}"):
        parse_config(with_value(section, "max_epochs", "0"))


@pytest.mark.parametrize("key", ["d_z", "d_l", "backbone_hidden", "decoder_hidden",
                                 "embed_dim", "hyper_hidden"])
def test_zero_model_width_rejected(key):
    with pytest.raises(ConfigError, match=key):
        parse_config(with_value("model", key, "0"))


@pytest.mark.parametrize("section, key, value", [
    ("run", "lr", "nan"), ("run", "lr", "inf"), ("run", "lr", "0"), ("run", "lr", "true"),
    ("run", "two_steps", "no"), ("model", "aggregator", "median"),
    ("run", "seed", "-1"), ("run", "patience", "0"),
])
def test_invalid_training_values_rejected(section, key, value):
    with pytest.raises(ConfigError, match=key):
        parse_config(with_value(section, key, value))


def test_default_file_matches_the_dataclass_defaults():
    assert default_config() == TrainConfig()


@pytest.mark.parametrize("section, key, value", [
    ("phase1", "mse_weight", "1.0"), ("phase1", "detach_recon_target", "true"),
    ("run", "batch_size", "1"), ("run", "beta1", "0.9"), ("run", "beta2", "0.999"),
    ("run", "epsilon", "1e-08"),
])
def test_removed_training_knobs_rejected(section, key, value):
    text = default_config_text().replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=re.escape(f"unknown config keys in [{section}]: ['{key}']")):
        parse_config(text)


def test_removed_data_section_rejected():
    text = default_config_text() + "\n[data]\nsplit_train = 0.6\npositive_class = 1\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == "unknown config sections: ['data']"


def test_split_ratios_and_positive_class_are_constants_not_fields():
    cfg = TrainConfig()
    assert cfg.split_ratios == (0.6, 0.1, 0.3)
    assert cfg.positive_class == 1
    names = {f.name for f in dataclasses.fields(TrainConfig)}
    assert not names & {"split_ratios", "positive_class"}


# a value other than the default for every TrainConfig field
NON_DEFAULT = {
    "lr": 0.003, "max_epochs_phase1": 7, "max_epochs_phase2": 9, "patience": 3,
    "aggregator": "max", "seed": 11, "two_steps": False, "d_z": 5, "d_l": 4,
    "backbone_hidden": 6, "decoder_hidden": 7, "embed_dim": 3, "hyper_hidden": 9,
    "rho_hidden": (5, 2),
}


def test_every_field_is_set_by_exactly_one_config_key():
    attrs = [attr for keys in _LAYOUT.values() for attr, _ in keys.values()]
    assert sorted(attrs) == sorted(f.name for f in dataclasses.fields(TrainConfig))
    assert sorted(NON_DEFAULT) == sorted(attrs)


@pytest.mark.parametrize("field", sorted(NON_DEFAULT))
def test_a_non_default_value_of_each_field_round_trips(field):
    cfg = dataclasses.replace(TrainConfig(), **{field: NON_DEFAULT[field]})
    assert getattr(cfg, field) != getattr(TrainConfig(), field)
    assert parse_config(dump_config(cfg)) == cfg


@pytest.mark.parametrize("overrides", [{"rho_hidden": [32, 16]}, {"rho_hidden": (np.int64(8), 6)},
                                       {"lr": np.float64(1e-3)}, {"lr": np.float32(0.5)},
                                       {"lr": 1}],
                         ids=["list", "numpy_widths", "float64", "float32", "int"])
def test_every_accepted_form_of_a_field_round_trips(overrides):
    cfg = TrainConfig(**overrides)
    assert type(cfg.lr) is float
    assert type(cfg.rho_hidden) is tuple and all(type(w) is int for w in cfg.rho_hidden)
    assert parse_config(dump_config(cfg)) == cfg


def test_default_config_is_read_from_the_importing_package(tmp_path, monkeypatch):
    """The package's own resources, under whatever name it was imported:
    a copy of the package imported as another name reads its own file."""
    import importlib
    import shutil
    import sys

    import setfusion

    copy = tmp_path / "setfusion_copy"
    shutil.copytree(Path(setfusion.__file__).parent, copy)
    (copy / "configs" / "default.ini").write_text(with_value("run", "lr", "0.0005"))
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        config = importlib.import_module("setfusion_copy.config")
        assert config.default_config_text() != default_config_text()
        assert config.default_config().lr == 0.0005
    finally:
        for name in [n for n in sys.modules if n.split(".")[0] == "setfusion_copy"]:
            del sys.modules[name]
