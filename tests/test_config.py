import re

import pytest

from setfusion.config import (
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
    ("run", "seed", "-1"), ("data", "positive_class", "-1"),
])
def test_invalid_training_values_rejected(section, key, value):
    with pytest.raises(ConfigError, match=key):
        parse_config(with_value(section, key, value))


@pytest.mark.parametrize("key, value", [("split_train", "nan"), ("split_val", "inf"),
                                        ("split_test", "0"), ("split_train", "0.7")])
def test_invalid_split_ratios_rejected(key, value):
    with pytest.raises(ConfigError, match="split ratios"):
        parse_config(with_value("data", key, value))


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
