"""Run configuration as flat `key = value` text with sections.

Parsing is strict both ways: every expected key must be present and no
unknown keys are tolerated, so a config file is always a complete,
diffable record of a run.

The training recipe itself has no keys: every Adam step takes one item
with β1 = 0.9, β2 = 0.999 and ε = 1e-8 (`optim.BETA1`, `BETA2` and
`EPSILON`), and the stage-1 loss adds an unweighted reconstruction term,
whose target z is always detached, to the classification term. Nor has
the data: every run splits its samples 0.6/0.1/0.3 into train,
validation and test (`TrainConfig.split_ratios`) and scores class 1 as
the positive class (`TrainConfig.positive_class`).
"""

from __future__ import annotations

import configparser
from importlib import resources

from .errors import ConfigError
from .trainer import TrainConfig

# section -> key -> (TrainConfig attribute, parser)
_BOOL = {"true": True, "false": False}


def _parse_bool(text: str) -> bool:
    if text.lower() not in _BOOL:
        raise ValueError(f"expected true/false, got {text!r}")
    return _BOOL[text.lower()]


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in text.split(","))


_LAYOUT: dict[str, dict[str, tuple[str, object]]] = {
    "model": {
        "d_z": ("d_z", int),
        "d_l": ("d_l", int),
        "backbone_hidden": ("backbone_hidden", int),
        "decoder_hidden": ("decoder_hidden", int),
        "embed_dim": ("embed_dim", int),
        "hyper_hidden": ("hyper_hidden", int),
        "rho_hidden": ("rho_hidden", _parse_int_tuple),
        "aggregator": ("aggregator", str),
    },
    "phase1": {
        "max_epochs": ("max_epochs_phase1", int),
    },
    "phase2": {
        "max_epochs": ("max_epochs_phase2", int),
    },
    "run": {
        "seed": ("seed", int),
        "lr": ("lr", float),
        "patience": ("patience", int),
        "two_steps": ("two_steps", _parse_bool),
    },
}


def parse_config(text: str) -> TrainConfig:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config is not valid key = value text: {exc}") from exc

    values: dict[str, object] = {}
    for section, keys in _LAYOUT.items():
        if not parser.has_section(section):
            raise ConfigError(f"missing config section [{section}]")
        present = set(parser.options(section))
        for key, (attr, convert) in keys.items():
            if key not in present:
                raise ConfigError(f"missing config key '{key}' in section [{section}]")
            try:
                values[attr] = convert(parser.get(section, key))
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from exc
        unknown = present - set(keys)
        if unknown:
            raise ConfigError(f"unknown config keys in [{section}]: {sorted(unknown)}")
    unknown_sections = set(parser.sections()) - set(_LAYOUT)
    if unknown_sections:
        raise ConfigError(f"unknown config sections: {sorted(unknown_sections)}")

    try:
        return TrainConfig(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def dump_config(cfg: TrainConfig) -> str:
    """Render a TrainConfig as config text; inverse of parse_config."""
    lines = []
    for section, keys in _LAYOUT.items():
        lines.append(f"[{section}]")
        for key, (attr, _) in keys.items():
            value = getattr(cfg, attr)
            if isinstance(value, bool):
                text = "true" if value else "false"
            elif isinstance(value, tuple):
                text = ",".join(str(v) for v in value)
            else:
                text = repr(value) if isinstance(value, float) else str(value)
            lines.append(f"{key} = {text}")
        lines.append("")
    return "\n".join(lines)


def load_config(path) -> TrainConfig:
    with open(path, "r") as fh:
        return parse_config(fh.read())


def default_config_text() -> str:
    return resources.files(__package__).joinpath("configs/default.ini").read_text()


def default_config() -> TrainConfig:
    return parse_config(default_config_text())
