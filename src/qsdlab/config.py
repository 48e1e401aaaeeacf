"""Experiment configuration: a strict JSON schema.

Unknown keys are rejected everywhere so that a config file cannot silently
misspell a knob.  See ``qsdlab --help`` for the documented layout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .fv import check_runnable
from .models import _is_number, build_preset

__all__ = ["ExperimentConfig", "ConfigError", "load_config"]

MODES = ("simulate", "oracle", "harris", "sweep")


class ConfigError(ValueError):
    """The config file is malformed or inconsistent."""


def _require_keys(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}; "
                          f"allowed: {sorted(allowed)}")


@dataclass
class ExperimentConfig:
    """Validated experiment description."""

    mode: str
    model_name: str
    model_params: dict
    seed: int
    output_dir: Optional[str]
    fv: dict = field(default_factory=dict)
    oracle: dict = field(default_factory=dict)
    harris: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)
    metrics: list = field(default_factory=list)

    def preset(self):
        return build_preset(self.model_name, self.model_params)


_TOP_KEYS = {"mode", "model", "seed", "output_dir", "fv", "oracle", "harris",
             "sweep", "metrics"}
_MODEL_KEYS = {"name", "params"}
_FV_KEYS = {"n_particles", "gamma", "n_steps", "snapshot_stride",
            "max_resurrection_iters", "init"}
_ORACLE_KEYS = {"n_grid", "t0", "survival_steps"}
_HARRIS_KEYS = {"t0", "family", "q1_grid", "q2_grid", "k_fractions", "n_max"}
_SWEEP_KEYS = {"gammas", "n_particles", "horizons", "n_seeds", "burn_fraction",
               "snapshot_stride", "n_grid", "oracle_t0"}


# Value checks: (predicate, description).  JSON booleans are not numbers
# here, strings are never coerced and counts must be integers.

def _count(lo: int):
    return (lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= lo,
            f"an integer >= {lo}")


def _list_of(check):
    ok, what = check
    return (lambda v: isinstance(v, list) and all(ok(x) for x in v),
            f"a list, each entry {what}")


_NUMBERS = _list_of((_is_number, "a finite number"))
_POSITIVE = (lambda v: _is_number(v) and v > 0, "a positive finite number")
_FRACTION = (lambda v: _is_number(v) and 0 <= v < 1, "a number in [0, 1)")
_SEED = _count(0)

_VALUES = {
    "fv": {"n_particles": _count(1), "gamma": _POSITIVE, "n_steps": _count(0),
           "snapshot_stride": _count(1), "max_resurrection_iters": _count(1)},
    "oracle": {"n_grid": _count(16), "t0": _POSITIVE,
               "survival_steps": _count(0)},
    "harris": {"t0": _POSITIVE, "n_max": _count(1), "q1_grid": _NUMBERS,
               "q2_grid": _NUMBERS, "k_fractions": _NUMBERS},
    "sweep": {"gammas": _list_of(_POSITIVE), "n_particles": _list_of(_count(1)),
              "horizons": _list_of(_POSITIVE), "n_seeds": _count(1),
              "burn_fraction": _FRACTION, "snapshot_stride": _count(1),
              "n_grid": _count(16), "oracle_t0": _POSITIVE},
}


def _check_values(section: dict, where: str) -> None:
    for key, (ok, what) in _VALUES[where].items():
        if key in section and not ok(section[key]):
            raise ConfigError(f"{where}.{key} must be {what}, got {section[key]!r}")


def parse_config(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    _require_keys(doc, _TOP_KEYS, "config root")
    mode = doc.get("mode")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    model = doc.get("model")
    if not isinstance(model, dict):
        raise ConfigError("config needs a 'model' object")
    _require_keys(model, _MODEL_KEYS, "model")
    name = model.get("name")
    if not isinstance(name, str):
        raise ConfigError("model.name must be a string")
    params = model.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("model.params must be an object")
    seed = doc.get("seed", 0)
    if not _SEED[0](seed):
        raise ConfigError(f"seed must be {_SEED[1]}, got {seed!r}")

    sections = {}
    for where, allowed in (("fv", _FV_KEYS), ("oracle", _ORACLE_KEYS),
                           ("harris", _HARRIS_KEYS), ("sweep", _SWEEP_KEYS)):
        section = doc.get(where, {})
        if not isinstance(section, dict):
            raise ConfigError(f"{where} must be an object")
        _require_keys(section, allowed, where)
        _check_values(section, where)
        sections[where] = section
    metrics = doc.get("metrics", [])
    if not isinstance(metrics, list):
        raise ConfigError("metrics must be a list of names")

    cfg = ExperimentConfig(mode=mode, model_name=name, model_params=params,
                           seed=seed, output_dir=doc.get("output_dir"),
                           metrics=metrics, **sections)
    _validate_mode(cfg)
    try:
        preset = cfg.preset()
        if mode == "simulate":
            # build the model and check the engine runs it from the initial
            # law, so an unrunnable config fails before the first step
            check_runnable(preset.model(float(cfg.fv["gamma"])),
                           cfg.fv.get("init", "uniform"))
    except (KeyError, TypeError, ValueError, NotImplementedError) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def _validate_mode(cfg: ExperimentConfig) -> None:
    if cfg.mode == "simulate":
        for key in ("n_particles", "gamma", "n_steps"):
            if key not in cfg.fv:
                raise ConfigError(f"simulate mode requires fv.{key}")
    if cfg.mode == "sweep":
        gammas = cfg.sweep.get("gammas", [])
        ns = cfg.sweep.get("n_particles", [])
        horizons = cfg.sweep.get("horizons", [])
        if not gammas or not ns or not horizons:
            raise ConfigError("sweep mode requires nonempty sweep.gammas, "
                              "sweep.n_particles and sweep.horizons")


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return parse_config(doc)
