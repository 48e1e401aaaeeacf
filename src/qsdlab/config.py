"""Experiment configuration: a strict JSON schema.

``SCHEMA`` is the whole config layout.  Each section is one table mapping
each key to its value check and a description: the keys a section accepts
are its table's keys, and ``qsdlab --help`` prints the layout from the same
tables.  Unknown keys are rejected everywhere so that a config file cannot
silently misspell a knob, and so is a section key that the config's mode
never reads (``_READS``).  Defaults are not part of the schema: an absent
key takes the default of the library call the section is passed to.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .fv import FVConfig, check_batch_size, init_states
from .models import _is_number, build_preset

__all__ = ["ExperimentConfig", "ConfigError", "load_config", "layout"]

MODES = ("simulate", "oracle", "harris", "sweep")
METRICS = ("w1_timeavg", "w1_instant", "w1_pooled", "theta_hat")


class ConfigError(ValueError):
    """The config file is malformed or inconsistent."""


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

    def simulation(self):
        """``(model, FVConfig, run_fv keywords)`` of a simulate config: the
        fv section holds the model's gamma, FVConfig's fields and the init."""
        fv = dict(self.fv)
        model = self.preset().model(float(fv.pop("gamma")))
        init = {"init": fv.pop("init")} if "init" in fv else {}
        return model, FVConfig(seed=self.seed, **fv), init


# Value checks: (predicate, description).  JSON booleans are not numbers
# here, strings are never coerced and counts must be integers.

def _count(lo: int):
    return (lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= lo,
            f"integer >= {lo}")


def _list_of(check, distinct=False):
    ok, what = check
    return (lambda v: isinstance(v, list) and len(v) > 0 and all(map(ok, v))
            and not (distinct and len(set(v)) < len(v)),
            f"nonempty list of {'distinct ' * distinct}{what}")


def _one_of(names):
    return (lambda v: v in names, "one of " + ", ".join(names))


_NUMBERS = _list_of((_is_number, "number"))
_INIT = (lambda v: v == "uniform" or (isinstance(v, list) and len(v) == 2
                                       and v[0] == "dirac"
                                       and (_is_number(v[1]) or _NUMBERS[0](v[1]))),
         '"uniform" or ["dirac", number or list of numbers]')
# a run seed keys 64-bit streams, so a larger seed would alias a smaller one
_SEED = (lambda v: _count(0)[0](v) and v < 2 ** 64, "integer in [0, 2**64)")
_STRING = (lambda v: isinstance(v, str), "string")
_OBJECT = (lambda v: isinstance(v, dict), "object")
_POSITIVE = (lambda v: _is_number(v) and v > 0, "finite number > 0")
_POSITIVES = _list_of(_POSITIVE)
_FRACTION = (lambda v: _is_number(v) and 0 <= v < 1, "number in [0, 1)")
_SHARE = (lambda v: _is_number(v) and 0 < v <= 1, "number in (0, 1]")

# key -> (check, description), or key -> table for a nested object
SCHEMA = {
    "mode": (_one_of(MODES), "the command"),
    "model": {
        "name": (_STRING, "preset, one of those listed below"),
        "params": (_OBJECT, "preset fields"),
    },
    "seed": (_SEED, "run seed"),
    "output_dir": (_STRING, "output directory"),
    "fv": {
        "n_particles": (_count(1), "particles N"),
        "gamma": (_POSITIVE, "step size"),
        "n_steps": (_count(0), "steps to run"),
        "snapshot_stride": (_count(1), "steps between stored snapshots"),
        "max_resurrection_iters": (_count(1), "kills per particle-step "
                                   "before the run fails"),
        "init": (_INIT, "initial law"),
    },
    "oracle": {
        "n_grid": (_count(16), "grid cells of a continuous preset"),
        "t0": (_POSITIVE, "semigroup horizon"),
        "survival_steps": (_count(1), "length of the survival curve"),
    },
    "harris": {
        "t0": (_POSITIVE, "semigroup horizon"),
        "q1_grid": (_POSITIVES, "bases q of V = q**n"),
        "q2_grid": (_POSITIVES, "bases q of psi = q**n"),
        "k_fractions": (_list_of(_SHARE),
                        "small-set sizes, as shares of the states"),
        "n_max": (_count(1), "comparability depth"),
    },
    "sweep": {
        "gammas": (_list_of(_POSITIVE, distinct=True), "step sizes"),
        "n_particles": (_list_of(_count(1), distinct=True), "particle counts"),
        "horizons": (_list_of(_POSITIVE, distinct=True), "metric times"),
        "n_seeds": (_count(1), "seeds per (gamma, N)"),
        "burn_fraction": (_FRACTION, "share of each horizon left out"),
        "snapshot_stride": (_count(1), "steps between snapshots"),
        "n_grid": (_count(16), "grid cells of the reference QSD"),
    },
    "metrics": (_list_of(_one_of(METRICS)), "sweep metrics, all if absent"),
}

_REQUIRED = {None: ("mode", "model", "model.name"),
             "simulate": ("fv.n_particles", "fv.gamma", "fv.n_steps"),
             "sweep": ("sweep.gammas", "sweep.n_particles", "sweep.horizons")}
# the sections each mode reads, a dotted name for a single key of a section;
# any other section key is refused
_READS = {"simulate": ("fv",), "oracle": ("oracle",),
          "harris": ("harris", "oracle.n_grid"), "sweep": ("sweep", "metrics")}


def _flat(table: dict, prefix: str = ""):
    """``(dotted key, spec)`` for every leaf of a schema table."""
    for key, spec in table.items():
        if isinstance(spec, dict):
            yield from _flat(spec, f"{prefix}{key}.")
        else:
            yield prefix + key, spec


def layout() -> str:
    """The config layout for ``--help``: one line per accepted key."""
    return "\n".join(f"  {key:<27}{doc} [{what}]"
                     for key, ((_, what), doc) in _flat(SCHEMA))


def _check(doc, table: dict, where: str = "") -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where or 'config root'} must be a JSON object")
    unknown = set(doc) - set(table)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in "
                          f"{where or 'config root'}; allowed: {sorted(table)}")
    for key, value in doc.items():
        spec, name = table[key], f"{where}.{key}" if where else key
        if isinstance(spec, dict):
            _check(value, spec, name)
        elif not spec[0][0](value):
            raise ConfigError(f"{name} must be {spec[0][1]}, got {value!r}")


def _has(doc: dict, dotted: str) -> bool:
    for part in dotted.split("."):
        if part not in doc:
            return False
        doc = doc[part]
    return True


def _unread(doc: dict, mode: str) -> list:
    """The section keys of ``doc`` that ``mode`` never reads."""
    names = [f"{s}.{k}" for s in ("fv", "oracle", "harris", "sweep")
             for k in doc.get(s, {})]
    names += ["metrics"] * ("metrics" in doc)
    reads = _READS[mode]
    return [n for n in names if n not in reads and n.split(".")[0] not in reads]


def parse_config(doc: dict) -> ExperimentConfig:
    _check(doc, SCHEMA)
    for key in _REQUIRED[None] + _REQUIRED.get(doc.get("mode"), ()):
        if not _has(doc, key):
            raise ConfigError(f"{doc.get('mode', 'every')} config needs {key}")
    model = doc["model"]
    cfg = ExperimentConfig(mode=doc["mode"], model_name=model["name"],
                           model_params=model.get("params", {}),
                           seed=doc.get("seed", 0),
                           output_dir=doc.get("output_dir"),
                           **{k: doc.get(k, {}) for k in ("fv", "oracle", "harris",
                                                          "sweep")},
                           metrics=doc.get("metrics", []))
    try:
        cfg.preset()
        if cfg.mode == "simulate":
            # build the run and draw one particle from the initial law, so an
            # init outside the live space or a run too large to hold fails
            # before the first step
            model, fv_config, init = cfg.simulation()
            init_states(model, 1, 0, **init)
            check_batch_size(model, [fv_config])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    unread = _unread(doc, cfg.mode)
    if unread:
        raise ConfigError(f"{cfg.mode} never reads {unread}")
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return parse_config(doc)
