"""Experiment configuration: a JSON file with an environment block plus run
parameters.  ``validate_config`` reports problems by field path so a broken
config points at the offending key."""

from __future__ import annotations

import json
import math
import os
import reprlib
from dataclasses import dataclass

import numpy as np

from .discrete import DEFAULT_RETRIES, _integer_caps
from .environments import (
    EnvironmentModel,
    GammaEnvironment,
    SbmEnvironment,
    SbmParams,
    load_replay,
)
from .errors import ConfigError, DynclearError, ValidationError
from .fairness import KINDS as FAIRNESS_KINDS
from .fairness import FairnessSpec

MODES = ("zero_input", "fractional", "discrete", "horizon_lp")

ENVIRONMENT_KINDS = ("replay", "sbm_core_periphery", "gamma_transactions")


@dataclass
class ExperimentConfig:
    environment: dict
    budget: float
    mode: str
    samples: int
    seed: int
    out_dir: str
    caps: float | list = None  # defaults to the budget, broadcast per node
    horizon: int | None = None
    retries: int = DEFAULT_RETRIES
    fairness: FairnessSpec | None = None
    paired_pof: bool = False
    threads: int = 1
    base_dir: str = "."  # directory replay paths are resolved against


def _require(data: dict, key: str, types, path: str):
    if key not in data:
        raise ConfigError(f"{path}{key}: required field is missing")
    value = data[key]
    types = types if isinstance(types, tuple) else (types,)
    # a JSON true/false is a Python int too: accept it only as a bool
    if not isinstance(value, types) or (
        isinstance(value, bool) and bool not in types
    ):
        names = "/".join(t.__name__ for t in types)
        raise ConfigError(f"{path}{key}: expected {names}, got {type(value).__name__}")
    return value


def _check_numbers(value, path: str, lo: float, hi: float):
    """``value`` as a float, or as a list of floats when it is a list,
    raising :class:`ConfigError` naming ``path`` unless each entry is a
    number (not a bool) that converts to a finite float in ``[lo, hi]``;
    NaN, infinities and integers too large for a double fail."""
    listed = isinstance(value, list)
    floats = []
    for k, v in enumerate(value if listed else [value]):
        try:
            number = isinstance(v, (int, float)) and not isinstance(v, bool)
            x = float(v) if number else math.nan
        except OverflowError:
            x = math.nan
        if not (lo <= x <= hi and math.isfinite(x)):
            where = f"{path}[{k}]" if listed else path
            raise ConfigError(
                f"{where}: expected a finite number in [{lo:g}, {hi:g}], "
                f"got {reprlib.repr(v)}"
            )
        floats.append(x)
    return floats if listed else floats[0]


def check_integer_caps(caps) -> None:
    """Raise :class:`ConfigError` on ``caps`` unless every cap is an integer,
    as discrete interventions and the oracle's enumeration need."""
    try:
        _integer_caps(np.asarray(caps, dtype=float))
    except ValidationError as exc:
        raise ConfigError(f"caps: {exc}") from exc


#: Least value of each integer run field.
MINIMUM = {"samples": 1, "seed": 0, "horizon": 1, "retries": 1, "threads": 1}


def check_minimum(field: str, value: int) -> int:
    """``value`` of the integer run ``field``, raising :class:`ConfigError`
    when it is below the field's least value; the command-line overrides go
    through it too."""
    if value < MINIMUM[field]:
        raise ConfigError(f"{field}: must be >= {MINIMUM[field]}")
    return value


def _optional(data: dict, key: str, types, path: str, default=None):
    if key not in data or data[key] is None:
        return default
    return _require(data, key, types, path)


def _validate_environment(env: dict) -> None:
    kind = _require(env, "kind", str, "environment.")
    if kind not in ENVIRONMENT_KINDS:
        raise ConfigError(
            f"environment.kind: {kind!r} is not one of {ENVIRONMENT_KINDS}"
        )
    if kind == "replay":
        _require(env, "internal_csv", str, "environment.")
        _require(env, "external_csv", str, "environment.")
    elif kind == "sbm_core_periphery":
        _require(env, "n_core", int, "environment.")
        _require(env, "n_periphery", int, "environment.")
        probs = _require(env, "block_probs", list, "environment.")
        if (
            len(probs) != 2
            or any(not isinstance(r, list) or len(r) != 2 for r in probs)
        ):
            raise ConfigError("environment.block_probs: expected a 2x2 matrix")
        for i, row in enumerate(probs):
            _check_numbers(row, f"environment.block_probs[{i}]", 0.0, 1.0)
        for key in ("liability_rate", "asset_level"):  # both default in range
            _check_numbers(_optional(env, key, (int, float), "environment.", 0.0),
                           f"environment.{key}", 0.0, math.inf)
    else:
        for i, row in enumerate(_require(env, "counts", list, "environment.")):
            _check_numbers(row, f"environment.counts[{i}]", 0.0, math.inf)
        for key in ("out_counts", "in_counts"):
            _check_numbers(_require(env, key, list, "environment."),
                           f"environment.{key}", 0.0, math.inf)


def validate_config(data: dict, base_dir: str = ".") -> ExperimentConfig:
    """Check types, ranges and mode/parameter compatibility; returns the
    parsed config without touching the filesystem."""
    if not isinstance(data, dict):
        raise ConfigError("top level: expected an object")
    env = _require(data, "environment", dict, "")
    _validate_environment(env)

    mode = _require(data, "mode", str, "")
    if mode not in MODES:
        raise ConfigError(f"mode: {mode!r} is not one of {MODES}")
    budget = _check_numbers(_require(data, "budget", (int, float), ""),
                            "budget", 0.0, math.inf)
    if mode == "zero_input" and budget != 0:
        raise ConfigError("budget: zero_input mode requires budget 0")
    samples = check_minimum("samples", _require(data, "samples", int, ""))
    seed = check_minimum("seed", _optional(data, "seed", int, "", default=0))
    out_dir = _require(data, "out_dir", str, "")
    caps = _optional(data, "caps", (int, float, list), "", default=None)
    if caps is None:
        caps = budget
    _check_numbers(caps, "caps", 0.0, math.inf)
    if mode == "discrete":
        check_integer_caps(caps)
    horizon = _optional(data, "horizon", int, "")
    if horizon is not None:
        check_minimum("horizon", horizon)
    if env["kind"] != "replay" and horizon is None:
        raise ConfigError("horizon: required for synthetic environments")
    retries = _optional(data, "retries", int, "", default=None)
    if retries is not None and mode != "discrete":
        raise ConfigError("retries: only meaningful in discrete mode")
    if retries is None:
        retries = DEFAULT_RETRIES
    check_minimum("retries", retries)
    threads = check_minimum("threads", _optional(data, "threads", int, "", default=1))

    fairness = None
    fair_data = _optional(data, "fairness", dict, "")
    if fair_data is not None:
        if mode not in ("zero_input", "fractional"):
            raise ConfigError(
                f"fairness: not supported in {mode} mode"
            )
        kind = _require(fair_data, "kind", str, "fairness.")
        if kind not in FAIRNESS_KINDS:
            raise ConfigError(
                f"fairness.kind: {kind!r} is not one of {FAIRNESS_KINDS}"
            )
        g = _check_numbers(_require(fair_data, "g", (int, float), "fairness."),
                           "fairness.g", 0.0, 1.0)
        q = _optional(fair_data, "q", list, "fairness.")
        if kind == "property" and q is None:
            raise ConfigError("fairness.q: required for property weights")
        if q is not None:
            _check_numbers(q, "fairness.q", 0.0, 1.0)
        masked = _optional(fair_data, "masked", bool, "fairness.", default=True)
        fairness = FairnessSpec(
            kind=kind,
            g=g,
            q=None if q is None else np.asarray(q, dtype=float),
            masked=masked,
        )

    paired_pof = _optional(data, "paired_pof", bool, "", default=False)
    if paired_pof and (fairness is None or mode != "fractional"):
        raise ConfigError(
            "paired_pof: requires fractional mode with a fairness block"
        )

    return ExperimentConfig(
        environment=env,
        budget=budget,
        mode=mode,
        samples=samples,
        seed=seed,
        out_dir=out_dir,
        caps=caps,
        horizon=horizon,
        retries=retries,
        fairness=fairness,
        paired_pof=paired_pof,
        threads=threads,
        base_dir=base_dir,
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, or an integer of over 4300 digits
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return validate_config(data, base_dir=os.path.dirname(os.path.abspath(path)))


def build_environment(config: ExperimentConfig) -> EnvironmentModel:
    """Instantiate the configured environment; replay paths resolve relative
    to the config file's directory.  Per-node caps and attributes must list
    one entry per node of the environment."""
    model = _environment(config)
    q = None if config.fairness is None else config.fairness.q
    for path, value in (("caps", config.caps), ("fairness.q", q)):
        if np.ndim(value) == 1 and len(value) != model.n:
            raise ConfigError(
                f"{path}: expected {model.n} entries, one per node, "
                f"got {len(value)}"
            )
    return model


def _environment(config: ExperimentConfig) -> EnvironmentModel:
    env = config.environment
    kind = env["kind"]
    if kind == "replay":
        internal = os.path.join(config.base_dir, env["internal_csv"])
        external = os.path.join(config.base_dir, env["external_csv"])
        model = load_replay(internal, external)
        if config.horizon is not None and config.horizon > model.horizon:
            raise ConfigError(
                f"horizon: replay only records {model.horizon} rounds"
            )
        return model
    try:
        if kind == "sbm_core_periphery":
            params = SbmParams(
                n_core=env["n_core"],
                n_periphery=env["n_periphery"],
                block_probs=np.asarray(env["block_probs"], dtype=float),
                liability_rate=float(env.get("liability_rate", 1.0)),
                asset_level=float(env.get("asset_level", 0.0)),
            )
            return SbmEnvironment(params=params, horizon=config.horizon)
        return GammaEnvironment(
            counts=env["counts"],
            out_counts=env["out_counts"],
            in_counts=env["in_counts"],
            horizon=config.horizon,
        )
    except DynclearError as exc:
        raise ConfigError(f"environment: {exc}") from exc
