"""Experiment configuration: a JSON file with an environment block plus run
parameters.  ``validate_config`` reports problems by field path so a broken
config points at the offending key."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .discrete import DEFAULT_RETRIES
from .environments import (
    EnvironmentModel,
    GammaEnvironment,
    SbmEnvironment,
    SbmParams,
    load_replay,
)
from .errors import ConfigError, DynclearError
from .fairness import KINDS as FAIRNESS_KINDS
from .fairness import FairnessBudget, FairnessSpec

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


def _check_numbers(value, path: str, lo: float, hi: float) -> None:
    """``value``, or every entry of it when it is a list, is a number (not
    a bool) in ``[lo, hi]``."""
    entries = enumerate(value) if isinstance(value, list) else [(None, value)]
    for k, v in entries:
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not lo <= v <= hi:
            where = path if k is None else f"{path}[{k}]"
            raise ConfigError(
                f"{where}: expected a number in [{lo:g}, {hi:g}], got {v!r}"
            )


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
        for row in probs:
            _check_numbers(row, "environment.block_probs", 0.0, 1.0)
        _optional(env, "liability_rate", (int, float), "environment.")
        _optional(env, "asset_level", (int, float), "environment.")
    else:
        _require(env, "counts", list, "environment.")
        _require(env, "out_counts", list, "environment.")
        _require(env, "in_counts", list, "environment.")


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
    budget = float(_require(data, "budget", (int, float), ""))
    _check_numbers(budget, "budget", 0.0, math.inf)
    if mode == "zero_input" and budget != 0:
        raise ConfigError("budget: zero_input mode requires budget 0")
    samples = _require(data, "samples", int, "")
    if samples < 1:
        raise ConfigError("samples: must be >= 1")
    seed = _optional(data, "seed", int, "", default=0)
    out_dir = _require(data, "out_dir", str, "")
    caps = _optional(data, "caps", (int, float, list), "", default=None)
    if caps is None:
        caps = budget
    _check_numbers(caps, "caps", 0.0, math.inf)
    horizon = _optional(data, "horizon", int, "")
    if horizon is not None and horizon < 1:
        raise ConfigError("horizon: must be >= 1")
    if env["kind"] != "replay" and horizon is None:
        raise ConfigError("horizon: required for synthetic environments")
    retries = _optional(data, "retries", int, "", default=None)
    if retries is not None and mode != "discrete":
        raise ConfigError("retries: only meaningful in discrete mode")
    if retries is None:
        retries = DEFAULT_RETRIES
    if retries < 1:
        raise ConfigError("retries: must be >= 1")
    threads = _optional(data, "threads", int, "", default=1)
    if threads < 1:
        raise ConfigError("threads: must be >= 1")

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
        g = float(_require(fair_data, "g", (int, float), "fairness."))
        if not 0.0 <= g <= 1.0:
            raise ConfigError("fairness.g: must lie in [0, 1]")
        q = _optional(fair_data, "q", list, "fairness.")
        if kind == "property" and q is None:
            raise ConfigError("fairness.q: required for property weights")
        if q is not None:
            _check_numbers(q, "fairness.q", 0.0, 1.0)
        masked = _optional(fair_data, "masked", bool, "fairness.", default=True)
        fairness = FairnessSpec(
            kind=kind,
            budget=FairnessBudget(g),
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
    except json.JSONDecodeError as exc:
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
