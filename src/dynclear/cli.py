"""Command-line entry point.

Exit codes: 0 success, 2 configuration/input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import build_environment, load_config
from .discrete import brute_force_discrete
from .errors import ConfigError, DynclearError, ReplayFormatError
from .fractional import sample_paths
from .network import SystemState
from .runner import run_experiment, write_atomic


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynclear",
        description="Dynamic liability clearing with optimal interventions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "execute an experiment config and write its outputs"),
        ("validate", "check a config file without running anything"),
        ("oracle", "exact discrete optimum by enumeration (small instances)"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("config", help="path to a JSON experiment config")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the config seed")
        cmd.add_argument("--out-dir", default=None,
                         help="override the config output directory")
        cmd.add_argument("--threads", type=int, default=None,
                         help="override the config worker count")
    return parser


def _apply_overrides(config, args):
    if args.seed is not None:
        config.seed = args.seed
    if args.out_dir is not None:
        config.out_dir = args.out_dir
    if args.threads is not None:
        if args.threads < 1:
            raise ConfigError("threads: must be >= 1")
        config.threads = args.threads
    return config


def _cmd_run(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    report, files = run_experiment(config)
    print(
        f"{config.mode}: value {report.total_value_mean!r} "
        f"+/- {report.total_value_stderr!r} over {config.samples} samples"
    )
    for name in sorted(files):
        print(f"  {name}: {files[name]}")
    return 0


def _cmd_validate(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    if config.environment["kind"] == "replay":
        for key in ("internal_csv", "external_csv"):
            path = os.path.join(config.base_dir, config.environment[key])
            if not os.path.exists(path):
                raise ConfigError(f"environment.{key}: no such file {path}")
    build_environment(config)
    print(f"{args.config}: OK ({config.mode}, {config.samples} samples)")
    return 0


def _cmd_oracle(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    env = build_environment(config)
    _, paths = sample_paths(env, config.samples, config.seed, config.horizon)
    start = SystemState.empty(env.n)
    results = []
    for i, path in enumerate(paths):
        value, actions = brute_force_discrete(start, path, config.budget, config.caps)
        results.append(
            {"sample": i, "value": value, "actions": [a.tolist() for a in actions]}
        )
    payload = {
        "budget": config.budget,
        "samples": config.samples,
        "mean_value": sum(r["value"] for r in results) / len(results),
        "per_sample": results,
    }
    os.makedirs(config.out_dir, exist_ok=True)
    out_path = os.path.join(config.out_dir, "oracle.json")
    write_atomic(out_path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "validate": _cmd_validate,
               "oracle": _cmd_oracle}[args.command]
    try:
        return handler(args)
    except (ConfigError, ReplayFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DynclearError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
