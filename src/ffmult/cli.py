"""Command-line entry point: one subcommand per experiment kind plus `run`.

Exit codes: 0 success, 1 config validation failure, 2 budget refusal,
3 internal error.  Flags override config-file keys; `--set a.b.c=value`
patches arbitrary nested keys (values parsed as JSON when possible).  The
order is the same for `run` and for every subcommand: the config file,
then the flags (`--output` and `--format` last among them), then `--set`,
so `--set` wins over a flag for the same key.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import BudgetError, ConfigError
from .experiments import KINDS, list_builtins, run_experiment, validate_config
from .fields import DEFAULT_BUDGET

EXIT_OK, EXIT_VALIDATION, EXIT_BUDGET, EXIT_INTERNAL = 0, 1, 2, 3


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r") as fh:
        return json.load(fh)


def _apply_set(cfg: dict, assignments):
    for item in assignments or ():
        if "=" not in item:
            raise ConfigError([f"--set {item!r}: expected key=value"])
        key, _, value = item.partition("=")
        try:
            value = json.loads(value)
        except json.JSONDecodeError:
            pass  # keep the raw string
        node = cfg
        parts = key.split(".")
        for depth, part in enumerate(parts[:-1]):
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError([f"--set {key}: {'.'.join(parts[:depth + 1])} is "
                                   f"{json.dumps(node)}, not a section of keys"])
        node[parts[-1]] = value
    return cfg


def _common_flags(sub):
    sub.add_argument("--config", help="JSON config file to start from")
    sub.add_argument("--p", type=int, help="field characteristic")
    sub.add_argument("--r", type=int, help="field extension degree")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--n-start", type=int, dest="n_start")
    sub.add_argument("--n-stop", type=int, dest="n_stop")
    sub.add_argument("--budget", type=int, help="budget.max_evals_per_n, the run field's cap "
                     f"on every set and kernel cost (default {DEFAULT_BUDGET})")
    sub.add_argument("--domain", choices=["all", "nonzero", "monic"])
    sub.add_argument("--output", help="output file path")
    sub.add_argument("--format", choices=["csv", "json"], dest="out_format")
    sub.add_argument("--set", action="append", dest="assignments",
                     metavar="KEY=VALUE", help="override any config key (dotted path)")


def _flags_to_config(args, kind: str) -> dict:
    cfg = _load_config(args.config)
    cfg["kind"] = kind
    if args.p is not None or args.r is not None:
        fsec = cfg.setdefault("field", {})
        if args.p is not None:
            fsec["p"] = args.p
        if args.r is not None:
            fsec["r"] = args.r
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.n_start is not None or args.n_stop is not None:
        nsec = cfg.setdefault("n", {})
        if args.n_start is not None:
            nsec["start"] = args.n_start
        if args.n_stop is not None:
            nsec["stop"] = args.n_stop
    if args.budget is not None:
        cfg.setdefault("budget", {})["max_evals_per_n"] = args.budget
    if args.domain is not None:
        cfg["domain"] = args.domain
    return _apply_output_and_set(cfg, args)


def _apply_output_and_set(cfg: dict, args) -> dict:
    """--output and --format, then --set: one order for every command."""
    if args.output is not None:
        cfg.setdefault("output", {})["path"] = args.output
    if args.out_format is not None:
        cfg.setdefault("output", {})["format"] = args.out_format
    return _apply_set(cfg, args.assignments)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffmult",
        description="Desk-scale statistics for multiplicative functions on F_q[x]")
    parser.add_argument("--list-builtins", action="store_true",
                        help="print available functions, descriptors and kinds")
    subs = parser.add_subparsers(dest="command")
    run = subs.add_parser("run", help="run an experiment from a config file")
    run.add_argument("config_file")
    run.add_argument("--set", action="append", dest="assignments",
                     metavar="KEY=VALUE")
    run.add_argument("--output")
    run.add_argument("--format", choices=["csv", "json"], dest="out_format")
    for kind in KINDS:
        sub = subs.add_parser(kind, help=f"run a {kind} experiment")
        _common_flags(sub)
    return parser


def _execute(cfg: dict) -> int:
    config = validate_config(cfg)
    out_path = config.output_path
    if out_path and config.output_format == "csv":
        with open(out_path, "w") as fh:
            run_experiment(config, stream=fh)
        print(f"wrote {out_path}")
    else:
        result = run_experiment(config)
        if out_path:
            with open(out_path, "w") as fh:
                fh.write(result.to_json() + "\n")
            print(f"wrote {out_path}")
        else:
            text = (result.to_json() if config.output_format == "json"
                    else "\n".join(result.csv_lines()))
            print(text)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.list_builtins:
            print(list_builtins())
            return EXIT_OK
        if args.command is None:
            parser.print_help()
            return EXIT_VALIDATION
        if args.command == "run":
            cfg = _apply_output_and_set(_load_config(args.config_file), args)
        else:
            cfg = _flags_to_config(args, args.command)
        return _execute(cfg)
    except ConfigError as e:
        budget_only = all(p.startswith("budget:") for p in e.problems)
        for p in e.problems:
            print(f"config error: {p}", file=sys.stderr)
        return EXIT_BUDGET if budget_only else EXIT_VALIDATION
    except BudgetError as e:
        print(f"budget refusal: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (OSError, json.JSONDecodeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as e:  # pragma: no cover - tripwire
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
