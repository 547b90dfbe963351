"""Command-line entry point: one subcommand per experiment kind plus `run`.

Exit codes: 0 success, 1 config validation failure, 2 budget refusal,
3 internal error.  Every flag names one config key (`_FLAGS`) and is set
through the path setter of `--set a.b.c=value`, which patches arbitrary
nested keys (values parsed as JSON when possible); a path through a value
that is not an object, the config file's root included, is a config error.
The order is the same for `run` and for every subcommand: the config file,
then the flags in the order of `_FLAGS` (`--output` and `--format`, the two
`run` takes, last), then `--set`, so `--set` wins over a flag for the same
key.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import BudgetError, ConfigError
from .experiments import KINDS, list_builtins, run_experiment, validate_config
from .fields import DEFAULT_BUDGET

EXIT_OK, EXIT_VALIDATION, EXIT_BUDGET, EXIT_INTERNAL = 0, 1, 2, 3

# each flag, the config key it sets (also its argparse dest) and its options,
# in the order the flags apply; `run` takes the last two
_FLAGS = (
    ("--p", "field.p", {"type": int, "help": "field characteristic"}),
    ("--r", "field.r", {"type": int, "help": "field extension degree"}),
    ("--seed", "seed", {"type": int}),
    ("--n-start", "n.start", {"type": int}),
    ("--n-stop", "n.stop", {"type": int}),
    ("--budget", "budget.max_evals_per_n",
     {"type": int, "help": "the run field's cap on every set and kernel cost "
                           f"(default {DEFAULT_BUDGET})"}),
    ("--domain", "domain", {"choices": ["all", "nonzero", "monic"]}),
    ("--output", "output.path", {"help": "output file path"}),
    ("--format", "output.format", {"choices": ["csv", "json"]}),
)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r") as fh:
        return json.load(fh)


def _assign(cfg, key: str, value, source: str) -> None:
    """cfg[a][b][c] = value for the key "a.b.c", creating missing sections;
    a node on the path that is not an object is a config error."""
    node, parts = cfg, key.split(".")
    for depth, part in enumerate(parts):
        if not isinstance(node, dict):
            at = ".".join(parts[:depth]) or "config"
            raise ConfigError([f"{source}: {at} is {json.dumps(node)}, not a section of keys"])
        if depth < len(parts) - 1:
            node = node.setdefault(part, {})
    node[parts[-1]] = value


def _build_config(args) -> dict:
    """The config file, then the subcommand's kind, the flags and --set."""
    cfg = _load_config(args.config)
    if args.command != "run":
        _assign(cfg, "kind", args.command, args.command)
    for flag, key, _ in _FLAGS:
        if getattr(args, key, None) is not None:
            _assign(cfg, key, getattr(args, key), flag)
    for item in args.assignments or ():
        key, eq, text = item.partition("=")
        if not eq:
            raise ConfigError([f"--set {item!r}: expected key=value"])
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text  # keep the raw string
        _assign(cfg, key, value, f"--set {key}")
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffmult",
        description="Desk-scale statistics for multiplicative functions on F_q[x]")
    parser.add_argument("--list-builtins", action="store_true",
                        help="print available functions, descriptors and kinds")
    subs = parser.add_subparsers(dest="command")
    run = subs.add_parser("run", help="run an experiment from a config file")
    run.add_argument("config", metavar="config_file")
    commands = [(run, _FLAGS[-2:])]
    for kind in KINDS:
        sub = subs.add_parser(kind, help=f"run a {kind} experiment")
        sub.add_argument("--config", help="JSON config file to start from")
        commands.append((sub, _FLAGS))
    for sub, flags in commands:
        for flag, key, options in flags:
            sub.add_argument(flag, dest=key, **options)
        sub.add_argument("--set", action="append", dest="assignments",
                         metavar="KEY=VALUE", help="override any config key (dotted path)")
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
        return _execute(_build_config(args))
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
