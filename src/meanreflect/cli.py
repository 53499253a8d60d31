"""Command-line entry point.

Subcommands:
    run <config>     solve, write CSV + report, print per-check lines
    verify <config>  solve and check, write the report only (no CSV)
    probe <config>   force gexp_probe mode (config must name a payoff)
    list             print the built-in registry names

Set MEANREFLECT_OUTPUT_DIR to redirect all output files into one directory.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .config import config_from_dict, load_config
from .errors import ConfigError
from .registry import REGISTRIES
from .runner import EXIT_CONFIG_ERROR, run_experiment


def _printable(text) -> str:
    """``str(text)`` with each non-printable character escaped as ``repr``
    escapes it, so that a path cannot put control bytes on the terminal;
    printable text is returned as it is."""
    text = str(text)
    if text.isprintable():
        return text
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in text)


def _print_checks(result) -> None:
    for check in result.report["checks"]:
        status = "PASS" if check["pass"] else "FAIL"
        print(f"{status} {check['name']}: measured={check['measured']!r} "
              f"threshold={check['threshold']!r}")
    if "solver_error" in result.report["diagnostics"]:
        print(f"solver error: {result.report['diagnostics']['solver_error']}")
    overall = "PASS" if result.overall_pass else "FAIL"
    where = f" (report: {_printable(result.report_path)})" if result.report_path else ""
    print(f"overall: {overall}{where}")


def _cmd_solve(args) -> int:
    """run, verify and probe; they differ only in the parser defaults
    ``write_csv`` and ``probe``."""
    config = load_config(args.config)
    if args.probe:
        raw = config.to_dict()
        raw["mode"] = "gexp_probe"
        config = config_from_dict(raw)
    result = run_experiment(config, output_dir=args.output_dir, write_csv=args.write_csv)
    _print_checks(result)
    return result.exit_code


def _cmd_list(_args) -> int:
    for kind, table in REGISTRIES.items():
        print(f"{kind}:")
        for name in sorted(table):
            print(f"  {name}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="meanreflect",
        description="Mean-reflection experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "verify", "probe"):
        cmd = sub.add_parser(name)
        cmd.add_argument("config", help="path to a JSON experiment config")
        cmd.add_argument("--output-dir", default=None,
                         help="directory overriding configured output paths")
        cmd.set_defaults(handler=_cmd_solve, write_csv=name != "verify",
                         probe=name == "probe")
    sub.add_parser("list").set_defaults(handler=_cmd_list)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        # the message may hold a configured path
        print(f"config error: {_printable(exc)}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
