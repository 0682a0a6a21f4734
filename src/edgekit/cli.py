"""Command-line front end.

One subcommand per experiment pillar:

    edgekit learn      --scenario s.yaml [--seed N]
    edgekit place      --scenario s.yaml [--seed N]
    edgekit radio      --scenario s.yaml [--seed N]
    edgekit integrated --scenario s.yaml [--seed N]

Exit codes: 0 success (and -h), 1 a command-line or scenario validation
error, 2 runtime error.
"""
from __future__ import annotations

import argparse
import functools
import sys

from .scenario import ParseError, ValidationError, parse_scenario
from .pipeline import run_scenario

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

_KIND_OF_COMMAND = {
    "learn": "learning",
    "place": "placement",
    "radio": "radio-dlt",
    "integrated": "integrated",
}


class _Parser(argparse.ArgumentParser):
    """A parser, and so each subcommand's, whose usage errors exit 1, not 2:
    2 is a runtime failure here."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


@functools.cache  # built once per process: parse_args leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="edgekit",
        description="Deterministic experiments: decentralized learning, energy-optimal placement, and NB-IoT/ledger latency models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, kind in _KIND_OF_COMMAND.items():
        p = sub.add_parser(cmd, help=f"run a {kind} scenario")
        p.add_argument("--scenario", required=True, help="path to the scenario YAML file")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    expected_kind = _KIND_OF_COMMAND[args.command]
    try:
        scenario = parse_scenario(args.scenario, seed_override=args.seed)
    except (FileNotFoundError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValidationError as exc:
        for e in exc.errors:
            print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    if scenario.kind != expected_kind:
        print(
            f"error: kind: scenario kind {scenario.kind!r} does not match subcommand {args.command!r}",
            file=sys.stderr,
        )
        return EXIT_VALIDATION
    try:
        paths = run_scenario(scenario)
    except Exception as exc:  # module errors propagate as runtime failures
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    for p in paths:
        print(p)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
