"""Command-line front end: analyze, solve, converge, check.

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 check-suite failure.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .harness import (CONFIG_KEYS, _KEYS, ExperimentConfig, NumericalError, _FieldError, _flag,
                      config_from_file, run_checks, run_convergence, run_solve)
from .matrix_transfer import (MAX_STAGES, error_transfer, key_factor_table, render_matrices,
                              render_table, stability_transfer)
from .sv_space import snapshot_table

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_CHECK = 3


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # read a negative fraction such as -1/2 as a value, as argparse reads -1 and -0.5
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_solve_flags(p, **helps):
    p.add_argument("--example", choices=["1", "2"], help="built-in problem id")
    p.add_argument("--config", help="plain-text config file naming a registered problem")
    for key, spec in _KEYS.items():  # as text, which config_from_file converts
        if key != "problem":
            p.add_argument(_flag(key), help=helps.get(key, spec.help))


def _build_config(args) -> ExperimentConfig:
    """The ``--config`` file with every given flag on top of it; ``--example``
    is a config that has no file, so each of its values is a flag."""
    if args.config is None:
        if args.example is None:
            raise ValueError("either --example or --config is required")
        missing = [f"--{key}" for key in ("scheme", "k", "s", "n", "cfl")
                   if getattr(args, key) is None]
        if missing:
            raise ValueError(f"missing required flags: {', '.join(missing)}")
    values = {key: getattr(args, key) for key in CONFIG_KEYS if key != "problem"}
    return config_from_file(args.config, problem=args.example and int(args.example), **values)


def _cmd_analyze(args) -> int:
    flag, s = ("--s-max", args.s_max) if args.s is None else ("--s", args.s)
    if not 1 <= s <= MAX_STAGES:
        raise ValueError(f"{flag} must be in 1..{MAX_STAGES}, got {s}")
    if args.s is not None:
        reports = [stability_transfer(args.s)]
    else:
        reports = key_factor_table(args.s_max)
    print(render_table(reports, args.format))
    if args.show_matrices:
        for report in reports:
            print()
            print(render_matrices(error_transfer(report.s), args.format))
    return EXIT_OK


def _require_writable(path) -> None:
    """Raise OSError before any work if ``path`` cannot be opened for writing; a
    file that the probe creates is removed at once, one that was there is kept."""
    if path:
        try:
            open(path, "x", encoding="utf-8").close()
            os.remove(path)
        except FileExistsError:
            open(path, "a", encoding="utf-8").close()


def _cmd_solve(args) -> int:
    config = _build_config(args)
    _require_writable(args.snapshot)
    result = run_solve(config)
    print(f"N={result.n} L2={result.l2:.3e} Linf={result.linf:.3e} "
          f"steps={result.steps} tau={result.tau:.3e} wall={result.wall_time:.2f}s")
    if args.snapshot:
        with open(args.snapshot, "w", encoding="utf-8") as fh:
            fh.write(snapshot_table(result.state) + "\n")
        print(f"snapshot written to {args.snapshot}")
    return EXIT_OK


def _cmd_converge(args) -> int:
    config = _build_config(args)
    _require_writable(args.output)
    table = run_convergence(config)
    if args.format == "csv":
        text = table.to_csv()
    else:
        text = table.to_markdown()
    print(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(table.to_csv() + "\n")
    return EXIT_OK


def _cmd_check(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    report = run_checks(args.seed)
    print(report.text())
    return EXIT_OK if report.passed else EXIT_CHECK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rksv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("analyze", help="exact stability/error key-factor analysis")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--s", type=int, help="analyze a single stage count")
    group.add_argument("--s-max", type=int, default=12, help="analyze s = 1..S (default 12)")
    p.add_argument("--show-matrices", action="store_true")
    p.add_argument("--format", choices=["md", "csv", "tex"], default="md")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("solve", help="single solve with error measurement")
    _add_solve_flags(p, n="element count N")
    p.add_argument("--snapshot", help="write a plain-text solution snapshot to this file")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("converge", help="convergence study over doubling meshes")
    _add_solve_flags(p)
    p.add_argument("--format", choices=["md", "csv"], default="md")
    p.add_argument("--output", help="also write the CSV table to this file")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("check", help="run the randomized identity/invariant suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage problems by exiting
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _FieldError as exc:  # a value that a run rejected; its message begins with the key
        message = str(exc)
        if getattr(args, exc.key) is not None:  # named after the flag that set it
            message = exc.flag + message.removeprefix(exc.key)
        elif args.config is not None:
            message = f"{args.config}: {message}"
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
