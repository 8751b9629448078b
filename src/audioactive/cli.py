"""Command-line surface.

Every capability of the library is reachable as a subcommand with stable,
scriptable output.  Exit codes: 0 on success, 1 on a verification or
convergence failure, 2 on usage or input errors.  Progress goes to
stderr only, keeping stdout clean for piping; ``verify`` prints one line
per length with the number of strings it checked, once its count is done.
A reader closing the pipe early ends the command quietly with exit code 1.

``main`` reads a subcommand's arguments straight from ``_COMMANDS`` when
they are well formed: exact long flags, each value as the next argument,
and positionals, where no value or positional starts with ``-`` and every
value passes its flag's ``type`` and ``choices``.  Anything else (``-h``,
``--flag=value``, abbreviations, ``--``, a bad, missing or leftover
argument) goes unchanged to the one parser of all ten subcommands,
``build_parser()``, which writes all help and error text; argparse is
imported only then.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import types
from collections import Counter
from typing import TYPE_CHECKING, Sequence

from . import cosmology
from . import particles as particles_mod
from . import spectral, splitting
from .core import (
    ConvergenceError,
    DigitString,
    SearchBudgetError,
    TokenString,
    fixed_point_search,
    iterate,
    iterate_tokens,
)
from .spectral import FREQ_DECIMALS, LAMBDA_DECIMALS

if TYPE_CHECKING:
    import argparse


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_step(args) -> int:
    if args.tokens:
        for it in iterate_tokens(TokenString.parse(args.string), args.n):
            print(it.render())
        return 0
    seed = DigitString(args.string, args.base)
    for it in iterate(seed, args.n):
        print(it.text)
    return 0


def _cmd_decompose(args) -> int:
    s = DigitString(args.string, 3)
    dec = splitting.decompose(s, args.mode)
    if args.format == "json":
        print(*dec.json_parts(), sep="")
    else:
        print(f"{dec.render()} = {dec.particle_names()}")
    return 0


def _cmd_verify(args) -> int:
    if args.out is None:
        return _verify(args.cap, sys.stdout.write, sys.stderr)
    # Proved writable before the count, so a bad path costs nothing, but
    # only for appending, so an input error leaves the file as it was.
    try:
        open(args.out, "a", encoding="utf-8").close()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def write_csv(table: str) -> None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(table)

    return _verify(args.cap, write_csv, sys.stdout)


def _verify(cap: int, write_csv, verdict_stream) -> int:
    report = cosmology.verify_cosmological(cap=cap)
    over = Counter(map(len, report.failures))
    for n in report.table.lengths:
        count = report.table.row_total(n) + over[n]
        print(f"verify: length {n} ({count} strings)", file=sys.stderr)
    write_csv(report.table.to_csv())
    if report.verified:
        print(
            f"VERIFIED max_iterations={report.max_iterations} strings={report.total_strings}",
            file=verdict_stream,
        )
        return 0
    for text in report.failures:
        print(f"FAIL {text} exceeded cap", file=verdict_stream)
    return 1


def _print_texts(fmt: str, texts: list[str], meta: dict, key: str) -> None:
    """One text per line (csv adds a ``string`` header), or one json object
    holding ``meta`` and the texts under ``key``."""
    if fmt == "json":
        print(json.dumps({**meta, key: texts}))
        return
    if fmt == "csv":
        print("string")
    for text in texts:
        print(text)


def _cmd_ancients(args) -> int:
    strings = cosmology._essential_texts(args.length)
    meta = {"length": args.length, "count": len(strings)}
    if not args.count_only:
        _print_texts(args.format, strings, meta, "strings")
    elif args.format == "json":
        print(json.dumps(meta))
    else:
        print(len(strings))
    return 0


def _cmd_fixedpoints(args) -> int:
    fixed = [
        s.text
        for s in fixed_point_search(args.base, args.max_len, primitive_only=not args.all)
    ]
    _print_texts(args.format, fixed, {"base": args.base, "max_len": args.max_len}, "fixed")
    return 0


def _cmd_growth(args) -> int:
    seed = DigitString(args.seed, args.base)
    est = spectral.empirical_growth(seed, args.iters)
    if args.format == "json":
        print(json.dumps(est.to_json()))
    elif args.format == "csv":
        print("n,length,ratio")
        for n, length in enumerate(est.lengths):
            ratio = "" if n == 0 else f"{est.ratios[n - 1]:.{LAMBDA_DECIMALS}f}"
            print(f"{n},{length},{ratio}")
    else:
        print(f"estimate={est.estimate:.{LAMBDA_DECIMALS}f}")
        print(f"final_length={est.lengths[-1]}")
    return 0


def _cmd_frequencies(args) -> int:
    freqs = spectral.limiting_frequencies()
    if args.format == "json":
        print(json.dumps({sym: round(freqs[sym], FREQ_DECIMALS) for sym in spectral.MATRIX_ORDER}))
    elif args.format == "csv":
        sys.stdout.write(spectral.frequencies_csv(freqs))
    else:
        for sym in spectral.MATRIX_ORDER:
            print(f"{sym} {freqs[sym]:.{FREQ_DECIMALS}f}")
    return 0


def _cmd_spectrum(args) -> int:
    if args.table and args.format == "json":
        raise ValueError(f"--table {args.table} writes CSV and cannot be used with --format json")
    matrix = spectral.fermion_matrix()
    if args.table == "charpoly":
        sys.stdout.write(spectral.charpoly_csv(spectral.characteristic_polynomial(matrix)))
        return 0
    if args.table == "eigenvalues":
        sys.stdout.write(spectral.eigenvalues_csv(spectral.eigenvalues(matrix)))
        return 0
    lam = spectral.dominant_eigenvalue(matrix)
    coeffs = spectral.characteristic_polynomial(matrix)
    _, remainder = spectral.polynomial_division(coeffs, spectral.GROWTH_POLYNOMIAL)
    power = spectral.primitivity_power(matrix)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "lambda": round(lam, LAMBDA_DECIMALS),
                    "characteristic_polynomial": list(coeffs),
                    "growth_polynomial_divides": not remainder,
                    "primitivity_power": power,
                }
            )
        )
    else:
        print(f"lambda={lam:.{LAMBDA_DECIMALS}f}")
        print("characteristic_polynomial=" + ",".join(map(str, coeffs)))
        print(f"growth_polynomial_divides={'true' if not remainder else 'false'}")
        print(f"primitivity_power={power}")
    return 0


def _cmd_kvalue(args) -> int:
    report = cosmology.k_value(DigitString(args.string, 3), max_iter=args.iters)
    if args.format == "json":
        print(json.dumps(report.to_json()))
    else:
        if isinstance(report.k, tuple):
            print(f"k={report.k[0]}..{report.k[1]}")
        else:
            print(f"k={report.k}")
        print(f"stabilized={'true' if report.stabilized else 'false'}")
        print(f"iterations_to_common={report.iterations}")
        print("limsup=" + ",".join(particles_mod._registry_sorted(report.limsup)))
        print("liminf=" + ",".join(particles_mod._registry_sorted(report.liminf)))
    return 0


def _cmd_particles(args) -> int:
    data = particles_mod.registry_json()
    if args.format == "json":
        print(json.dumps(data))
    else:
        for entry in data:
            products = ".".join(entry["products"])
            print(f"{entry['symbol']:>2} {entry['digits']:>8} {entry['class']:<8} -> {products}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_ALL = ("text", "csv", "json")
_TEXT_JSON = ("text", "json")
# Each subcommand: its handler, its help line, the choices of its --format
# (added last) and its other arguments, each a name or flag and keywords.
_COMMANDS = {
    "step": (_cmd_step, "iterate the describing step on a string", (), (
        ("string", dict(help="digit string, or comma-separated tokens with --tokens")),
        ("--base", dict(type=int, default=3, help="digit base (2..10, default 3)")),
        ("--n", dict(type=int, default=1, help="number of iterations")),
        ("--tokens", dict(action="store_true", help="token mode (counts stay atomic)")),
    )),
    "decompose": (_cmd_decompose, "factor a base-3 string into irreducible segments", _TEXT_JSON, (
        ("string", {}),
        ("--mode", dict(choices=("full", "conservative"), default="full")),
    )),
    "verify": (_cmd_verify, "verify decay of every essential ancient string", (), (
        ("--out", dict(help="write the decay-table CSV to this path instead of stdout")),
        ("--cap", dict(type=int, default=cosmology.DEFAULT_CAP, help="iteration cap")),
    )),
    "ancients": (_cmd_ancients, "enumerate essential ancient strings of one length", _ALL, (
        ("--length", dict(type=int, required=True)),
        ("--count-only", dict(action="store_true")),
    )),
    "fixedpoints": (_cmd_fixedpoints, "exhaustively search for step-fixed strings", _ALL, (
        ("--base", dict(type=int, default=3)),
        ("--max-len", dict(type=int, default=16)),
        ("--all", dict(action="store_true",
                       help="include concatenations of smaller fixed strings")),
    )),
    "growth": (_cmd_growth, "estimate the length growth rate empirically", _ALL, (
        ("--seed", dict(default="1")),
        ("--base", dict(type=int, default=3)),
        ("--iters", dict(type=int, default=60)),
    )),
    "frequencies": (_cmd_frequencies, "limiting fermion frequencies", _ALL, ()),
    "spectrum": (_cmd_spectrum, "dominant eigenvalue and characteristic polynomial", _TEXT_JSON, (
        ("--table", dict(choices=("charpoly", "eigenvalues"), help="emit a CSV table")),
    )),
    "kvalue": (_cmd_kvalue, "long-run particle support of a seed string", _TEXT_JSON, (
        ("string", {}),
        ("--iters", dict(type=int, default=64, help="cap on iterations to become common")),
    )),
    "particles": (
        _cmd_particles, "dump the particle registry and decay chart", ("json", "text"), ()
    ),
}


def _arguments_of(command: str) -> tuple:
    """The arguments of ``command``, its ``--format`` (if any) last."""
    _, _, formats, arguments = _COMMANDS[command]
    if formats:
        arguments += (("--format", dict(choices=formats, default="text", help="output format")),)
    return arguments


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of all ten subcommands, built on first use and
    shared by later calls."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="audioactive",
        description="Base-3 look-and-say dynamics: iteration, splitting, verification, spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, _, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag, options in _arguments_of(name):
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return parser


@functools.cache
def _flag_table(command: str) -> tuple[dict, list, dict, list]:
    """``command``'s namespace before its arguments are read (its defaults),
    its positionals and its flags, each with its dest and options, and the
    dests that must be given, all as ``build_parser`` adds them."""
    defaults = {"command": command, "func": _COMMANDS[command][0]}
    positionals, flags, required = [], {}, []
    for name, options in _arguments_of(command):
        if name.startswith("--"):
            dest = name[2:].replace("-", "_")
            flags[name] = dest, options
            store_true = options.get("action") == "store_true"
            defaults[dest] = options.get("default", False if store_true else None)
            if options.get("required"):
                required.append(dest)
        else:
            positionals.append((name, options))
            defaults[name] = None
            required.append(name)
    return defaults, positionals, flags, required


def _read(argv: Sequence[str]) -> types.SimpleNamespace | None:
    """The full parser's namespace for ``argv``, a known subcommand and its
    arguments, when they are well formed (see the module docstring), or
    None: the parser must then read them."""
    defaults, positionals, flags, required = _flag_table(argv[0])
    values, free, rest = dict(defaults), iter(positionals), iter(argv[1:])
    for arg in rest:
        if arg in flags:
            dest, options = flags[arg]
            if options.get("action") == "store_true":
                values[dest] = True
                continue
            arg = next(rest, "-")
        else:
            dest, options = next(free, (None, None))
        if dest is None or arg.startswith("-"):
            return None
        try:
            value = options.get("type", str)(arg)
        except ValueError:
            return None
        if value not in options.get("choices", (value,)):
            return None
        values[dest] = value
    if any(values[dest] is None for dest in required):
        return None
    return types.SimpleNamespace(**values)


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = argv and argv[0] in _COMMANDS and _read(argv) or build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # As the Python docs advise for SIGPIPE: the exit's own flush of
        # stdout would fail again, so send what is left to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, SearchBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
