"""Batch command-line front end.

Subcommands: series (exact coefficients), ospt (positivity table),
converge (main-term ratio tables), verify (the pass/fail report of one
suite of `checks`).  This module only parses, dispatches and writes.
Outputs are deterministic: identical arguments produce byte-identical
files.  Exit codes: 0 success, 1 check failure, 2 usage error, 3 resource
guard tripped.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from itertools import chain, repeat
from typing import Sequence

import mpmath as mp

from . import asympt, checks, genfunc
from .errors import OversizeRequest, QuadratureFailure
from .series import check_order, check_trunc, theta4_quotient_at

PREC_MIN, PREC_MAX = 64, 4096


def _parse_range(text: str) -> range:
    """'A:B' inclusive, or a single integer; a range, so no list is built."""
    if ":" in text:
        a, b = text.split(":", 1)
        lo, hi = int(a), int(b)
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty range {text!r}")
        return range(lo, hi + 1)
    return range(int(text), int(text) + 1)


def _at_least(values: Sequence[int], least: int, name: str) -> Sequence[int]:
    low = min(values)
    if low < least:
        raise argparse.ArgumentTypeError(f"{name} must be >= {least}, got {low}")
    return values


def _parse_orders(text: str) -> Sequence[int]:
    """Range of moment orders, each r >= 1."""
    return _at_least(_parse_range(text), 1, "r")


def _parse_indices(text: str) -> Sequence[int]:
    """Range of coefficient indices, each N >= 0."""
    return _at_least(_parse_range(text), 0, "N")


def _parse_order(text: str) -> int:
    """One moment order r >= 1."""
    return _at_least([int(text)], 1, "r")[0]


def _parse_budget(text: str) -> int:
    """Enumeration budget >= 0."""
    return _at_least([int(text)], 0, "budget")[0]


def _parse_grid(text: str) -> list[int]:
    vals = [int(v) for v in text.split(",") if v]
    if not vals:
        raise argparse.ArgumentTypeError("empty grid")
    return _at_least(vals, 0, "N")


def _check_prec(value: str) -> int:
    prec = int(value)
    if not PREC_MIN <= prec <= PREC_MAX:
        raise argparse.ArgumentTypeError(
            f"precision {prec} outside [{PREC_MIN}, {PREC_MAX}]"
        )
    return prec


@contextmanager
def _output(path: str | None):
    """sys.stdout for None or "-", else the file at path, closed on exit."""
    if path is None or path == "-":
        yield sys.stdout
        return
    try:
        fp = open(path, "w")
    except OSError as exc:
        # main reports it as a usage error, exit 2
        raise ValueError(f"cannot open --out: {exc}") from None
    with fp:
        yield fp


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def cmd_series(args) -> int:
    ser = genfunc.moment_series("symmetrized", args.kind, args.r, args.trunc, args.shift)
    manifest = genfunc.series_manifest(args.kind, args.r, args.trunc, ser)
    with _output(args.out) as fp:
        if args.format == "csv":
            fp.write("n,coefficient\n")
            for n, c in enumerate(ser):
                fp.write(f"{n},{c}\n")
        else:
            json.dump(
                {**manifest, "shift": args.shift, "coefficients": [str(c) for c in ser]},
                fp,
                sort_keys=True,
            )
            fp.write("\n")
    return 0


# ---------------------------------------------------------------------------
# ospt
# ---------------------------------------------------------------------------


def _verdict(N: int, v: int) -> str:
    if N == 0:
        return "not-applicable"
    return "positive" if v > 0 else "zero" if v == 0 else "negative"


def cmd_ospt(args) -> int:
    """One order's values resident at a time: each order's rows are written
    as soon as its division is done, so memory does not grow with --r."""
    nmax = max(args.N)
    check_trunc(nmax)
    check_order(max(args.r))
    csv = args.format == "csv"
    seps = chain([""], repeat(", "))  # json.dump's item separator
    with _output(args.out) as fp:
        fp.write("r,N,ospt,verdict\n" if csv else "[")
        for r in args.r:
            vals = genfunc.moment_series("difference", "crank", r, nmax)
            if csv:
                fp.writelines(f"{r},{N},{vals[N]},{_verdict(N, vals[N])}\n" for N in args.N)
            else:
                fp.writelines(
                    sep + json.dumps(
                        {"r": r, "N": N, "ospt": str(vals[N]), "verdict": _verdict(N, vals[N])},
                        sort_keys=True,
                    )
                    for sep, N in zip(seps, args.N)
                )
            del vals
        if not csv:
            fp.write("]\n")
    return 0


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------


def _converge_row(flavor: str, r: int, N: int, prec: int, exact: int) -> dict:
    log_exact = asympt.log_integer(exact, prec)
    log_main = asympt.main_term(flavor, r, N, prec)
    with mp.workprec(prec):
        ratio = mp.e ** (log_exact - log_main)
        return {
            "N": N,
            "log_exact": mp.nstr(log_exact, 30),
            "log_main": mp.nstr(log_main, 30),
            "ratio": float(ratio),
            "residual": float(abs(ratio - 1)),
        }


def _convergence_rows(flavor: str, kind: str, r: int, grid: list[int], prec: int):
    numerator = genfunc.numerator(flavor, kind, r, max(grid))
    rows = []
    for N, exact in zip(grid, theta4_quotient_at(numerator, grid)):
        if exact <= 0:
            raise ValueError(f"exact value at N={N} is not positive")
        rows.append(_converge_row(flavor, r, N, prec, exact))
    return rows


def _monotone_verdict(rows) -> str | None:
    if len(rows) < 2:
        return None
    res = [row["residual"] for row in rows]
    return "decreasing" if all(b < a for a, b in zip(res, res[1:])) else "not-decreasing"


def cmd_converge(args) -> int:
    rows = _convergence_rows(args.flavor, args.kind, args.r, args.grid, args.prec)
    verdict = _monotone_verdict(rows)
    with _output(args.out) as fp:
        if args.format == "csv":
            fp.write("N,log_exact,log_main,ratio,residual\n")
            for row in rows:
                fp.write(
                    f"{row['N']},{row['log_exact']},{row['log_main']},"
                    f"{row['ratio']!r},{row['residual']!r}\n"
                )
            fp.write(f"# prec_bits={args.prec}\n")
            if verdict is not None:
                fp.write(f"# verdict={verdict}\n")
        else:
            json.dump(
                {
                    "flavor": args.flavor,
                    "kind": args.kind,
                    "r": args.r,
                    "prec_bits": args.prec,
                    "rows": rows,
                    "verdict": verdict,
                },
                fp,
                sort_keys=True,
            )
            fp.write("\n")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    results = checks.SUITES[args.suite](args.budget)
    passed = all(c["passed"] for c in results)
    report = {"suite": args.suite, "passed": passed, "checks": results}
    with _output(args.out) as fp:
        json.dump(report, fp, sort_keys=True, indent=2)
        fp.write("\n")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overmoments",
        description="Exact and asymptotic overpartition crank/rank moments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("series", help="write exact series coefficients")
    p.add_argument("--kind", choices=("crank", "rank"), required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--trunc", type=int, required=True)
    p.add_argument("--shift", type=int, default=None,
                   help="binomial shift (default floor((r-1)/2))")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("ospt", help="exact ospt values with positivity verdicts")
    p.add_argument("--r", type=_parse_orders, required=True, metavar="A:B")
    p.add_argument("--N", type=_parse_indices, required=True, metavar="A:B")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_ospt)

    p = sub.add_parser("converge", help="main-term ratio table over an N grid")
    p.add_argument("--flavor", choices=("moment", "difference", "symmetrized"),
                   required=True)
    p.add_argument("--kind", choices=("crank", "rank"), default="crank")
    p.add_argument("--r", type=_parse_order, required=True)
    p.add_argument("--grid", type=_parse_grid, required=True, metavar="N1,N2,...")
    p.add_argument("--prec", type=_check_prec, default=256)
    # only 1 is accepted, so older command lines that pass it still run
    p.add_argument("--workers", type=int, choices=(1,), default=1, help=argparse.SUPPRESS)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("verify", help="run a named check suite")
    p.add_argument("--suite", choices=sorted(checks.SUITES), required=True)
    p.add_argument("--workers", type=int, choices=(1,), default=1, help=argparse.SUPPRESS)
    p.add_argument("--budget", type=_parse_budget, default=checks.BUDGET)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # an unopenable --out is refused now, but opened after the work: a tripped guard leaves none
        if args.out not in (None, "-"):
            if os.path.isdir(args.out):
                raise ValueError(f"cannot open --out {args.out}: it is a directory")
            if not os.access(os.path.dirname(args.out) or ".", os.W_OK):
                raise ValueError(f"cannot open --out {args.out}: its directory is not writable")
        return args.func(args)
    except ValueError as exc:
        # the library's argument validation and an unopenable --out: a
        # usage error, not a traceback
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except (OversizeRequest, QuadratureFailure) as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
