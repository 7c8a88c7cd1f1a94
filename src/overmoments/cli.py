"""Batch command-line front end.

Subcommands: series (exact coefficients), ospt (positivity table), converge
(the main-term ratio table of `checks.converge`), verify (the pass/fail report
of one suite of `checks`).  This module only parses, dispatches and writes;
each resource guard is a cap of the library module it guards, not an option.
The order and size rules are the library's (`series.check_order`,
`check_size`, `check_trunc`): ospt checks the ends of its ascending --r and
--N ranges, O(1) however long they are, before any output or work; converge's
--grid must ascend strictly and meet `series.check_indices`, and its --r and
--grid `asympt.main_term`'s rules, before its numerator is built; converge
--flavor difference checks --kind but only echoes it.  An --out that is empty,
a directory, or in a missing, unwritable or non-directory parent is refused
before any work, and opened after every guard: by ospt before its first
division, by the others after their work, so a tripped guard leaves no file.
Identical arguments give byte-identical outputs.  Exit codes: 0 success, 1
check failure, 2 usage error (one line on stderr), 3 resource guard tripped.

Imports: this module loads no numeric module.  The exact commands (series,
ospt, verify --suite oracle|proposition) load the exact layer only, and
`checks` imports the numeric modules inside the functions that use them, so
only converge and verify --suite residual|wright pay for them; `cmd_series`
loads hashlib for the checksum of series --format json.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from itertools import chain, repeat
from typing import get_args

from . import checks, genfunc
from .errors import OversizeRequest, QuadratureFailure
from .series import Kind, check_order, check_size, check_trunc


def _parse_range(text: str) -> range:
    """'A:B' inclusive, or a single integer; a range, so no list is built."""
    if ":" in text:
        a, b = text.split(":", 1)
        lo, hi = int(a), int(b)
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty range {text!r}")
        return range(lo, hi + 1)
    return range(int(text), int(text) + 1)


def _parse_grid(text: str) -> list[int]:
    vals = [int(v) for v in text.split(",") if v]
    if not vals:
        raise argparse.ArgumentTypeError("empty grid")
    return vals


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
    with _output(args.out) as fp:
        if args.format == "csv":
            fp.write("n,coefficient\n")
            for n, c in enumerate(ser):
                fp.write(f"{n},{c}\n")
        else:
            import hashlib  # OpenSSL; loaded by series --format json only

            # the SHA-256 of the coefficients joined by newlines, fed one at a
            # time; then json.dump's bytes, with the coefficient strings written
            # one at a time into the one empty list of the sorted manifest
            digest = hashlib.sha256()
            for sep, c in zip(chain([""], repeat("\n")), ser):
                digest.update(f"{sep}{c}".encode())
            manifest = {"kind": args.kind, "r": args.r, "trunc": args.trunc, "shift": args.shift,
                        "checksum": digest.hexdigest(), "coefficients": []}
            head, tail = json.dumps(manifest, sort_keys=True).split("[]")
            fp.write(head + "[")
            fp.writelines(sep + f'"{c}"' for sep, c in zip(chain([""], repeat(", ")), ser))
            fp.write("]" + tail + "\n")
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
    # --r and --N ascend, so their ends bound every order and index
    check_order(args.r[0], least=1)
    check_order(args.r[-1])
    check_size("N", args.N[0], 0)
    check_trunc(nmax := args.N[-1])
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


def cmd_converge(args) -> int:
    table = checks.converge(args.flavor, args.kind, args.r, args.grid)
    with _output(args.out) as fp:
        if args.format == "csv":
            fp.write("N,log_exact,log_main,ratio,residual\n")
            # str of a float is its repr
            fp.writelines(",".join(map(str, row.values())) + "\n" for row in table["rows"])
            fp.write(f"# prec_bits={table['prec_bits']}\n")
            if table["verdict"] is not None:
                fp.write(f"# verdict={table['verdict']}\n")
        else:
            json.dump(table, fp, sort_keys=True)
            fp.write("\n")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    results = checks.SUITES[args.suite]()
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
    p.add_argument("--kind", choices=get_args(Kind), required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--trunc", type=int, required=True)
    p.add_argument("--shift", type=int, default=None,
                   help="binomial shift (default floor((r-1)/2))")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("ospt", help="exact ospt values with positivity verdicts")
    p.add_argument("--r", type=_parse_range, required=True, metavar="A:B")
    p.add_argument("--N", type=_parse_range, required=True, metavar="A:B")
    p.set_defaults(func=cmd_ospt)

    p = sub.add_parser("converge", help="main-term ratio table over an N grid")
    p.add_argument("--flavor", choices=get_args(genfunc.Flavor), required=True)
    p.add_argument("--kind", choices=get_args(Kind), default="crank")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--grid", type=_parse_grid, required=True, metavar="N1,N2,...")
    # only 1 is accepted, so older command lines that pass it still run
    p.add_argument("--workers", type=int, choices=(1,), default=1, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("verify", help="run a named check suite")
    p.add_argument("--suite", choices=sorted(checks.SUITES), required=True)
    p.add_argument("--workers", type=int, choices=(1,), default=1, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)

    for name, p in sub.choices.items():
        p.add_argument("--out", default=None)
        if name != "verify":
            p.add_argument("--format", choices=("csv", "json"), default="csv")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if (out := args.out) not in (None, "-"):
            parent = os.path.dirname(out) or "."
            writable = os.path.isdir(parent) and os.access(parent, os.W_OK)
            if not out or os.path.isdir(out) or not writable:
                raise ValueError(f"cannot open --out {out}: not a file in a writable directory")
        return args.func(args)
    except ValueError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except (OversizeRequest, QuadratureFailure) as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
