"""Record the SHA-256 reference digests of the `exact_ospt` CSV.

Run once, from the repository root, on the commit whose output is the
reference:

    python3 perfbench/make_reference.py

It runs `overmoments ospt --r 1:6 --N 1:<top>` for the largest Nmax the
workload can draw, then derives the CSV that every smaller Nmax in the
range would produce (rows are ordered by r, then N, so each r-block of a
smaller run is a prefix of the same block here) and writes its digest to
`perfbench/reference.json`.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.abspath("src")]

from workloads import OSPT_NMAX_RANGE, OSPT_ORDERS  # noqa: E402


def main() -> int:
    lo, hi = OSPT_NMAX_RANGE
    orders = f"{OSPT_ORDERS[0]}:{OSPT_ORDERS[-1]}"
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        path = os.path.join(tmp, "ospt.csv")
        subprocess.run(
            [sys.executable, "-m", "overmoments", "ospt", "--r", orders,
             "--N", f"1:{hi}", "--out", path],
            env=env, check=True,
        )
        with open(path, "rb") as fp:
            header, *rows = fp.read().splitlines(keepends=True)
    blocks = [rows[i * hi:(i + 1) * hi] for i in range(len(OSPT_ORDERS))]
    digests = {}
    for nmax in range(lo, hi + 1):
        h = hashlib.sha256(header)
        for block in blocks:
            h.update(b"".join(block[:nmax]))
        digests[str(nmax)] = h.hexdigest()
    with open(os.path.join(HERE, "reference.json"), "w") as fp:
        json.dump({"ospt_csv_sha256": digests}, fp, indent=1, sort_keys=True)
        fp.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
