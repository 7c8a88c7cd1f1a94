"""Fixtures shared across test modules."""

import time

import pytest

from overmoments import cli


@pytest.fixture(scope="session")
def verify_run(tmp_path_factory):
    """suite -> (exit code, report bytes, seconds) of `verify --suite S`
    through `cli.main`, each suite run once per pytest run: the acceptance
    tests and the report digests read the same run."""
    runs = {}

    def run(suite: str) -> tuple[int, bytes, float]:
        if suite not in runs:
            out = tmp_path_factory.mktemp("verify") / f"{suite}.json"
            t0 = time.perf_counter()
            code = cli.main(["verify", "--suite", suite, "--out", str(out)])
            runs[suite] = code, out.read_bytes(), time.perf_counter() - t0
        return runs[suite]

    return run
