"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/child.py '<spec as JSON>'

`run.py` starts it with PYTHONPATH pointing at the checkout's `src`.  The
spec names the workload, seed, repetition id, the parent's spawn time, a
work directory, the result file and, for a traced repetition, the spans
file.  Set-up time runs from the spawn until the package is imported and
the inputs are generated; solve time from the first call into the package
until the last output is written.  Checks run after the clock stops.
"""

import json
import os
import resource
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    import overmoments.cli  # noqa: F401  (imports every layer)

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(overmoments.__file__).startswith(src + os.sep):
        print(f"overmoments imported from {overmoments.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    make_inputs, solve, check = WORKLOADS[spec["workload"]]
    inputs = make_inputs(spec["seed"])
    # time.monotonic is CLOCK_MONOTONIC, shared by all processes on Linux
    result = {"setup_s": time.monotonic() - spec["t_spawn"], "inputs": inputs}
    if not spec["setup_only"]:
        tracer = None
        if spec["trace"]:
            from tracer import ROOT, Tracer, layer_metrics

            tracer = Tracer(spec["rep"])
            result["untraced_targets"] = tracer.install()
            solve = tracer.wrap(ROOT, solve)
        t0 = time.perf_counter()
        outputs = solve(inputs, spec["workdir"])
        result["solve_s"] = time.perf_counter() - t0
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.uninstall()
        values, checks, observed = check(inputs, outputs)
        result.update(values=values, checks=checks)
        if tracer is not None:
            result["layers"] = {**layer_metrics(tracer.spans, tracer.counters), **observed}
            with open(spec["spans"], "w") as fp:
                json.dump(tracer.spans, fp)
    with open(spec["result"], "w") as fp:
        json.dump(result, fp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
