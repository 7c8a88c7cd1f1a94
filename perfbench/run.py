"""Benchmark driver for overmoments.  Run from the repository root:

    python3 perfbench/run.py --workload exact_ospt --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, one table
    python3 perfbench/run.py --baseline                  # the ROADMAP's single calls
    python3 perfbench/run.py --summary DIR               # medians of a result set
    python3 perfbench/run.py --compare BASE_DIR NEW_DIR  # verdict per (workload, metric)

Load model: a closed loop with one client.  Each repetition runs the whole
workload in a fresh interpreter (`child.py`), one after another with
nothing else started by the benchmark, because a CLI user pays for imports
and for the package's cold caches on every invocation.  A run first times
set-up alone in several fresh interpreters, then repeats the workload until
`--seconds` have passed (at least once).  End-to-end metrics come from
untraced repetitions; `--trace 1` runs one untraced and one traced
repetition and reports the per-layer metrics of `BENCHMARK.json`.

Every run writes its result, with machine info, to the result set
(`--results`, default `.perfbench_runs/results`); traced runs also write
their spans there.  The last line of standard output is one JSON object:
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from compare import compare, summarize  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
RUNS = ".perfbench_runs"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def load_json(path: str):
    with open(path) as fp:
        return json.load(fp)


def machine_info() -> dict:
    """Interpreter, mpmath backend and host, read at the start of a run."""
    import mpmath
    import mpmath.libmp

    def proc(path: str, key: str) -> str:
        with open(path) as fp:
            for line in fp:
                name, _, value = line.partition(":")
                if name.strip() == key:
                    return value.strip()
        return ""

    nproc = 0
    for part in proc("/proc/self/status", "Cpus_allowed_list").split(","):
        first, _, last = part.partition("-")
        nproc += int(last or first) - int(first) + 1
    with open("/proc/loadavg") as fp:
        load1 = float(fp.read().split()[0])
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": nproc,
        "cpu_model": proc("/proc/cpuinfo", "model name"),
        "load1_at_start": load1,
    }


def spawn(workload: str, seed: int, rep: int, results: str, *, trace: bool = False,
          setup_only: bool = False) -> dict:
    """Run one repetition in a fresh interpreter and return its result."""
    workdir = os.path.abspath(os.path.join(RUNS, "work", f"{os.getpid()}-{rep}"))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    stamp = f"{workload}-s{seed}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}-r{rep}"
    spec = {
        "workload": workload, "seed": seed, "rep": rep, "trace": trace,
        "setup_only": setup_only, "src": os.path.abspath("src"), "workdir": workdir,
        "result": os.path.join(workdir, "result.json"),
        "spans": os.path.abspath(os.path.join(results, "spans", f"{stamp}.json")),
    }
    env = dict(os.environ, PYTHONPATH=spec["src"])
    try:
        spec["t_spawn"] = time.monotonic()
        proc = subprocess.run([sys.executable, CHILD, json.dumps(spec)], env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"{workload} repetition {rep} exited {proc.returncode}:\n"
                             f"{proc.stderr[-3000:]}")
        return load_json(spec["result"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 results: str) -> dict:
    """Time one workload; return the result record that is also saved."""
    machine = machine_info()
    os.makedirs(os.path.join(results, "spans"), exist_ok=True)
    setup, reps, traced = [], [], None
    if trace:
        reps.append(spawn(workload, seed, 0, results))
        traced = spawn(workload, seed, 1, results, trace=True)
    else:
        spawn(workload, seed, -1, results, setup_only=True)  # fills __pycache__
        setup = [spawn(workload, seed, -1, results, setup_only=True)["setup_s"]
                 for _ in range(SETUP_SAMPLES)]
        start = time.monotonic()
        while not reps or time.monotonic() - start < seconds:
            reps.append(spawn(workload, seed, len(reps), results))
    setup += [r["setup_s"] for r in reps]
    checked = reps + ([traced] if traced else [])
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine, "inputs": reps[0]["inputs"],
        "setup_samples": setup, "reps": reps, "traced": traced,
        "attempted": sum(c["attempted"] for r in checked for c in r["checks"]),
        "failed": sum(c["failed"] for r in checked for c in r["checks"]),
        "metrics": {
            "setup_s": statistics.median(setup),
            "solve_s": statistics.median(r["solve_s"] for r in reps),
            "values_per_s": statistics.median(r["values"] / r["solve_s"] for r in reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        },
    }
    if traced:
        layers = dict(traced["layers"])
        layers["bench.trace_overhead_s"] = traced["solve_s"] - reps[0]["solve_s"]
        record["layers"] = layers
        record["counts"] = {k: v for k, v in layers.items() if is_count(k)}
    stamp = f"{workload}-s{seed}-t{int(trace)}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    with open(os.path.join(results, f"{stamp}.json"), "w") as fp:
        json.dump(record, fp, indent=1, sort_keys=True)
    return record


def is_count(name: str) -> bool:
    """Layer metrics that repeat exactly for identical inputs and code."""
    return name.endswith((".calls", "_bits", "evals_per_coeff"))


def show(record: dict, bench: dict) -> dict:
    """Print a run's metrics by name with units; return the metrics of the
    JSON result line (end-to-end untraced, per-layer traced)."""
    m = record["machine"]
    print(f"machine: python {m['python']}, mpmath {m['mpmath']} "
          f"(backend {m['mpmath_backend']}), nproc {m['nproc']}, "
          f"cpu {m['cpu_model']!r}, load1 {m['load1_at_start']}")
    print(f"workload {record['workload']} seed {record['seed']} "
          f"inputs {json.dumps(record['inputs'])}")
    if record["trace"]:
        source, specs = record["layers"], bench["per_layer"]
        print(f"  per-layer metrics from one traced repetition; untraced solve_s "
              f"{record['metrics']['solve_s']:.4f} s")
        missing = record["traced"].get("untraced_targets")
        if missing:
            print(f"  not traced (absent from the package): {', '.join(missing)}")
    else:
        source, specs = record["metrics"], bench["end_to_end"]
    metrics = {}
    for spec in specs:
        value = source.get(spec["name"], 0)
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        note = ""
        if not record["trace"]:
            samples = record["setup_samples"] if spec["name"] == "setup_s" else record["reps"]
            note = f"  (median of {len(samples)})"
        print(f"  {spec['name']:<40} {value:>14.6g} {spec['unit']}{note}")
    frac = record["failed"] / record["attempted"] if record["attempted"] else 1.0
    print(f"  {'failed_frac':<40} {frac:>14.6g}  ({record['failed']} of "
          f"{record['attempted']} checked outputs)")
    for r in record["reps"] + ([record["traced"]] if record["traced"] else []):
        for c in r["checks"]:
            if c["failed"]:
                print(f"  FAILED check {c['name']}: {c['failed']} of {c['attempted']}")
    return metrics


def result_line(records: list[dict], metrics: dict) -> str:
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def main(argv=None) -> int:
    manifest = load_json(os.path.join(HERE, "manifest.json"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=[*manifest["workloads"], "all"])
    mode.add_argument("--baseline", action="store_true",
                      help="time the single calls the ROADMAP quotes, traced")
    mode.add_argument("--summary", metavar="DIR", help="summarize a result set")
    mode.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                      help="compare two result sets")
    parser.add_argument("--seed", type=int, default=manifest["default_seed"])
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=os.path.join(RUNS, "results"))
    args = parser.parse_args(argv)

    if not os.path.isfile("BENCHMARK.json"):
        print("run from the repository root (BENCHMARK.json not found)", file=sys.stderr)
        return 2
    bench = load_json("BENCHMARK.json")
    if args.summary:
        print(json.dumps(summarize(args.summary, bench), indent=1, sort_keys=True))
        return 0
    if args.compare:
        return compare(*args.compare, bench)
    if not os.path.isfile(os.path.join("src", "overmoments", "__init__.py")):
        print("no package source at src/overmoments: nothing to benchmark", file=sys.stderr)
        return 2
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    try:
        if args.baseline:
            record = run_workload("roadmap_baseline", 0, 0, True, args.results)
            metrics = show(record, {"per_layer": manifest["baseline"]["metrics"]})
            for key, want in manifest["baseline"]["roadmap"].items():
                got = metrics[key]["value"]
                # counts must repeat exactly; the ROADMAP's times were single runs
                verdict = ("equal" if got == want else "differs") if is_count(key) else "time"
                print(f"  ROADMAP {key} {want}, here {got:.6g} ({verdict})")
            print(result_line([record], metrics))
            return 0
        names = list(manifest["workloads"]) if args.workload == "all" else [args.workload]
        records, metrics = [], {}
        for name in names:
            record = run_workload(name, args.seed, seconds, bool(args.trace), args.results)
            records.append(record)
            shown = show(record, bench)
            if len(names) == 1:
                metrics = shown
            else:
                metrics.update({f"{name}.{k}": v for k, v in shown.items()})
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(result_line(records, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
