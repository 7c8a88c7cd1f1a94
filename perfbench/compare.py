"""Summaries of a result set and the comparison of two result sets.

A result set is a directory of run records written by `run.py`.  The
comparison pairs untraced runs of the same workload and seed, and gives for
each (workload, end-to-end metric) both sides' median and quartiles, the
fraction of pairs the second set won, and a verdict:

- improved: at least ten pairs, the new side wins nine tenths of them (ties
  count for neither) and the medians differ by more than the base side's
  quartile spread;
- unresolved: the base side's quartile spread is wider than the metric's
  bound, and not every new run reads better than every base run;
- worse: the new median is worse than the base median by more than the bound;
- no worse: otherwise.

Counts from traced runs (calls, computed bits) are compared exactly per
(workload, seed).  Runs made on different mpmath backends are not paired.
"""

from __future__ import annotations

import glob
import json
import os
import statistics


def load_set(path: str) -> list[dict]:
    records = []
    for name in sorted(glob.glob(os.path.join(path, "*.json"))):
        with open(name) as fp:
            records.append(json.load(fp))
    if not records:
        raise SystemExit(f"no run records in {path}")
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _quartile_text(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def _by_workload(records: list[dict], trace: int) -> dict:
    out: dict[str, list[dict]] = {}
    for r in records:
        if r["trace"] == trace:
            out.setdefault(r["workload"], []).append(r)
    return out


def summarize(path: str, bench: dict) -> dict:
    """Per workload: end-to-end medians and quartiles over untraced runs,
    checked outputs, and per-layer medians over traced runs."""
    records = load_set(path)
    machines = {json.dumps({k: v for k, v in r["machine"].items() if k != "load1_at_start"},
                           sort_keys=True) for r in records}
    out = {"machines": [json.loads(m) for m in sorted(machines)], "workloads": {}}
    for workload, runs in _by_workload(records, 0).items():
        entry = {"runs": len(runs), "seeds": sorted({r["seed"] for r in runs}),
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "end_to_end": {}}
        for spec in bench["end_to_end"]:
            values = [r["metrics"][spec["name"]] for r in runs]
            q1, med, q3 = quartiles(values)
            entry["end_to_end"][spec["name"]] = {
                "unit": spec["unit"], "median": med, "q1": q1, "q3": q3, "n": len(values),
                "spread": (q3 - q1) / med if med else None}
        out["workloads"][workload] = entry
    for workload, runs in _by_workload(records, 1).items():
        entry = out["workloads"].setdefault(workload, {})
        entry["per_layer_median"] = {
            key: statistics.median(r["layers"].get(key, 0) for r in runs)
            for key in sorted({k for r in runs for k in r["layers"]})}
        entry["counts_by_seed"] = {str(r["seed"]): r["counts"] for r in runs}
    return out


def verdict(base: list[float], new: list[float], pairs: list[tuple], better: str,
            bound: float) -> tuple[str, int]:
    sign = 1 if better == "higher" else -1

    def gain(old, cur):  # > 0 when cur is better than old
        return sign * (cur - old)

    q1, med_base, q3 = quartiles(base)
    med_new = statistics.median(new)
    wins = sum(gain(a, b) > 0 for a, b in pairs)
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain(med_base, med_new) > 0
            and abs(med_new - med_base) > q3 - q1):
        return "improved", wins
    all_better = all(gain(a, b) > 0 for a in base for b in new)
    if q3 - q1 > bound * abs(med_base) and not all_better:
        return "unresolved", wins
    if -gain(med_base, med_new) > bound * abs(med_base):
        return "worse", wins
    return "no worse", wins


def compare(base_dir: str, new_dir: str, bench: dict) -> int:
    base, new = load_set(base_dir), load_set(new_dir)
    backends = {r["machine"]["mpmath_backend"] for r in base + new}
    if len(backends) > 1:
        print(f"refusing to compare runs made on different mpmath backends: {sorted(backends)}")
        return 2
    base_w, new_w = _by_workload(base, 0), _by_workload(new, 0)
    print(f"{'workload':<18} {'metric':<13} {'base median [q1, q3]':>32} "
          f"{'new median [q1, q3]':>32} {'won':>7}  verdict")
    for workload in sorted(base_w.keys() & new_w.keys()):
        by_seed: dict[int, list] = {}
        for side, runs in ((0, base_w[workload]), (1, new_w[workload])):
            for r in runs:
                by_seed.setdefault(r["seed"], ([], []))[side].append(r)
        for spec in bench["end_to_end"]:
            name = spec["name"]
            a = [r["metrics"][name] for r in base_w[workload]]
            b = [r["metrics"][name] for r in new_w[workload]]
            pairs = [(x["metrics"][name], y["metrics"][name])
                     for xs, ys in by_seed.values() for x, y in zip(xs, ys)]
            result, wins = verdict(a, b, pairs, spec["better"], spec["bound"])
            print(f"{workload:<18} {name:<13} {_quartile_text(a):>32} "
                  f"{_quartile_text(b):>32} {wins:>3}/{len(pairs):<3}  {result}")
    base_t, new_t = _by_workload(base, 1), _by_workload(new, 1)
    for workload in sorted(base_t.keys() & new_t.keys()):
        old = {r["seed"]: r["counts"] for r in base_t[workload]}
        for r in new_t[workload]:
            if r["seed"] not in old:
                continue
            diff = {k: (old[r["seed"]].get(k), v) for k, v in r["counts"].items()
                    if old[r["seed"]].get(k) != v}
            diff.update({k: (v, None) for k, v in old[r["seed"]].items() if k not in r["counts"]})
            print(f"counts {workload} seed {r['seed']}: "
                  + ("equal" if not diff else
                     "; ".join(f"{k} {a} -> {b}" for k, (a, b) in sorted(diff.items()))))
    return 0
