"""Spans at the package's layer boundaries, recorded from outside the package.

`Tracer.install` replaces each public function named in LAYERS by a wrapper
that records a span: its name, start, end, parent span and repetition id.
A function that another module of the package imported by name is replaced
there too, so every call path is seen.  Spans stay in memory until the run
ends.  A target missing from the package is reported, not fatal, so the
tracer keeps working as later changes delete code.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (module, attribute, span name).  Several attributes may share a span name:
# they are one layer.  The basis change covers the triangular solve and the
# Fraction-per-coefficient series arithmetic that applies it.
LAYERS = (
    ("series", "PowerSeries.__mul__", "series.mul"),
    ("series", "overpartition_gf", "series.overpartition_gf"),
    ("series", "RationalSeries.__init__", "moments.basis_change"),
    ("series", "RationalSeries.__add__", "moments.basis_change"),
    ("series", "RationalSeries.scale", "moments.basis_change"),
    ("series", "RationalSeries.to_integer", "moments.basis_change"),
    ("genfunc", "crank_lambert_sum", "genfunc.lambert_sum"),
    ("genfunc", "rank_lambert_sum", "genfunc.lambert_sum"),
    ("genfunc", "crank_binomial_series", "genfunc.binomial_series"),
    ("genfunc", "rank_binomial_series", "genfunc.binomial_series"),
    ("moments", "basis_change", "moments.basis_change"),
    ("moments", "positive_moment_values", "moments.positive_moment_values"),
    ("moments", "symmetrized_moment_values", "moments.symmetrized_moment_values"),
    ("moments", "ospt_values", "moments.ospt_values"),
    ("asympt", "resolve_constants", "asympt.resolve_constants"),
    ("asympt", "fit_subleading", "asympt.fit_subleading"),
    ("asympt", "expansion_residual", "asympt.expansion_residual"),
    ("asympt", "s_series_eval", "asympt.s_series_eval"),
    ("asympt", "dirichlet_eta", "asympt.dirichlet_eta"),
    ("asympt", "bessel_i", "asympt.bessel_i"),
    ("asympt", "main_term", "asympt.main_term"),
    ("asympt", "log_integer", "asympt.log_integer"),
    ("asympt", "eta_quotient_check", "asympt.eta_quotient_check"),
    ("circle", "cauchy_coefficient", "circle.coefficient"),
    ("circle", "major_arc_coefficient", "circle.coefficient"),
    ("circle", "gf_numeric", "circle.gf_numeric"),
    ("circle", "working_precision", "circle.working_precision"),
    ("cli", "cmd_series", "cli.cmd"),
    ("cli", "cmd_ospt", "cli.cmd"),
    ("cli", "cmd_converge", "cli.cmd"),
    ("cli", "cmd_verify", "cli.cmd"),
)

ROOT = "bench.solve"


def _operand_bits(counters: dict, args, result) -> None:
    # computed, not measured: length x largest coefficient bits, both operands
    bits = sum(len(s.coeffs) * max((abs(c).bit_length() for c in s.coeffs), default=0)
               for s in args[:2])
    counters["series.mul.operand_bits"] = counters.get("series.mul.operand_bits", 0) + bits


def _working_bits(counters: dict, args, result) -> None:
    counters["circle.working_prec_bits"] = max(counters.get("circle.working_prec_bits", 0), result)


PROBES = {"series.mul": _operand_bits, "circle.working_precision": _working_bits}


class Tracer:
    def __init__(self, rep: int):
        self.rep = rep
        self.spans: list[list] = []  # [name, start, end, parent index, rep]
        self.counters: dict = {}
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.rep]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if probe is not None:
                probe(counters, args, result)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every target in LAYERS; return the targets not found."""
        package = {name: mod for name, mod in sys.modules.items()
                   if name == "overmoments" or name.startswith("overmoments.")}
        missing = []
        for module, attr, span in LAYERS:
            mod = package.get(f"overmoments.{module}")
            owner_name, _, name = attr.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name, None)
                original = vars(owner).get(name) if isinstance(owner, type) else None
            else:
                original = getattr(mod, name, None)
            if original is None:
                missing.append(f"{module}.{attr}")
                continue
            traced = self.wrap(span, original)
            if owner_name:
                self._patch(owner, name, traced)
                continue
            for mod in package.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, traced)
        return missing

    def _patch(self, obj, key: str, value) -> None:
        self._patched.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    def uninstall(self) -> None:
        for obj, key, value in reversed(self._patched):
            setattr(obj, key, value)
        self._patched.clear()


def layer_metrics(spans: list[list], counters: dict) -> dict:
    """Per span name: calls, s (spans not nested in a span of the same
    name) and self_s (duration minus the time its child spans cover); plus
    the counters and the ratios derived from them."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats: dict[str, dict] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        m = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        m["calls"] += 1
        m["self_s"] += end - start - child[i]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            m["s"] += end - start
    out = {f"{name}.{k}": v for name, m in stats.items() for k, v in m.items()}
    out.update(counters)

    def get(key):
        return out.get(key, 0)

    coeffs = get("circle.coefficient.calls")
    out["circle.evals_per_coeff"] = get("circle.gf_numeric.calls") / coeffs if coeffs else 0.0
    out["circle.quad_self_s"] = get("circle.coefficient.s") - get("circle.gf_numeric.s")
    out["cli.write_s"] = get("cli.cmd.self_s")
    roots = {i for i, s in enumerate(spans) if s[0] == ROOT}
    root_time = sum(spans[i][2] - spans[i][1] for i in roots)
    top = sum(s[2] - s[1] for s in spans if s[3] in roots)
    out["bench.top_span_coverage"] = top / root_time if root_time else 0.0
    return out
