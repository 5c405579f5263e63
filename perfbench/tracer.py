"""Spans around fanoconic's module boundaries, kept in memory.

`Tracer.install` replaces the public names each fanoconic module looks up
(`fanoconic.verifier.discriminant_on_line`, `Poly.eval`, ...) with wrappers
that record one span per call: an id, the parent span's id, a name, a
start, an end and an optional work count.  Nothing inside `src/` changes;
`restore` puts the originals back.  `layer_metrics` turns a span list into
the per-layer metrics the benchmark prints.
"""

from __future__ import annotations

import importlib
import itertools
import json
import statistics
import sys
import types
from time import perf_counter

ARITH = "polynomial.arith"
RENDER = "cli.render"
PARSER = "cli.build_parser"
ROOT = "benchmark.batch"


def _terms(result, args):
    return len(args[0].terms)


def _result_terms(result, args):
    return len(result.terms)


def _useful(result, args):
    return 0 if result.identically_zero else 1


def _coeff_bits(result, args):
    return max((abs(int(c)).bit_length() for c in args[0]), default=0)


# (module, attribute, span name, work count taken after the call)
FUNCTIONS = (
    ("fanoconic.polynomial", "u_is_squarefree", "polynomial.u_is_squarefree", _coeff_bits),
    ("fanoconic.linalg", "bareiss_rank", "linalg.bareiss_rank", None),
    ("fanoconic.linalg", "det3", "linalg.det3", None),
    ("fanoconic.verifier", "discriminant_on_line", "verifier.discriminant_on_line", _useful),
    ("fanoconic.verifier", "fiber_at", "verifier.fiber_at", None),
    ("fanoconic.verifier", "check_smooth_at_node", "verifier.check_smooth_at_node", None),
    ("fanoconic.verifier", "boundary_identity_verdict",
     "verifier.boundary_identity_verdict", None),
    ("fanoconic.coxring", "random_section", "coxring.random_section", _result_terms),
    ("fanoconic.coxring", "base_locus", "coxring.base_locus", None),
    ("fanoconic.coxring", "count_sections", "coxring.count_sections", None),
    ("fanoconic.cones", "classify", "cones.classify", None),
    ("fanoconic.conicbundle", "build_certificate", "conicbundle.build_certificate", None),
    ("fanoconic.cli", "build_parser", PARSER, None),
    ("fanoconic.cli", "_render_certificate", RENDER, None),
    ("fanoconic.cli", "_render_report", RENDER, None),
    ("fanoconic.cli", "_render_baselocus", RENDER, None),
    ("fanoconic.cli", "_render_classify", RENDER, None),
    ("fanoconic.cli", "_render_h0", RENDER, None),
)

POLY_METHODS = (
    ("eval", "polynomial.eval", _terms),
    ("eval_with_gradient", "polynomial.eval_with_gradient", _terms),
) + tuple((name, ARITH, None) for name in (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__pow__", "diff", "subs"))


class Tracer:
    """Records nested spans; span 0 is the implicit root."""

    def __init__(self):
        self.spans = []   # (id, parent, name, start, end, work)
        self._stack = [0]
        self._ids = itertools.count(1)
        self._restore = []

    def wrap(self, name, fn, work=None):
        spans, stack, ids = self.spans, self._stack, self._ids

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end,
                              work(result, args) if work and result is not None else None))

        return traced

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every traced name in every loaded fanoconic module."""
        importlib.import_module("fanoconic.cli")
        modules = [mod for key, mod in sys.modules.items()
                   if key == "fanoconic" or key.startswith("fanoconic.")]
        for home, attr, name, work in FUNCTIONS:
            original = getattr(sys.modules[home], attr, None)
            if original is None:
                continue
            wrapped = self.wrap(name, original, work)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapped)
        poly = sys.modules["fanoconic.polynomial"].Poly
        for attr, name, work in POLY_METHODS:
            if attr in vars(poly):
                self._patch(poly, attr, self.wrap(name, vars(poly)[attr], work))
        cli = sys.modules["fanoconic.cli"]
        if isinstance(getattr(cli, "json", None), types.ModuleType):
            shim = types.SimpleNamespace(**vars(cli.json))
            shim.dumps = self.wrap(RENDER, cli.json.dumps)
            self._patch(cli, "json", shim)

    def restore(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def run_root(self, fn):
        """Run fn under the root span that covers the whole traced batch."""
        return self.wrap(ROOT, fn)()

    def write(self, path, trace_id: str):
        with open(path, "w") as fh:
            json.dump({"trace_id": trace_id, "spans": self.spans}, fh)


def _quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans) -> dict:
    """Per-layer counts and self times from one traced batch.

    A span's self time is its duration minus the durations of its direct
    children; wrapped calls nest strictly, so the children never overlap.
    """
    by_id = {s[0]: s for s in spans}
    child_time = {}
    for sid, parent, name, start, end, work in spans:
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    calls, self_s, work_sum = {}, {}, {}
    probe_ms, useful, nodes, bits = [], 0, 0, 0
    for sid, parent, name, start, end, work in spans:
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time.get(sid, 0.0)
        if work is not None:
            work_sum[name] = work_sum.get(name, 0) + work
        parent_name = by_id[parent][2] if parent in by_id else None
        if name == "verifier.discriminant_on_line":
            probe_ms.append((end - start) * 1e3)
            useful += work or 0
        elif name == "linalg.det3" and parent_name == "verifier.discriminant_on_line":
            nodes += 1
        elif (name == "polynomial.u_is_squarefree"
              and parent_name == "verifier.discriminant_on_line"):
            bits = max(bits, work or 0)

    out = {}

    def layer(name, *, terms=False):
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
        if terms:
            out[f"{name}.terms"] = work_sum.get(name, 0)

    layer("polynomial.eval", terms=True)
    layer("polynomial.eval_with_gradient", terms=True)
    layer("polynomial.u_is_squarefree")
    out[f"{ARITH}.self_s"] = self_s.get(ARITH, 0.0)
    layer("linalg.bareiss_rank")
    out["linalg.det3.calls"] = calls.get("linalg.det3", 0)
    layer("verifier.discriminant_on_line")
    out["verifier.discriminant_on_line.p50_ms"] = _quantile(probe_ms, 50)
    out["verifier.discriminant_on_line.p90_ms"] = _quantile(probe_ms, 90)
    out["verifier.line_probe.nodes"] = nodes
    out["verifier.line_probe.useful_ratio"] = useful / len(probe_ms) if probe_ms else 0.0
    out["verifier.line_probe.max_coeff_bits"] = bits
    layer("verifier.fiber_at")
    out["verifier.check_smooth_at_node.calls"] = calls.get("verifier.check_smooth_at_node", 0)
    out["verifier.boundary_identity_verdict.self_s"] = self_s.get(
        "verifier.boundary_identity_verdict", 0.0)
    layer("coxring.random_section", terms=True)
    layer("coxring.base_locus")
    layer("coxring.count_sections")
    layer("cones.classify")
    layer("conicbundle.build_certificate")
    out["cli.render_s"] = self_s.get(RENDER, 0.0)
    out["cli.build_parser_s"] = self_s.get(PARSER, 0.0)
    out["trace.batch_s"] = sum(s[4] - s[3] for s in spans if s[2] == ROOT)
    out["trace.unattributed_s"] = self_s.get(ROOT, 0.0)
    out["trace.self_sum_s"] = sum(self_s.values())
    return out
