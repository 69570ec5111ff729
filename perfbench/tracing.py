"""Spans around calls into the package's layers, for the traced run.

``install`` rebinds, inside one worker process, the names through which
callers reach each layer's public functions (a module global the caller
looks up, or a class attribute) to timing wrappers.  The package itself is
not edited.  Every call records a span (parent, name, start, end) in
memory; ``write`` saves them with the run id when the worker ends.

A span's name is ``<layer>.<what>``.  Its self time is its duration minus
that of its direct children, and a layer's self time is the sum over its
spans, so the self times of all layers and of the benchmark's own root
span ``bench.run`` add up to the traced wall time.  ``linalg`` spans are
named ``linalg.lifted.add_rows`` or ``linalg.kernel.add_rows`` after the
pipeline step (``lifted_rank`` or ``kernel_rank``) that encloses them.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict

LAYERS = ("monomials", "dendriform", "expansion", "symrep", "linalg",
          "pipeline")
CONTEXTS = ("lifted", "kernel")

#: per-layer metrics of the traced run: (name, unit, better)
PER_LAYER = [
    ("pipeline.liftings_s", "s", "lower"),
    ("pipeline.liftings", "count", "lower"),
    ("pipeline.lifted_rank_s", "s", "lower"),
    ("pipeline.kernel_rank_s", "s", "lower"),
    ("pipeline.identity_block_s", "s", "lower"),
    ("pipeline.identity_block_calls", "count", "lower"),
    ("pipeline.verify_s", "s", "lower"),
    ("pipeline.verify_calls", "count", "lower"),
    ("expansion.table_s", "s", "lower"),
    ("expansion.table_entries", "count", "lower"),
    ("expansion.xblock_s", "s", "lower"),
    ("expansion.xblock_rows", "count", "lower"),
    ("expansion.poly_normal_form_s", "s", "lower"),
    ("dendriform.dnormalize_s", "s", "lower"),
    ("dendriform.dnormalize_calls", "count", "lower"),
    ("dendriform.terms_in", "count", "lower"),
    ("dendriform.terms_out", "count", "lower"),
    ("symrep.rho_init_s", "s", "lower"),
    ("symrep.clifton_a_s", "s", "lower"),
    ("symrep.clifton_a_calls", "count", "lower"),
    ("symrep.raw_blocks_s", "s", "lower"),
    ("monomials.classify_s", "s", "lower"),
    ("monomials.classify_calls", "count", "lower"),
]
for _c in CONTEXTS:
    PER_LAYER += [
        (f"linalg.{_c}.add_rows_s", "s", "lower"),
        (f"linalg.{_c}.add_rows_calls", "count", "lower"),
        (f"linalg.{_c}.rows_in", "count", "lower"),
        (f"linalg.{_c}.rank", "count", "higher"),
        (f"linalg.{_c}.useful_ratio", "ratio", "higher"),
        (f"linalg.{_c}.rows_per_call", "rows/call", "higher"),
        # computed, not measured: sum of 2 * rows * rank_before * ncols
        (f"linalg.{_c}.elim_flops", "flop", "lower"),
    ]
PER_LAYER += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
PER_LAYER += [
    ("bench.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("process.cpu_util", "ratio", "lower"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}

#: derived from span durations (name_s) and span counts (name_calls)
_SPAN_TIMES = {
    "pipeline.liftings_s": "pipeline.liftings",
    "pipeline.lifted_rank_s": "pipeline.lifted_rank",
    "pipeline.kernel_rank_s": "pipeline.kernel_rank",
    "pipeline.identity_block_s": "pipeline.identity_block",
    "pipeline.verify_s": "pipeline.verify",
    "expansion.table_s": "expansion.table",
    "expansion.xblock_s": "expansion.xblock",
    "expansion.poly_normal_form_s": "expansion.poly_normal_form",
    "dendriform.dnormalize_s": "dendriform.dnormalize",
    "symrep.rho_init_s": "symrep.rho_init",
    "symrep.clifton_a_s": "symrep.clifton_a",
    "symrep.raw_blocks_s": "symrep.raw_blocks",
    "monomials.classify_s": "monomials.classify",
    **{f"linalg.{c}.add_rows_s": f"linalg.{c}.add_rows" for c in CONTEXTS},
}
_SPAN_CALLS = {
    "pipeline.identity_block_calls": "pipeline.identity_block",
    "pipeline.verify_calls": "pipeline.verify",
    "dendriform.dnormalize_calls": "dendriform.dnormalize",
    "symrep.clifton_a_calls": "symrep.clifton_a",
    "monomials.classify_calls": "monomials.classify",
    **{f"linalg.{c}.add_rows_calls": f"linalg.{c}.add_rows"
       for c in CONTEXTS},
}

#: counted by the wrappers of install()
_COUNTERS = ("pipeline.liftings", "expansion.table_entries",
             "expansion.xblock_rows", "dendriform.terms_in",
             "dendriform.terms_out",
             *(f"linalg.{c}.{key}" for c in CONTEXTS
               for key in ("rows_in", "rank", "elim_flops")))


class Tracer:
    """In-memory span store of one worker process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []          # span id -> (parent, name, start, end)
        self.counts: dict = defaultdict(int)
        self.context = "other"         # enclosing rank step, for linalg
        self._stack = [-1]

    def call(self, name: str, fn, *args, **kwargs):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[sid] = (parent, name, start, time.perf_counter())
            self._stack.pop()

    def additive(self) -> dict:
        """Per-layer sums of this process: times, calls and counters."""
        inclusive: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        child = [0.0] * len(self.spans)
        for parent, name, start, end in self.spans:
            inclusive[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS + ("bench",)}
        for (_, name, start, end), covered in zip(self.spans, child):
            layer = name.split(".", 1)[0]
            out[f"{layer}.self_s"] += end - start - covered
        for metric, name in _SPAN_TIMES.items():
            out[metric] = inclusive[name]
        for metric, name in _SPAN_CALLS.items():
            out[metric] = calls[name]
        for key in _COUNTERS:
            out[key] = self.counts.get(key, 0)
        return out

    def write(self, path, header: dict) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"run_id": self.run_id, **header}) + "\n")
            for sid, (parent, name, start, end) in enumerate(self.spans):
                fh.write(json.dumps([self.run_id, sid, parent, name,
                                     start, end]) + "\n")


def derive(additive: dict, overhead_s: float, cpu_util: float) -> dict:
    """The PER_LAYER metrics from (averaged) additive values."""
    out = dict(additive)
    for c in CONTEXTS:
        rows = additive[f"linalg.{c}.rows_in"]
        calls = additive[f"linalg.{c}.add_rows_calls"]
        out[f"linalg.{c}.useful_ratio"] = \
            additive[f"linalg.{c}.rank"] / rows if rows else 0.0
        out[f"linalg.{c}.rows_per_call"] = rows / calls if calls else 0.0
    out["trace.overhead_s"] = overhead_s
    out["process.cpu_util"] = cpu_util
    return {name: out[name] for name, _, _ in PER_LAYER}


# ------------------------------------------------------------- wrappers


def install(tracer: Tracer) -> None:
    """Rebind the call sites of every traced layer function."""
    from prejordan import expansion, linalg, pipeline, symrep

    t = tracer
    counts = tracer.counts

    def span(owner, attr: str, name: str, after=None, context=None):
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = t.context
            if context:
                t.context = context
            try:
                out = t.call(name, fn, *args, **kwargs)
            finally:
                t.context = outer
            if after:
                after(args, out)
            return out
        setattr(owner, attr, traced)

    def liftings(args, out):
        counts["pipeline.liftings"] += len(out)

    def table_entries(args, out):
        counts["expansion.table_entries"] = max(
            counts["expansion.table_entries"],
            sum(len(cell) for row in out for cell in row.values()))

    def dnormalize_terms(args, out):
        counts["dendriform.terms_in"] += len(args[0])
        counts["dendriform.terms_out"] += len(out)

    Identity = pipeline.Identity
    span(pipeline, "degree_report", "pipeline.degree_report")
    span(pipeline, "liftings_to_degree", "pipeline.liftings", liftings)
    span(pipeline, "lifted_rank", "pipeline.lifted_rank", context="lifted")
    span(pipeline, "kernel_rank", "pipeline.kernel_rank", context="kernel")
    span(pipeline, "identity_block", "pipeline.identity_block")
    span(Identity, "check_kernel_membership", "pipeline.verify")
    span(Identity, "relabeled", "pipeline.relabel")
    span(pipeline, "poly_normal_form", "expansion.poly_normal_form")
    span(pipeline, "classify", "monomials.classify")
    span(expansion, "expansion_table", "expansion.table", table_entries)
    span(expansion, "dnormalize", "dendriform.dnormalize", dnormalize_terms)
    span(symrep, "clifton_a", "symrep.clifton_a")
    span(symrep.RhoCache, "__init__", "symrep.rho_init")
    span(symrep.RhoCache, "raw_of_element", "symrep.raw_blocks")
    span(symrep.RhoCache, "raw_of_elements", "symrep.raw_blocks")

    xblock = pipeline.xblock_transpose_rows

    @functools.wraps(xblock)
    def traced_xblock(*args, **kwargs):
        # time spent inside the generator: one span per batch produced
        batches = xblock(*args, **kwargs)
        while True:
            try:
                batch = t.call("expansion.xblock", next, batches)
            except StopIteration:
                return
            counts["expansion.xblock_rows"] += len(batch)
            yield batch
    pipeline.xblock_transpose_rows = traced_xblock

    for cls in (linalg.RationalEchelon, linalg.ModularEchelon):
        _trace_add_rows(t, cls)


def _trace_add_rows(t: Tracer, cls) -> None:
    add_rows = cls.add_rows

    @functools.wraps(add_rows)
    def traced(self, rows):
        if not hasattr(rows, "ndim"):
            rows = list(rows)  # a generator can be read only once
        n = 1 if getattr(rows, "ndim", 2) == 1 else len(rows)
        before = self.rank
        out = t.call(f"linalg.{t.context}.add_rows", add_rows, self, rows)
        c = t.counts
        c[f"linalg.{t.context}.rows_in"] += n
        c[f"linalg.{t.context}.rank"] += self.rank - before
        c[f"linalg.{t.context}.elim_flops"] += 2 * n * before * self.ncols
        return out
    cls.add_rows = traced
