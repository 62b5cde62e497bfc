"""Span tracing of the qal layers, done from the benchmark's own files.

`install()` replaces public functions of the `qal` modules, and three
`SparseMatrix` methods, with timing wrappers.  Every module of `qal` that
holds a reference to a wrapped function gets the wrapper, so calls made
through module attributes and names imported with `from ... import` are
both captured, nested calls included.  The program itself is not changed.

A span is (name, parent, start, end); spans stay in memory and are written
out as JSON lines when the job ends.  A layer's self time is the summed
duration of its spans minus the durations of their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time
import weakref
from collections import defaultdict

ROOT_SPAN = "bench.job"
STATS_SPAN = "trace.stats"

#: Layer names whose per-call durations are kept for percentiles.
PER_CALL = ("graph_basis.prune_normal_form", "graph_basis.lex_normal_form")

#: Count metrics: zero when the layer is not used by the job.
COUNTS = (
    "exact_core.nullspace.kernel_dim", "exact_core.nullspace.coef_bits_max",
    "exact_core.nullspace.rows", "exact_core.nullspace.cols",
    "exact_core.nullspace.nnz",
    "exact_core.echelon.calls", "exact_core.echelon.rows",
    "exact_core.echelon.nnz", "exact_core.echelon.rank",
    "exact_core.in_row_span.calls", "exact_core.in_row_span.hits",
    "exact_core.span_membership.calls", "exact_core.span_membership.hits",
    "pvh_checker.delta_K.calls", "pvh_checker.candidates.count",
    "pvh_checker.delta_a_columns.calls",
    "pvb_family.quadratic_relators.calls",
    "quad_algebra.graded_dim.calls",
    "quad_algebra.relation_blocks_rank.calls",
    "quad_algebra.relation_blocks_rank.rank_sum",
    "graph_basis.prune_normal_form.calls",
    "graph_basis.prune_normal_form.out_terms",
    "graph_basis.lex_normal_form.calls",
    "graph_basis.lex_normal_form.out_terms",
    "graph_basis.enumerate.monomials",
)

#: Layers whose self time is reported as `<layer>.self_s`.
SELF_TIMED = (
    "exact_core.nullspace", "exact_core.echelon", "exact_core.in_row_span",
    "exact_core.span_membership",
    "pvh_checker.delta_K", "pvh_checker.project_to_infinitesimal",
    "pvh_checker.candidates", "pvh_checker.delta_a_columns",
    "pvh_checker.kernel_deg3", "pvh_checker.pvh_report",
    "pvb_family.quadratic_relators", "pvb_family.psi_image_check",
    "quad_algebra.relation_blocks_rank", "quad_algebra.annihilator",
    "graph_basis.prune_normal_form", "graph_basis.lex_normal_form",
    "graph_basis.enumerate", "graph_basis.confluence_check",
    "graph_basis.coproduct_table_check",
    "cli.run",
)


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self, job_id: int):
        self.job_id = job_id
        self.spans: list[list] = []   # [name, parent index, start, end]
        self._open: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.ranks: list[int] = []     # relation_blocks_rank results, in order
        self.echeloned = weakref.WeakSet()  # matrices already counted

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, parent, time.perf_counter(), None])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for sid, (name, _, t0, t1) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[sid]
        return out

    def durations(self, name: str) -> list[float]:
        return [t1 - t0 for n, _, t0, t1 in self.spans if n == name]

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (name, parent, t0, t1) in enumerate(self.spans):
                fh.write(json.dumps({"job": self.job_id, "span": sid,
                                     "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")


def _coef_bits(kernel) -> int:
    bits = 0
    for vec in kernel:
        for c in vec.values():
            bits = max(bits, abs(c.numerator).bit_length(),
                       c.denominator.bit_length())
    return bits


def install(tracer: Tracer) -> None:
    """Wrap the traced qal functions and SparseMatrix methods in place."""
    import qal.cli
    import qal.exact_core as ec
    import qal.graph_basis as gb
    import qal.pvb_family as fam
    import qal.pvh_checker as pvh
    import qal.quad_algebra as qa

    cnt = tracer.counts

    def traced(name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def patch(module, attr, name, after=None):
        """Replace every reference a qal module or module-level dict holds."""
        orig = getattr(module, attr)
        wrapper = traced(name, orig, after)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").partition(".")[0] != "qal":
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapper)
                elif isinstance(val, dict):  # dispatch tables such as cli's
                    for k, v in val.items():
                        if v is orig:
                            val[k] = wrapper

    def add(key, value=1):
        def after(args, result):
            cnt[key] += value(result) if callable(value) else value
        return after

    # -- exact_core: SparseMatrix methods ----------------------------------
    SM = ec.SparseMatrix
    rank, nullspace, in_row_span = SM.rank, SM.nullspace, SM.in_row_span

    # Bookkeeping such as nonzero counts runs in a STATS_SPAN of its own, so
    # that it is not charged to a layer.
    def sm_rank(self):
        with tracer.span("exact_core.echelon"):
            r = rank(self)
        if self not in tracer.echeloned:
            with tracer.span(STATS_SPAN):
                tracer.echeloned.add(self)
                cnt["exact_core.echelon.calls"] += 1
                cnt["exact_core.echelon.rows"] += len(self.rows)
                cnt["exact_core.echelon.nnz"] += sum(map(len, self.rows))
                cnt["exact_core.echelon.rank"] += r
        return r

    def sm_nullspace(self):
        # rank() first: the echelon is cached on the matrix, so the work is
        # unchanged and nullspace self time is back-substitution alone.
        with tracer.span("exact_core.nullspace"):
            self.rank()
            kernel = nullspace(self)
        with tracer.span(STATS_SPAN):
            cnt["exact_core.nullspace.kernel_dim"] += len(kernel)
            cnt["exact_core.nullspace.rows"] += len(self.rows)
            cnt["exact_core.nullspace.cols"] += len(self.columns)
            cnt["exact_core.nullspace.nnz"] += sum(map(len, self.rows))
            key = "exact_core.nullspace.coef_bits_max"
            cnt[key] = max(cnt[key], _coef_bits(kernel))
        return kernel

    def sm_in_row_span(self, vec):
        with tracer.span("exact_core.in_row_span"):
            self.rank()
            hit = in_row_span(self, vec)
        cnt["exact_core.in_row_span.calls"] += 1
        cnt["exact_core.in_row_span.hits"] += bool(hit)
        return hit

    SM.rank, SM.nullspace, SM.in_row_span = sm_rank, sm_nullspace, sm_in_row_span

    def membership(args, result):
        cnt["exact_core.span_membership.calls"] += 1
        cnt["exact_core.span_membership.hits"] += result is not None

    patch(ec, "span_membership", "exact_core.span_membership", membership)

    # -- pvh_checker --------------------------------------------------------
    patch(pvh, "delta_K", "pvh_checker.delta_K", add("pvh_checker.delta_K.calls"))
    patch(pvh, "project_to_infinitesimal", "pvh_checker.project_to_infinitesimal")
    patch(pvh, "zamolodchikov", "pvh_checker.candidates",
          add("pvh_checker.candidates.count"))
    patch(pvh, "trivial_syzygies", "pvh_checker.candidates",
          add("pvh_checker.candidates.count", len))
    patch(pvh, "delta_a_columns", "pvh_checker.delta_a_columns",
          add("pvh_checker.delta_a_columns.calls"))
    patch(pvh, "kernel_deg3", "pvh_checker.kernel_deg3")
    patch(pvh, "pvh_report", "pvh_checker.pvh_report")

    # -- pvb_family ---------------------------------------------------------
    patch(fam, "quadratic_relators", "pvb_family.quadratic_relators",
          add("pvb_family.quadratic_relators.calls"))
    patch(fam, "psi_image_check", "pvb_family.psi_image_check")

    # -- quad_algebra -------------------------------------------------------
    def blocks(args, result):
        cnt["quad_algebra.relation_blocks_rank.calls"] += 1
        cnt["quad_algebra.relation_blocks_rank.rank_sum"] += result
        tracer.ranks.append(result)

    patch(qa, "relation_blocks_rank", "quad_algebra.relation_blocks_rank", blocks)
    patch(qa, "graded_dim", "quad_algebra.graded_dim",
          add("quad_algebra.graded_dim.calls"))
    patch(qa, "annihilator", "quad_algebra.annihilator")

    # -- graph_basis --------------------------------------------------------
    for short in ("prune_normal_form", "lex_normal_form"):
        def normal_form(args, result, short=short):
            cnt[f"graph_basis.{short}.calls"] += 1
            cnt[f"graph_basis.{short}.out_terms"] += len(result)
        patch(gb, short, f"graph_basis.{short}", normal_form)
    for attr in ("enumerate_chain_gangs", "enumerate_updown",
                 "enumerate_down", "enumerate_up"):
        patch(gb, attr, "graph_basis.enumerate",
              add("graph_basis.enumerate.monomials", len))
    patch(gb, "confluence_check", "graph_basis.confluence_check")
    patch(gb, "coproduct_table_check", "graph_basis.coproduct_table_check")

    # -- cli ----------------------------------------------------------------
    patch(qal.cli, "run", "cli.run")


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def job_layers(tracer: Tracer, job_s: float) -> tuple[dict, dict]:
    """(timings, counts) of one traced job.

    Timings vary from job to job; counts must repeat exactly for the same
    workload and seed.
    """
    selfs = tracer.self_times()
    timings = {f"{layer}.self_s": selfs.get(layer, 0.0) for layer in SELF_TIMED}
    program = sum(t for name, t in selfs.items()
                  if name not in (ROOT_SPAN, STATS_SPAN))
    timings["trace.job_s"] = job_s
    timings["trace.stats_s"] = selfs.get(STATS_SPAN, 0.0)
    timings["trace.coverage_ratio"] = program / job_s
    for layer in PER_CALL:
        timings[f"{layer}.calls_ms"] = [d * 1e3 for d in tracer.durations(layer)]

    c = tracer.counts
    counts = {key: c.get(key, 0) for key in COUNTS}
    counts["exact_core.echelon.pivot_ratio"] = _ratio(
        c["exact_core.echelon.rank"], c["exact_core.echelon.rows"])
    counts["exact_core.in_row_span.hit_ratio"] = _ratio(
        c["exact_core.in_row_span.hits"], c["exact_core.in_row_span.calls"])
    counts["exact_core.span_membership.hit_ratio"] = _ratio(
        c["exact_core.span_membership.hits"],
        c["exact_core.span_membership.calls"])
    counts["quad_algebra.relation_blocks_rank.ranks"] = list(tracer.ranks)
    return timings, counts


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) by statistics.quantiles; 0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
