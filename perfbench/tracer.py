"""Spans around the public entry points of superschur's layers.

The wrappers live here, not in the program: `traced(tracer)` patches each
entry point where its caller looks it up (a module global, a name one
module imported from another, or a `LaurentPoly` method) and restores
the originals on exit.  Spans are kept in memory as
[name, parent index or -1, start, end, count] and written out at the end
of a run.  A span's self time is its duration minus that of its direct
children.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

from superschur import characters, cli, jacobi_trudi, symfunc
from superschur.laurent import LaurentPoly


def _terms(_args, out):
    return len(out.terms)


def _matrix_terms(_args, out):
    return sum(len(entry.terms) for row in out for entry in row)


def _dividend_terms(args, _out):
    return len(args[0].terms)


# (owner, attribute, span name, count taken from (args, result)).  One
# function reached under several names gets one wrapper.
ENTRY_POINTS = [
    (symfunc, "poly_det", "symfunc.poly_det", _terms),
    (jacobi_trudi, "poly_det", "symfunc.poly_det", _terms),
    (jacobi_trudi, "jt_matrix", "jacobi_trudi.jt_matrix", _matrix_terms),
    (jacobi_trudi, "dimension", "jacobi_trudi.dimension", None),
    (cli, "dimension", "jacobi_trudi.dimension", None),
    (characters, "su_zhang_char", "characters.su_zhang_char", None),
    (jacobi_trudi, "su_zhang_char", "characters.su_zhang_char", None),
    (characters, "_expand_alternating", "characters.expand_alternating", None),
    (characters, "_alternant_quotient", "characters.alternant_quotient", None),
    (characters, "_split_assemble", "characters.split_assemble", None),
    (LaurentPoly, "exact_divide", "laurent.exact_divide", _dividend_terms),
    (LaurentPoly, "__mul__", "laurent.mul", None),
    (LaurentPoly, "__rmul__", "laurent.mul", None),
    (LaurentPoly, "__eq__", "laurent.eq", None),
    (LaurentPoly, "to_json_dict", "laurent.to_json_dict", None),
    (cli, "_canonical", "cli.canonical", None),
]


class Tracer:
    """Collects spans; a stack gives each span its parent."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(args, out)
            return out

        return traced_call


@contextmanager
def traced(tracer):
    """Install `tracer` on every entry point; restore them afterwards."""
    saved = []
    wrappers = {}
    for owner, attr, name, count in ENTRY_POINTS:
        fn = owner.__dict__[attr]
        if id(fn) not in wrappers:
            wrappers[id(fn)] = tracer.wrap(name, fn, count)
        saved.append((owner, attr, fn))
        setattr(owner, attr, wrappers[id(fn)])
    try:
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def cache_state():
    """Sizes and counters of the program's caches, read from outside."""
    hits = misses = 0
    for fn in (symfunc._super_h, symfunc._dual_super_h):
        info = fn.cache_info()
        hits += info.hits
        misses += info.misses
    return {"symfunc.super_h_hits": hits,
            "symfunc.super_h_misses": misses,
            "characters.alternant_misses": len(characters._ALTERNANT_CACHE),
            "characters.odd_product_cache_size":
                len(characters._ODD_PRODUCT_CACHE)}


def cache_delta(before, after):
    """Counters as growth between two states; cache sizes as of `after`."""
    out = {k: after[k] - before[k] for k in after}
    out["characters.odd_product_cache_size"] = \
        after["characters.odd_product_cache_size"]
    return out


def layer_metrics(spans):
    """Per-layer figures from a list of spans (self times unless noted)."""
    child = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s, total_s, calls, counts = {}, {}, {}, {}
    for (name, _, start, end, count), inner in zip(spans, child):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - inner
        total_s[name] = total_s.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        counts[name] = counts.get(name, 0) + count
    return {
        "symfunc.poly_det_s": self_s.get("symfunc.poly_det", 0.0),
        "symfunc.poly_det_calls": calls.get("symfunc.poly_det", 0),
        "symfunc.poly_det_out_terms": counts.get("symfunc.poly_det", 0),
        "jacobi_trudi.jt_matrix_s": self_s.get("jacobi_trudi.jt_matrix", 0.0),
        "jacobi_trudi.matrix_terms": counts.get("jacobi_trudi.jt_matrix", 0),
        # the whole call: what a dimension fast path would replace
        "jacobi_trudi.dimension_s": total_s.get("jacobi_trudi.dimension", 0.0),
        "characters.su_zhang_self_s":
            self_s.get("characters.su_zhang_char", 0.0),
        "characters.expand_alternating_s":
            self_s.get("characters.expand_alternating", 0.0),
        "characters.alternant_s":
            self_s.get("characters.alternant_quotient", 0.0),
        "characters.alternant_calls":
            calls.get("characters.alternant_quotient", 0),
        "characters.split_assemble_s":
            self_s.get("characters.split_assemble", 0.0),
        "laurent.exact_divide_s": self_s.get("laurent.exact_divide", 0.0),
        "laurent.exact_divide_calls": calls.get("laurent.exact_divide", 0),
        "laurent.exact_divide_terms": counts.get("laurent.exact_divide", 0),
        "laurent.mul_s": self_s.get("laurent.mul", 0.0),
        "laurent.mul_calls": calls.get("laurent.mul", 0),
        "laurent.eq_s": self_s.get("laurent.eq", 0.0),
        "cli.serialize_s": (self_s.get("laurent.to_json_dict", 0.0)
                            + self_s.get("cli.canonical", 0.0)),
    }
