"""Spans and counters recorded around the package's public functions.

The tracer lives outside the package.  ``Tracer.install`` replaces each
function listed in ``SPANS`` with a wrapper that records a span (name,
start, end, parent index, seconds spent in leaf calls).  Functions called
too often for a span each get lighter wrappers: those in ``LEAVES`` (the
coefficient checks, which call nothing traced) count calls and time the
outermost call of a nest, charged to the enclosing span; those in
``COUNTS`` (the strand-gluing kernels) only count calls.
A function bound into another module by ``from .x import y`` is replaced
there too, and ``TLElement.__mul__``/``__add__`` and the ``JWCache``
methods are replaced on their classes.  Spans stay in memory until
``dump`` writes them as JSON; ``layer_metrics`` turns one or more dumps
into the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from collections import Counter

MODULES = ("tableaux", "coeffs", "diagrams", "projectors", "klr", "cli")

# span name -> (module, attribute); "Class.method" patches the class
SPANS = {
    "tableaux.standard_tableaux": ("tableaux", "standard_tableaux"),
    "tableaux.all_standard_tableaux": ("tableaux", "all_standard_tableaux"),
    "tableaux.all_p_classes": ("tableaux", "all_p_classes"),
    "tableaux.class_of_one_column": ("tableaux", "class_of_one_column"),
    "tableaux.collapse": ("tableaux", "collapse"),
    "tableaux.collapse_fiber": ("tableaux", "collapse_fiber"),
    "tableaux.index_set": ("tableaux", "index_set"),
    "tableaux.tableau_from_index": ("tableaux", "tableau_from_index"),
    "tableaux.radix_chain": ("tableaux", "radix_chain"),
    "tableaux.block_decomposition": ("tableaux", "block_decomposition"),
    "diagrams.mul": ("diagrams", "TLElement.__mul__"),
    "diagrams.add": ("diagrams", "TLElement.__add__"),
    "diagrams.phi_word": ("diagrams", "phi_word"),
    "diagrams.jm_element": ("diagrams", "jm_element"),
    "diagrams.diagram_words": ("diagrams", "diagram_words"),
    "diagrams.cell_action": ("diagrams", "cell_action"),
    "diagrams.element_to_str": ("diagrams", "element_to_str"),
    "projectors.jones_wenzl": ("projectors", "jones_wenzl"),
    "projectors.jwcache.compute": ("projectors", "JWCache._compute"),
    "projectors.jwcache.load": ("projectors", "JWCache.load"),
    "projectors.jwcache.save": ("projectors", "JWCache.save"),
    "projectors.seminormal_vector": ("projectors", "seminormal_vector"),
    "projectors.seminormal_idempotent": ("projectors", "seminormal_idempotent"),
    "projectors.idempotent_by_products": ("projectors", "idempotent_by_products"),
    "projectors.class_idempotent": ("projectors", "class_idempotent"),
    "projectors.p_jones_wenzl_direct": ("projectors", "p_jones_wenzl_direct"),
    "klr.act_e": ("klr", "act_e"),
    "klr.act_y": ("klr", "act_y"),
    "klr.act_psi": ("klr", "act_psi"),
    "klr.act_u": ("klr", "act_u"),
    "klr.op_product": ("klr", "op_product"),
    "klr.truncation_idempotent": ("klr", "truncation_idempotent"),
    "klr.diamond": ("klr", "diamond"),
    "klr.iota_klr": ("klr", "iota_klr"),
    "klr.small_jm": ("klr", "small_jm"),
    "klr.klr_relations_check": ("klr", "klr_relations_check"),
    "klr.diamond_formula_check": ("klr", "diamond_formula_check"),
    "klr.f_basis_element": ("klr", "f_basis_element"),
    "klr.f_norm": ("klr", "f_norm"),
    "klr.operator_to_element": ("klr", "operator_to_element"),
    "klr.operator_from_element_via_cells":
        ("klr", "operator_from_element_via_cells"),
    "klr.p_jones_wenzl_recursive_operator":
        ("klr", "p_jones_wenzl_recursive_operator"),
    "klr.p_jones_wenzl_recursive": ("klr", "p_jones_wenzl_recursive"),
    "klr.direct_projection_operator": ("klr", "direct_projection_operator"),
}

# leaf functions: call counts, and the time of the outermost call of a nest
LEAVES = {
    "coeffs.is_prime": ("coeffs", "is_prime"),
    "coeffs.check_odd_prime": ("coeffs", "check_odd_prime"),
    "coeffs.is_p_integral": ("coeffs", "is_p_integral"),
    "coeffs.reduce_mod_p": ("coeffs", "reduce_mod_p"),
}

# the strand-gluing kernels: call counts only
COUNTS = {
    "diagrams.sandwich.calls": ("diagrams", "sandwich"),
    "diagrams.frame_stack.calls": ("diagrams", "frame_stack"),
    "diagrams.stack_under.calls": ("diagrams", "stack_under"),
    "diagrams.compose_pairings.calls": ("diagrams", "compose_pairings"),
}

# lru caches whose hit and miss counts are read when the dump is written
CACHE_INFO = {
    "klr.diamond": ("klr", "diamond"),
    "klr.f_basis_element": ("klr", "f_basis_element"),
}


def _resolve(module, attr):
    owner = module
    path = attr.split(".")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]


class Tracer:
    """Records spans and counters for one process."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1, leaf seconds]
        self.counts = Counter()
        self.leaves = {}  # name -> [calls, seconds of outermost calls]
        self._stack = []
        self._in_leaf = [False]
        self._seen = {}
        self._cache_fns = {}

    # -- wrappers

    def span(self, name, fn, after=None):
        """Wrap fn so that each call records a span named name."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _leaf(self, name, fn):
        stats = self.leaves.setdefault(name, [0, 0.0])
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        in_leaf = self._in_leaf

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats[0] += 1
            if in_leaf[0]:
                return fn(*args, **kwargs)
            in_leaf[0] = True
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = clock() - start
                in_leaf[0] = False
                stats[1] += seconds
                if stack:
                    spans[stack[-1]][4] += seconds

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _first_call(self, name, key):
        seen = self._seen.setdefault(name, set())
        if key in seen:
            return False
        seen.add(key)
        return True

    # -- counters kept by the span wrappers

    def _hooks(self):
        c = self.counts

        def mul(args, out):
            a, b = args
            if hasattr(b, "terms"):
                c["diagrams.mul.pairs"] += len(a.terms) * len(b.terms)
                c["diagrams.mul.out_terms"] += len(out.terms)

        def add(args, out):
            c["diagrams.add.terms"] += len(args[0].terms) + len(args[1].terms)

        def enumerated(args, out):
            if self._first_call("standard_tableaux", args):
                c["tableaux.enumerated"] += len(out)

        def idempotent(args, out):
            if self._first_call("seminormal_idempotent", tuple(args[0])):
                c["projectors.seminormal_idempotent.distinct"] += 1
            c["projectors.seminormal_idempotent.out_terms"] += len(out.terms)

        def rows(args, out):
            c["klr.rows_visited"] += math.comb(out.n, out.n // 2)
            c["klr.rows_kept"] += len(out.action)

        def entries(args, out):
            c["klr.op_product.entries"] += sum(map(len, out.action.values()))

        def loaded(args, out):
            c["projectors.jwcache.load_bytes"] += os.path.getsize(args[1])

        def saved(args, out):
            c["projectors.jwcache.save_bytes"] += os.path.getsize(args[1])

        return {"diagrams.mul": mul, "diagrams.add": add,
                "tableaux.standard_tableaux": enumerated,
                "projectors.seminormal_idempotent": idempotent,
                "klr.act_e": rows, "klr.act_y": rows, "klr.act_psi": rows,
                "klr.act_u": rows, "klr.op_product": entries,
                "projectors.jwcache.load": loaded,
                "projectors.jwcache.save": saved}

    # -- installation

    def install(self):
        """Wrap the listed functions of the already imported package."""
        pkg = [m for name, m in sys.modules.items()
               if name == "tlexact" or name.startswith("tlexact.")]
        hooks = self._hooks()
        plan = [(name, spec, self.span, hooks.get(name))
                for name, spec in SPANS.items()]
        plan += [(name, spec, self._leaf, None) for name, spec in LEAVES.items()]
        plan += [(name, spec, self._count, None) for name, spec in COUNTS.items()]
        for name, (modname, attr), make, hook in plan:
            module = sys.modules.get(f"tlexact.{modname}")
            if module is None:
                continue
            owner, leaf = _resolve(module, attr)
            original = getattr(owner, leaf)
            wrapper = make(name, original, hook) if hook else make(name, original)
            setattr(owner, leaf, wrapper)
            if owner is module:
                for other in pkg:
                    for key, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, key, wrapper)
        for name, (modname, attr) in CACHE_INFO.items():
            module = sys.modules.get(f"tlexact.{modname}")
            if module is not None:
                self._cache_fns[name] = getattr(module, attr).__wrapped__
        return self

    def document(self, extra=None) -> dict:
        """Spans, counters and cache statistics as one JSON-ready dict."""
        caches = {}
        for name, fn in self._cache_fns.items():
            info = fn.cache_info()
            caches[name] = [info.hits, info.misses]
        return {"spans": self.spans, "leaves": self.leaves,
                "counts": dict(self.counts), "caches": caches,
                "extra": extra or {}}

    def dump(self, path, extra=None):
        with open(path, "w") as fh:
            json.dump(self.document(extra), fh)


# ---------------------------------------------------------------------------
# aggregation


def span_totals(doc):
    """Per name: [calls, total seconds, self seconds].  A leaf's self time
    is that of its outermost calls, which includes any nested leaf."""
    spans = doc["spans"]
    child = [leaf for *_, leaf in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for (name, start, end, _, _), inner in zip(spans, child):
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - inner
    for name, (calls, seconds) in doc.get("leaves", {}).items():
        out[name] = [calls, seconds, seconds]
    return out


def layer_metrics(docs) -> dict:
    """The per-layer metrics of one pass, from the dump of its process (or
    of each CLI child process)."""
    totals, counts, caches = {}, Counter(), Counter()
    extra = Counter()
    for doc in docs:
        for name, row in span_totals(doc).items():
            acc = totals.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += row[i]
        counts.update(doc["counts"])
        for name, (hits, misses) in doc["caches"].items():
            caches[name + ".hits"] += hits
            caches[name + ".misses"] += misses
        extra.update(doc["extra"])

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0]

    def total_s(name):
        return totals.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return totals.get(name, [0, 0.0, 0.0])[2]

    module_self = {m: sum(row[2] for name, row in totals.items()
                          if name.split(".", 1)[0] == m) for m in MODULES}
    all_self = sum(module_self.values())
    m = {}
    for mod in MODULES:
        m[f"{mod}.self_s"] = module_self[mod]
        m[f"share.{mod}"] = module_self[mod] / all_self if all_self else 0.0
    m["tableaux.enumerated"] = counts["tableaux.enumerated"]
    m["tableaux.class_of_one_column.self_s"] = self_s("tableaux.class_of_one_column")
    m["coeffs.is_p_integral.calls"] = calls("coeffs.is_p_integral")
    m["coeffs.is_prime.calls"] = calls("coeffs.is_prime")

    m["diagrams.mul.calls"] = calls("diagrams.mul")
    m["diagrams.mul.pairs"] = counts["diagrams.mul.pairs"]
    m["diagrams.mul.out_terms"] = counts["diagrams.mul.out_terms"]
    m["diagrams.mul.self_s"] = self_s("diagrams.mul")
    mul_s = self_s("diagrams.mul")
    m["diagrams.mul.pairs_per_s"] = counts["diagrams.mul.pairs"] / mul_s if mul_s else 0.0
    m["diagrams.add.calls"] = calls("diagrams.add")
    m["diagrams.add.terms"] = counts["diagrams.add.terms"]
    m["diagrams.add.self_s"] = self_s("diagrams.add")
    for kernel in ("sandwich", "frame_stack", "stack_under", "compose_pairings"):
        m[f"diagrams.{kernel}.calls"] = counts[f"diagrams.{kernel}.calls"]
    m["diagrams.cell_action.self_s"] = self_s("diagrams.cell_action")
    m["diagrams.element_to_str.self_s"] = self_s("diagrams.element_to_str")

    m["projectors.jones_wenzl.calls"] = calls("projectors.jones_wenzl")
    m["projectors.jones_wenzl.computed"] = calls("projectors.jwcache.compute")
    m["projectors.jones_wenzl.self_s"] = (self_s("projectors.jones_wenzl")
                                          + self_s("projectors.jwcache.compute"))
    m["projectors.jwcache.load_s"] = total_s("projectors.jwcache.load")
    m["projectors.jwcache.load_bytes"] = counts["projectors.jwcache.load_bytes"]
    m["projectors.jwcache.save_s"] = total_s("projectors.jwcache.save")
    m["projectors.jwcache.save_bytes"] = counts["projectors.jwcache.save_bytes"]
    m["projectors.seminormal_idempotent.calls"] = calls("projectors.seminormal_idempotent")
    m["projectors.seminormal_idempotent.distinct"] = \
        counts["projectors.seminormal_idempotent.distinct"]
    m["projectors.seminormal_idempotent.out_terms"] = \
        counts["projectors.seminormal_idempotent.out_terms"]
    for fn in ("seminormal_idempotent", "seminormal_vector", "class_idempotent",
               "p_jones_wenzl_direct", "idempotent_by_products"):
        m[f"projectors.{fn}.self_s"] = self_s(f"projectors.{fn}")

    visited = counts["klr.rows_visited"]
    m["klr.rows_visited"] = visited
    m["klr.rows_kept"] = counts["klr.rows_kept"]
    m["klr.keep_ratio"] = counts["klr.rows_kept"] / visited if visited else 0.0
    m["klr.op_product.calls"] = calls("klr.op_product")
    m["klr.op_product.entries"] = counts["klr.op_product.entries"]
    m["klr.op_product.self_s"] = self_s("klr.op_product")
    m["klr.diamond.calls"] = calls("klr.diamond")
    m["klr.diamond.hits"] = caches["klr.diamond.hits"]
    m["klr.diamond.self_s"] = self_s("klr.diamond")
    for fn in ("act_psi", "act_e", "iota_klr", "p_jones_wenzl_recursive_operator",
               "klr_relations_check", "diamond_formula_check",
               "operator_from_element_via_cells"):
        m[f"klr.{fn}.self_s"] = self_s(f"klr.{fn}")
    m["klr.operator_to_element.calls"] = calls("klr.operator_to_element")
    m["klr.operator_to_element.self_s"] = self_s("klr.operator_to_element")
    m["klr.f_basis_element.hits"] = caches["klr.f_basis_element.hits"]
    m["klr.f_basis_element.misses"] = caches["klr.f_basis_element.misses"]
    m["klr.f_basis_element.self_s"] = self_s("klr.f_basis_element")

    for sub in ("jw", "pjw", "idempotent", "classes", "collapse", "klr-check",
                "diamond-check", "verify-all"):
        m[f"cli.{sub}.s"] = total_s(f"cli.{sub}")
    m["cli.startup_s"] = extra["cli.startup_s"]
    m["cli.stdout_bytes"] = extra["cli.stdout_bytes"]
    m["cli.exit_mismatch"] = extra["cli.exit_mismatch"]
    return m
