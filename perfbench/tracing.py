"""Per-layer tracing from outside the library.

The tracer replaces each listed public function with a wrapper in every
module namespace that bound it (``pipeline`` binds ``compose`` through
``from .clifford import compose``, so patching ``clifford`` alone would
miss those calls).  Each call records a span: the function, its parent
span, and its start and end times.  Spans stay in flat in-memory arrays
until the run ends; self time is a span's duration minus the time its
child spans cover and minus the wrapper's own cost for each child call.
The library source is never edited.
"""

from __future__ import annotations

import functools
import statistics
import sys
import types
from array import array
from time import perf_counter

import numpy as np

# layer (module) -> traced public names; "CliffordRep" is the constructor.
LAYERS = {
    "gf2": (
        "mat_mul",
        "rref",
        "inverse",
        "is_symplectic",
        "symmetric_congruence",
        "enumerate_lagrangians",
        "symplectic_complete",
    ),
    "clifford": ("compose", "inverse", "conjugate", "CliffordRep"),
    "pipeline": (
        "generators_from_gate",
        "normalize_family",
        "build_fmap",
        "fmap_kernel",
        "extract_certificate",
    ),
    "dense": (
        "check_unitary",
        "is_pauli",
        "extract_rep",
        "hierarchy_level",
        "monomial_check",
        "realize_block",
    ),
    "classify": ("is_semi_clifford", "is_generalized_semi_clifford", "classify"),
    "normal_form": (
        "involution_normal_form",
        "commuting_set_normal_form",
        "simultaneous_nice_form_obstruction",
    ),
    "expansion": ("expand", "rep_to_dense"),
    "pauli": ("pauli_to_dense",),
    "circuits": ("parse_circuit", "circuit_to_dense"),
    "cli": ("main", "read_bit_matrices"),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)


class Tracer:
    """Wraps callables in place and records nested spans.

    ``targets`` is a list of (label, owner, attribute).  Installing
    replaces ``owner.attribute`` and every binding of the same object
    found in ``namespaces``; ``uninstall`` puts the originals back.
    ``observers`` maps a label to a callback run on each return value.
    """

    def __init__(self, targets, namespaces, observers=None):
        self.labels = [label for label, _, _ in targets]
        self._targets = targets
        self._namespaces = namespaces
        self._observers = observers or {}
        self._patches = []
        self.name_idx = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def _wrap(self, fn, idx, observer):
        name_idx, parent, start, end = self.name_idx, self.parent, self.start, self.end
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(start)
            name_idx.append(idx)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(span)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = perf_counter()
                stack.pop()
            if observer is not None:
                observer(result)
            return result

        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for idx, (label, owner, attr) in enumerate(self._targets):
            original = getattr(owner, attr)
            wrapper = self._wrap(original, idx, self._observers.get(label))
            sites = [(owner, attr)]
            for ns in self._namespaces:
                sites += [(ns, k) for k, v in vars(ns).items() if v is original and ns is not owner]
            for site, key in sites:
                self._patches.append((site, key, original))
                setattr(site, key, wrapper)

    def uninstall(self):
        for site, key, original in reversed(self._patches):
            setattr(site, key, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def span_count(self) -> int:
        return len(self.start)

    def totals(self, lo=0, hi=None, call_cost=0.0):
        """Per-label (calls, self seconds) over spans lo..hi.

        A child span always has a larger index than its parent, so a
        contiguous index range holding whole top-level spans holds whole
        trees.  The wrapper's bookkeeping outside a child's span lands in
        its parent's self time; ``call_cost`` seconds per direct child
        are taken off the parent for it (see ``measure_call_cost``).
        """
        hi = self.span_count() if hi is None else hi
        names = np.frombuffer(self.name_idx, dtype=np.int_)[lo:hi]
        parents = np.frombuffer(self.parent, dtype=np.int_)[lo:hi]
        dur = (np.frombuffer(self.end)[lo:hi] - np.frombuffer(self.start)[lo:hi])
        nested = parents >= lo
        child = np.bincount(parents[nested] - lo, weights=dur[nested], minlength=hi - lo)
        kids = np.bincount(parents[nested] - lo, minlength=hi - lo)
        self_s = dur - child - kids * call_cost
        k = len(self.labels)
        calls = np.bincount(names, minlength=k)
        self_sum = np.bincount(names, weights=self_s, minlength=k)
        return {
            label: (int(calls[i]), float(self_sum[i])) for i, label in enumerate(self.labels)
        }

    def child_calls(self, parent_label, child_label, lo=0, hi=None) -> int:
        """Calls of child_label made directly by parent_label."""
        hi = self.span_count() if hi is None else hi
        names = np.frombuffer(self.name_idx, dtype=np.int_)
        parents = np.frombuffer(self.parent, dtype=np.int_)[lo:hi]
        want_parent = self.labels.index(parent_label)
        want_child = self.labels.index(child_label)
        is_child = names[lo:hi] == want_child
        has_parent = parents >= 0
        direct = np.zeros(hi - lo, dtype=bool)
        direct[has_parent] = names[parents[has_parent]] == want_parent
        return int(np.count_nonzero(is_child & direct))

    def save(self, path):
        """Write every span: label table, name index, parent, start, end."""
        np.savez(
            path,
            labels=np.array(self.labels),
            name_idx=np.frombuffer(self.name_idx, dtype=np.int_),
            parent=np.frombuffer(self.parent, dtype=np.int_),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


CALL_COST_REPS = 20000
CALL_COST_TRIALS = 7


def measure_call_cost():
    """Seconds one traced call adds to its caller's self time.

    A traced loop calls a traced no-op CALL_COST_REPS times; the loop's
    self time, less the time of the same loop untraced, is the
    bookkeeping that falls outside the child spans.  Median over
    CALL_COST_TRIALS trials.
    """
    reps = CALL_COST_REPS
    ns = types.SimpleNamespace()

    def leaf(x):
        return x

    def loop():
        for i in range(reps):
            ns.leaf(i)

    ns.leaf, ns.loop = leaf, loop
    tracer = Tracer([("leaf", ns, "leaf"), ("loop", ns, "loop")], [])
    costs = []
    for _ in range(CALL_COST_TRIALS):
        t0 = perf_counter()
        loop()
        plain = perf_counter() - t0
        lo = tracer.span_count()
        with tracer:
            ns.loop()
        traced = tracer.totals(lo)["loop"][1]
        costs.append((traced - plain) / reps)
    return max(statistics.median(costs), 0.0)


class LibraryCounters:
    """Return-value observers for the ratios of the traced library."""

    def __init__(self):
        self.kernel_kept = 0
        self.products_scanned = 0
        self.extract_calls = 0
        self.extract_clifford = 0
        self.monomial_calls = 0
        self.monomial_hits = 0
        self.semi_misses = 0
        self.semi_witnesses = []  # (n, domain basis bytes), resolved later

    def on_build_fmap(self, scan):
        self.kernel_kept += int(np.count_nonzero(~scan.fvals.any(axis=1)))
        self.products_scanned += int(scan.fvals.shape[0])

    def on_extract_rep(self, rep):
        self.extract_calls += 1
        self.extract_clifford += rep is not None

    def on_monomial_check(self, mc):
        self.monomial_calls += 1
        self.monomial_hits += bool(mc.is_monomial)

    def on_is_semi_clifford(self, result):
        found, detail = result
        if found:
            self.semi_witnesses.append((detail.domain.n, detail.domain.basis.tobytes()))
        else:
            self.semi_misses += int(detail)

    def lagrangians_tried(self, enumerate_lagrangians) -> int:
        """Lagrangians is_semi_clifford tried: a hit at index i tried i + 1.

        Call it with the tracer uninstalled, so that resolving witness
        positions records no spans.
        """
        index = {}
        for n in {n for n, _ in self.semi_witnesses}:
            index[n] = {lag.basis.tobytes(): i for i, lag in enumerate(enumerate_lagrangians(n))}
        return self.semi_misses + sum(index[n][key] + 1 for n, key in self.semi_witnesses)

    def observers(self):
        return {
            "pipeline.build_fmap": self.on_build_fmap,
            "dense.extract_rep": self.on_extract_rep,
            "dense.monomial_check": self.on_monomial_check,
            "classify.is_semi_clifford": self.on_is_semi_clifford,
        }


def library_tracer():
    """Tracer over every LAYERS function of the imported semiclifford."""
    modules = {layer: sys.modules[f"semiclifford.{layer}"] for layer in LAYERS}
    namespaces = [
        mod
        for name, mod in sys.modules.items()
        if name == "semiclifford" or name.startswith("semiclifford.")
    ]
    targets = []
    for layer, fns in LAYERS.items():
        for fn in fns:
            if fn == "CliffordRep":
                targets.append((f"{layer}.{fn}", getattr(modules[layer], fn), "__init__"))
            else:
                targets.append((f"{layer}.{fn}", modules[layer], fn))
    counters = LibraryCounters()
    return Tracer(targets, namespaces, counters.observers()), counters
