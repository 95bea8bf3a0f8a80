"""Span recorder for the traced run, installed from outside ppart.

ppart's modules bind each other's functions by name (`from .poset import
connected_ideals`), so a call made from `series` goes through the name
bound in `ppart.series`.  `Recorder.install` therefore replaces every
public function of a layer module in *every* `ppart.*` namespace that
binds it, plus the arithmetic methods on `TruncSeries` and `QPolynomial`,
and `uninstall` puts every original binding back.

A span is (op id, name, start, end, parent span index); spans are kept in
memory.  A span's self time is its duration minus the time of its child
spans, accumulated on the span stack as the spans close.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("cli", "poset", "partitions", "extensions", "qpoly", "series",
          "structure", "presentation", "complexes")

# Leaf helpers called per element or per pair inside the walks; a span
# around each call would cost more than the work it measures.  Their time
# lands in the calling layer's self time.
UNWRAPPED = frozenset({
    "hasse_components", "members", "satisfies", "trivially_intersecting",
    "ideal_key", "mask_of", "popcount", "c_p", "is_ideal", "principal_ideal",
})

METHODS = (("series", "TruncSeries", ("__mul__", "inverse")),
           ("qpoly", "QPolynomial", ("__mul__", "exact_div")))


def _series_terms(result):
    if isinstance(result, tuple):
        return sum(_series_terms(r) for r in result)
    coeffs = getattr(result, "coeffs", None)
    return len(coeffs) if isinstance(coeffs, dict) else 0


class Recorder:
    """Collects spans and work counters while `active` is true."""

    def __init__(self):
        self.active = False
        self.spans = []
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.self_s["bench"] = 0.0
        self.counts = {}
        self._stack = []  # [layer, start, child time, span index, parent index]
        self._op = 0
        self._saved = []
        self._clock = time.perf_counter

    # -- spans ----------------------------------------------------------

    def _enter(self, layer):
        parent = self._stack[-1][3] if self._stack else -1
        self.spans.append(None)
        self._stack.append([layer, self._clock(), 0.0, len(self.spans) - 1, parent])

    def _exit(self):
        end = self._clock()
        layer, start, child, index, parent = self._stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        self.spans[index] = (self._op, layer, start, end, parent)

    def op(self, call):
        """Run one benchmark operation as the root span of its own id."""
        self._op += 1
        self.active = True
        self._enter("bench")
        try:
            return call()
        finally:
            self._exit()
            self.active = False

    def add(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- wrapping -------------------------------------------------------

    def _wrap(self, layer, name, fn, after):
        rec = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not rec.active:
                    yield from fn(*args, **kwargs)
                    return
                for item in fn(*args, **kwargs):
                    rec.add(f"{layer}.{name}.items")
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            rec._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._exit()
            rec.add(f"{layer}.{name}.calls")
            if after is not None:
                after(rec, args, result)
            return result
        return wrapper

    def install(self, package):
        """Wrap every public layer function in every ppart namespace."""
        modules = [package] + [sys.modules[f"{package.__name__}.{m}"]
                               for m in LAYERS + ("fixtures", "errors")]
        wrapped = {}
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or name in UNWRAPPED
                        or not inspect.isfunction(obj)
                        or not obj.__module__.startswith(package.__name__ + ".")):
                    continue
                layer = obj.__module__.rsplit(".", 1)[1]
                if layer not in LAYERS:
                    continue
                if obj not in wrapped:
                    wrapped[obj] = self._wrap(layer, name, obj, AFTER.get(name))
                self._saved.append((mod, name, obj))
                setattr(mod, name, wrapped[obj])
        for layer, cls_name, methods in METHODS:
            cls = getattr(sys.modules[f"{package.__name__}.{layer}"], cls_name)
            for meth in methods:
                fn = vars(cls)[meth]
                key = f"{cls_name}.{meth}"
                self._saved.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(layer, key, fn, AFTER.get(key)))

    def uninstall(self):
        for owner, name, obj in reversed(self._saved):
            setattr(owner, name, obj)
        self._saved.clear()

    # -- results --------------------------------------------------------

    def metrics(self, rounds):
        """Per-layer metrics per completed round of the workload."""
        c = self.counts.get
        pairs = c("series.TruncSeries.__mul__.pairs", 0)
        kept = c("series.TruncSeries.__mul__.kept", 0)
        values = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        values.update({
            "bench.self_s": self.self_s["bench"],
            "cli.calls": c("cli.main.calls", 0),
            "poset.ideals_yielded": c("poset.iter_ideals.items", 0),
            "poset.connected_ideals.calls": c("poset.connected_ideals.calls", 0),
            "poset.jconn_returned": c("poset.jconn_returned", 0),
            "poset.nontrivial_pairs.calls": c("poset.nontrivial_pairs.calls", 0),
            "poset.pi_returned": c("poset.pi_returned", 0),
            "partitions.vectors": c("partitions.vectors", 0),
            "partitions.decompositions": c("partitions.connected_decomposition.calls", 0),
            "extensions.enumerated": c("extensions.enumerated", 0),
            "extensions.count_calls": c("extensions.count_extensions.calls", 0),
            "extensions.maj_calls": c("extensions.maj_polynomial.calls", 0),
            "qpoly.mul_calls": c("qpoly.QPolynomial.__mul__.calls", 0),
            "qpoly.div_calls": c("qpoly.QPolynomial.exact_div.calls", 0),
            "series.mul_calls": c("series.TruncSeries.__mul__.calls", 0),
            "series.mul_term_pairs": pairs,
            "series.inverse_calls": c("series.TruncSeries.inverse.calls", 0),
            "series.terms_out": c("series.terms_out", 0),
            "structure.classify_calls": c("structure.classify.calls", 0),
            "structure.witnesses": c("structure.witnesses", 0),
            "presentation.generators": c("presentation.generators", 0),
            "complexes.facets": c("complexes.facets", 0),
        })
        out = {k: v / rounds for k, v in values.items()}
        out["series.mul_kept_ratio"] = kept / pairs if pairs else 0.0
        return out


def _mul_sizes(rec, args, result):
    a, b = args
    rec.add("series.TruncSeries.__mul__.pairs", len(a.coeffs) * len(b.coeffs))
    rec.add("series.TruncSeries.__mul__.kept", len(result.coeffs))


def _length(counter):
    return lambda rec, args, result: rec.add(counter, len(result))


def _series_out(rec, args, result):
    rec.add("series.terms_out", _series_terms(result))


def _classified(rec, args, result):
    if type(result).__name__ == "Witness":
        rec.add("structure.witnesses")


def _facets(rec, args, result):
    rec.add("complexes.facets", len(result.facets))


AFTER = {
    "TruncSeries.__mul__": _mul_sizes,
    "connected_ideals": _length("poset.jconn_returned"),
    "nontrivial_pairs": _length("poset.pi_returned"),
    "enumerate_partitions": _length("partitions.vectors"),
    "linear_extensions": _length("extensions.enumerated"),
    "classify": _classified,
    "toric_generators": _length("presentation.generators"),
    "graded_generators": _length("presentation.generators"),
    "initial_generators": _length("presentation.generators"),
    "delta_complex": _facets,
    "hilbert_truncated": _series_out,
    "initial_quotient_hilbert": _series_out,
    "rational_sum_truncated": _series_out,
    "duplication_product": _series_out,
    "koszul_inverse": _series_out,
    "numerator_polynomial": _series_out,
}
