"""The traced run: spans around calls into each layer's public functions.

`Tracer.install` wraps every listed function at every module binding where
it is used (`from .numtheory import factor` copies the name into `conics`,
so `conics.factor` is wrapped as well as `numtheory.factor`).  Each call
appends one span (name, start, end, parent span, op id, failed) to arrays
kept in memory; `metrics` turns them into per-function counts and self
times, and `write` saves them when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

LAYERS = {
    "numtheory": ("factor", "squarefree_part", "hilbert_symbol", "candidate_places",
                  "legendre", "is_prime"),
    "conics": ("new_conic", "brauer_class", "rational_point", "conic_from_class",
               "brauer_product", "rewrite_with_discriminant",
               "common_splitting_discriminant"),
    "brauer": ("span", "join", "contains", "subgroup_leq", "reduce_generators", "replay",
               "Subgroup.__init__"),
    "gring": ("term_mul", "RingElement.__mul__", "RingElement.__pow__",
              "canonical_of_product", "decide_equal_products", "decide_stably_birational",
              "render_element"),
    "ringexpr": ("parse_ring_expression",),
    "cli": ("main", "read_conics"),
}
#: Bounded searches: their spans also count failures (an exception escaped).
SEARCHES = ("conics.rational_point", "conics.conic_from_class", "conics.brauer_product",
            "conics.rewrite_with_discriminant", "conics.common_splitting_discriminant")
#: Functions whose share of distinct argument pairs is reported.
DISTINCT = ("brauer.join", "gring.term_mul")
#: Reported by call count only.
CALLS_ONLY = ("numtheory.legendre",)

_METHOD_NAMES = {"__init__": "", "__mul__": ".mul", "__pow__": ".pow"}


def span_name(layer: str, attr: str) -> str:
    owner, _, method = attr.rpartition(".")
    return f"{layer}.{owner}{_METHOD_NAMES[method]}" if owner else f"{layer}.{attr}"


def metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the traced run prints: name -> (unit, better)."""
    out = {}
    for layer, attrs in LAYERS.items():
        for attr in attrs:
            name = span_name(layer, attr)
            out[f"{name}.calls"] = ("count", "lower")
            if name not in CALLS_ONLY:
                out[f"{name}.self_ms"] = ("ms", "lower")
            if name in SEARCHES:
                out[f"{name}.failed"] = ("count", "lower")
            if name in DISTINCT:
                out[f"{name}.distinct_frac"] = ("fraction", "higher")
    out["numtheory.factor.per_class"] = ("ratio", "lower")
    out["conics.brauer_class.cold_frac"] = ("fraction", "lower")
    out["conics.conic_from_class.candidates"] = ("count", "lower")
    out["conics.conic_from_class.useful_ratio"] = ("ratio", "higher")
    out["trace.overhead_frac"] = ("fraction", "lower")
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("q")
        self.op_id = array("q")
        self.failed = array("B")
        self.start = array("d")
        self.end = array("d")
        self.current = -1  # index of the open innermost span
        self.op = -1       # id of the op being run, set by the runner
        self.pairs: dict[str, set] = {name: set() for name in DISTINCT}

    def install(self) -> None:
        """Wrap the listed functions in the imported conicring modules."""
        modules = [m for k, m in sys.modules.items()
                   if k == "conicring" or k.startswith("conicring.")]
        for layer, attrs in LAYERS.items():
            module = sys.modules[f"conicring.{layer}"]
            for attr in attrs:
                name = span_name(layer, attr)
                owner_name, _, method = attr.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    setattr(owner, method, self._wrap(name, getattr(owner, method)))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapper)

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        pairs = self.pairs.get(name)
        name_a, parent_a, op_a, failed_a = self.name, self.parent, self.op_id, self.failed
        start_a, end_a = self.start, self.end
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_a)
            name_a.append(fid)
            parent_a.append(tracer.current)
            op_a.append(tracer.op)
            failed_a.append(1)
            start_a.append(0.0)
            end_a.append(0.0)
            if pairs is not None:
                pairs.add((hash(args[0]), hash(args[1])))
            outer, tracer.current = tracer.current, idx
            start_a[idx] = clock()
            try:
                result = fn(*args, **kwargs)
                failed_a[idx] = 0
                return result
            finally:
                end_a[idx] = clock()
                tracer.current = outer
        return wrapper

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; self time = duration minus direct child spans."""
        import numpy as np

        names = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        failed = np.array(self.failed, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        self_ms = np.bincount(names, weights=dur - child, minlength=k) * 1e3
        fails = np.bincount(names, weights=failed, minlength=k)
        parent_name = np.where(has_parent, names[np.where(has_parent, parent, 0)], -1)
        fid = {n: i for i, n in enumerate(self.names)}

        units = metric_units()
        out: dict[str, float] = {}
        for metric in units:
            name, _, kind = metric.rpartition(".")
            if name not in fid:
                continue
            i = fid[name]
            if kind == "calls":
                out[metric] = int(calls[i])
            elif kind == "self_ms":
                out[metric] = float(self_ms[i])
            elif kind == "failed":
                out[metric] = int(fails[i])
            elif kind == "distinct_frac":
                out[metric] = len(self.pairs[name]) / calls[i] if calls[i] else 0.0

        bc, cfc = fid["conics.brauer_class"], fid["conics.conic_from_class"]
        bc_calls = int(calls[bc])
        cold = np.unique(parent[(names == fid["numtheory.candidate_places"])
                                & (parent_name == bc)])
        candidates = int(np.count_nonzero((names == bc) & (parent_name == cfc)))
        successes = int(calls[cfc] - fails[cfc])
        out["numtheory.factor.per_class"] = (
            int(calls[fid["numtheory.factor"]]) / bc_calls if bc_calls else 0.0)
        out["conics.brauer_class.cold_frac"] = len(cold) / bc_calls if bc_calls else 0.0
        out["conics.conic_from_class.candidates"] = candidates
        out["conics.conic_from_class.useful_ratio"] = (
            successes / candidates if candidates else 0.0)
        return out

    def write(self, path: Path) -> None:
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez_compressed(
                fh, names=np.array(self.names), name=np.array(self.name),
                parent=np.array(self.parent), op=np.array(self.op_id),
                start=np.array(self.start), end=np.array(self.end),
                failed=np.array(self.failed),
            )

    def __len__(self) -> int:
        return len(self.start)
