"""Layer spans and work counters, installed around the package from outside.

Nothing in the package changes: ``Tracer.install`` rebinds every public
function of each ``foliationlab`` module, in every module that holds a
binding to it (``from .x import f`` included), plus the public methods of
the package's classes, and ``uninstall`` puts the originals back.

A span opens when a call enters a layer (a module) from outside it, or
calls one of the TRACKED functions; other calls within a layer only count.
Per-operation arithmetic (all of GaussRat, and the MVPoly and
TruncatedSeries operators) gets counters only, because a span per
operation would swamp the run.  Spans stay in memory and are written out
at the end of the run.
"""

from __future__ import annotations

import collections
import functools
import gzip
import importlib
import inspect
import json
import pkgutil
import random
from time import perf_counter_ns

# operators: (layer, class, method) -> counter name; counted, never spanned
OPERATOR_COUNTERS = {
    ("gaussrat", "GaussRat", "__add__"): "gaussrat.add",
    ("gaussrat", "GaussRat", "__radd__"): "gaussrat.add",
    ("gaussrat", "GaussRat", "__mul__"): "gaussrat.mul",
    ("gaussrat", "GaussRat", "__rmul__"): "gaussrat.mul",
    ("gaussrat", "GaussRat", "__truediv__"): "gaussrat.div",
    ("mvpoly", "MVPoly", "__mul__"): "mvpoly.mul",
    ("mvpoly", "MVPoly", "__rmul__"): "mvpoly.mul",
    ("series", "TruncatedSeries", "__mul__"): "series.mul",
    ("series", "TruncatedSeries", "__rmul__"): "series.mul",
}

# counter names that aggregate functions or drop the class name
CALL_ALIASES = {
    "dsl.parse_polynomial": "dsl.parse",
    "dsl.parse_vector_field": "dsl.parse",
    "dsl.parse_curve": "dsl.parse",
    "dsl.parse_divisor": "dsl.parse",
    "mvpoly.MVPoly.subs": "mvpoly.subs",
}

# operations whose operands a Capture samples for replay
CAPTURED = ("gaussrat.add", "gaussrat.mul", "gaussrat.div", "mvpoly.mul", "mvpoly.subs")

EXPR_EVAL_METHODS = ("eval_scaled", "logabs2", "eval_complex")

# layers whose every call is a cheap scalar operation: counted, never spanned
COUNTER_ONLY_LAYERS = ("gaussrat",)

# functions that get a span of their own even when called from their own
# layer, so that their self time is separable from the rest of the layer
TRACKED = (
    "linalg.char_poly", "linalg.eigenvalues_exact", "unipoly.gaussian_rational_roots",
    "blowup.transform_vector_field", "blowup.singular_points_on_E", "classify.classify_reduced",
    "classify.is_dicritical", "classify.bounded_ais_probe", "classify.singularity_report",
)


def package_modules():
    pkg = importlib.import_module("foliationlab")
    mods = [importlib.import_module("foliationlab." + m.name)
            for m in pkgutil.iter_modules(pkg.__path__)]
    return pkg, mods


def _observe_result(counts, qualname, result):
    """Work counters read off return values."""
    if qualname == "unipoly.gaussian_rational_roots":
        counts["unipoly.roots.split"] += result.split_completely()
    elif qualname == "quadrature.circle_mean":
        counts["quadrature.evaluations"] += result.evaluations
        counts["quadrature.converged"] += bool(result.converged)
    elif qualname in ("resolution.seidenberg_reduce", "resolution.resolve_simple"):
        counts["resolution.blowups"] += len(result.events)
        counts["resolution.terminals"] += len(result.terminals)


class Tracer:
    def __init__(self):
        self.counts = collections.Counter()
        self.self_ns = collections.Counter()  # per layer
        self.fn_self_ns = collections.Counter()  # per tracked function
        self.spans: list[list] = []  # [id, parent, layer, name, start ns, end ns, item]
        # open spans: [span id, layer, start ns, child ns, name]
        self.stack: list[list] = []
        self.item = None
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, layer: str, name: str):
        frame = [len(self.spans), layer, perf_counter_ns(), 0, name]
        parent = self.stack[-1][0] if self.stack else None
        self.spans.append([frame[0], parent, layer, name, frame[2], None, self.item])
        self.stack.append(frame)

    def _close(self):
        span_id, layer, start, child, name = self.stack.pop()
        end = perf_counter_ns()
        self.spans[span_id][5] = end
        self.self_ns[layer] += end - start - child
        self.fn_self_ns["%s.%s" % (layer, name)] += end - start - child
        if self.stack:
            self.stack[-1][3] += end - start

    def run_item(self, item_id, fn, *args, layer="item"):
        """Run one workload item under a root span of layer ``item``; the
        root's self time is the part no layer span covers."""
        self.item = item_id
        self._open(layer, str(item_id))
        try:
            return fn(*args)
        finally:
            self._close()
            self.item = None

    def _span_wrapper(self, layer, name, fn, expr_eval=False):
        counts, stack = self.counts, self.stack
        qualname = "%s.%s" % (layer, name)
        key = CALL_ALIASES.get(qualname, qualname) + ".calls"
        tracked = qualname in TRACKED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if stack and stack[-1][1] == layer and not tracked:
                result = fn(*args, **kwargs)
            else:
                if expr_eval and len(args) > 1:
                    counts["exprtree.points"] += getattr(args[1], "size", 1)
                self._open(layer, name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close()
            _observe_result(counts, qualname, result)
            return result

        return wrapper

    def _counter_wrapper(self, key, fn):
        counts, key = self.counts, key + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, capture=None):
        """Wrap the package.  With ``capture``, operator counters also hand
        their operands to ``capture``."""
        pkg, mods = package_modules()
        replaced = {}
        for mod in mods:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if layer in COUNTER_ONLY_LAYERS:
                        replaced[obj] = self._counter_wrapper("%s.%s" % (layer, name), obj)
                    else:
                        replaced[obj] = self._span_wrapper(layer, name, obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj, capture)
        for mod in [pkg] + mods:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._set(mod, name, replaced[obj])

    def _wrap_class(self, layer, cls, capture):
        wrapped = {}
        for name, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue
            op_key = OPERATOR_COUNTERS.get((layer, cls.__name__, name))
            if op_key is None and name.startswith("_"):
                continue
            if obj not in wrapped:
                qualname = "%s.%s.%s" % (layer, cls.__name__, name)
                key = op_key or CALL_ALIASES.get(qualname, qualname)
                fn = capture.wrap(key, obj) if capture and key in CAPTURED else obj
                if op_key is not None or layer in COUNTER_ONLY_LAYERS:
                    wrapped[obj] = self._counter_wrapper(key, fn)
                else:
                    expr_eval = layer == "exprtree" and name in EXPR_EVAL_METHODS
                    wrapped[obj] = self._span_wrapper(layer, "%s.%s" % (cls.__name__, name), fn, expr_eval)
            self._set(cls, name, wrapped[obj])

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def write_spans(self, path):
        """Gzipped JSON lines: a header naming the fields, then one array
        per span (times in ns from perf_counter_ns)."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(["id", "parent", "layer", "name", "start_ns", "end_ns", "item"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class Capture:
    """Seeded reservoir sample of operator operands, for replay timing."""

    def __init__(self, seed: int, size: int):
        self.rng = random.Random(seed)
        self.size = size
        self.seen = collections.Counter()
        self.samples: dict[str, list] = collections.defaultdict(list)
        self.originals: dict[str, object] = {}

    def wrap(self, key, fn):
        self.originals.setdefault(key, fn)
        samples, seen, rng, size = self.samples[key], self.seen, self.rng, self.size

        @functools.wraps(fn)
        def wrapper(*args):
            seen[key] += 1
            if len(samples) < size:
                samples.append(args)
            else:
                j = rng.randrange(seen[key])
                if j < size:
                    samples[j] = args
            return fn(*args)

        return wrapper

    def replay_ns(self, key, rounds: int = 7) -> float:
        """Median over rounds of the mean time per replayed operation."""
        fn, samples = self.originals[key], self.samples[key]
        per_op = []
        for _ in range(rounds):
            start = perf_counter_ns()
            for args in samples:
                fn(*args)
            per_op.append((perf_counter_ns() - start) / len(samples))
        per_op.sort()
        return per_op[len(per_op) // 2]
