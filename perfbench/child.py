"""One benchmark process: set up a workload, run its items, print one JSON
object on stdout.  ``run.py`` starts it; every mode runs in a fresh
process so that import time and peak memory belong to one workload.

    python3 perfbench/child.py --workload W --seed N --mode MODE [--seconds S] [--out DIR]

Modes: ``setup`` (import and input generation only), ``measure`` (whole
passes over the items until S seconds have passed), ``trace`` (a traced
pass with spans and counters, between two untraced passes) and ``replay``
(capture arithmetic operands on a Seidenberg-corpus sample and time their
replay).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import signal
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import gen  # noqa: E402  (sibling module; the script directory is on sys.path)
import layers  # noqa: E402

SEIDENBERG_DEPTH = 8
REPLAY_GERMS = 60
REPLAY_SAMPLES = 2000
PROBE_PERIOD_S = 0.01


def speed_probe() -> int:
    """Fixed standard-library work (Fraction arithmetic, dict and list
    churn).  Its duration tracks how fast the machine runs Python at that
    moment; the package never runs here."""
    table = {}
    total = Fraction(0)
    for i in range(1, 25):
        q = Fraction(i, i + 1) * Fraction(3, 2 * i + 1)
        total += q
        table[(i, i % 3)] = [q, total]
    return len(table)


class SpeedSampler:
    """Runs the speed probe every PROBE_PERIOD_S from a SIGALRM timer,
    between bytecodes of whatever the main thread is doing, and records
    (start ns, duration ns) of each probe.  The parent subtracts the probes
    that fall inside an item from its latency and scales the rest by the
    probe times around it."""

    def __init__(self):
        self.samples: list[tuple[int, int]] = []

    def _probe(self, signum, frame):
        # With the collector off, the probe's allocations cannot start a
        # collection that walks the package's heap inside the probe.
        collecting = gc.isenabled()
        gc.disable()
        start = perf_counter_ns()
        speed_probe()
        self.samples.append((start, perf_counter_ns() - start))
        if collecting:
            gc.enable()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def _np_scalar(obj):
    return obj.item()


def render(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, default=_np_scalar)


def digest(out: dict) -> str:
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()


# -- workloads -------------------------------------------------------------------
#
# build(seed) -> items; call(item) is the timed work; show(result) turns the
# result into {"rc", "out", "err"} outside the timed region.


class SeidenbergCorpus:
    def build(self, seed):
        """The acceptance-criterion-1 corpus, then the germs of the seeded
        corpus it lacks.  Only 84 germs of a corpus are the same for every
        seed; the fixed half keeps the latency distribution from following
        one seed's random draw."""
        from foliationlab.corpus import seidenberg_corpus

        items, seen = [], set()
        for g in seidenberg_corpus() + seidenberg_corpus(seed=seed):
            key = g.to_text()
            if key not in seen:
                seen.add(key)
                items.append({"key": key, "germ": g})
        return items

    def call(self, item):
        from foliationlab.resolution import seidenberg_reduce

        return seidenberg_reduce(item["germ"], SEIDENBERG_DEPTH)

    def show(self, tower):
        return {"rc": 0, "out": render(tower.to_jsonable()), "err": ""}


class SimpleTowers:
    def build(self, seed):
        from foliationlab import dsl

        items = gen.simple_towers(seed)
        for it in items:
            it["germ"] = dsl.parse_vector_field(it["text"])
            it["div"] = dsl.parse_divisor(it["divisor"], it["germ"].variables)
        return items

    def call(self, item):
        from foliationlab import classify, resolution

        report = classify.singularity_report(item["germ"], item["div"])
        return report, resolution.resolve_simple(item["germ"], item["div"])

    def show(self, result):
        report, tower = result
        return {"rc": 0, "out": render({"report": report.to_jsonable(), "tower": tower.to_jsonable()}), "err": ""}


class NevanlinnaProfiles:
    def build(self, seed):
        from foliationlab import dsl
        from foliationlab.quadrature import QuadConfig

        items = gen.nevanlinna_profiles(seed)
        gens = [dsl.parse_polynomial(v, ("x", "y")) for v in ("x", "y")]
        for it in items:
            it["curve"] = dsl.parse_curve(it["text"])
            it["gens"] = gens
            it["cfg"] = QuadConfig()
        return items

    def call(self, item):
        from foliationlab import nevanlinna as nv

        curve, radii, cfg = item["curve"], item["radii"], item["cfg"]
        check = item["check"]
        if check == "T":
            return nv.characteristic_T(curve, "fs", radii, cfg)
        if check == "taut":
            return nv.tautological_pairing(curve, radii, cfg)
        if check == "logderiv":
            return nv.log_derivative_check(curve.components[0], curve.zeros_for("f1"), radii, cfg)
        return nv.fmt_verify(curve, item["gens"], curve.zeros_for("ideal"), radii, cfg)

    def show(self, report):
        return {"rc": 0, "out": render(report.to_jsonable()), "err": ""}


class CliRequests:
    def build(self, seed):
        import foliationlab.cli  # noqa: F401

        return gen.cli_requests(seed)

    def call(self, item):
        from foliationlab import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(item["argv"]))
        return rc, out.getvalue(), err.getvalue()

    def show(self, result):
        rc, out, err = result
        return {"rc": rc, "out": out, "err": err}


WORKLOADS = {
    "seidenberg_corpus": SeidenbergCorpus,
    "simple_towers": SimpleTowers,
    "nevanlinna_profiles": NevanlinnaProfiles,
    "cli_requests": CliRequests,
}


def _setup(workload, seed, tracer=None):
    """Import the package and build the inputs; returns (items, import
    seconds, set-up interval in perf_counter ns)."""
    start = perf_counter_ns()
    import foliationlab  # noqa: F401

    import_s = (perf_counter_ns() - start) / 1e9
    if tracer is None:
        items = workload.build(seed)
    else:
        tracer.install()
        items = tracer.run_item("setup", workload.build, seed, layer="setup")
        tracer.uninstall()
    return items, import_s, (start, perf_counter_ns())


def _run_pass(workload, items, tracer=None):
    """One pass over every item; returns ((start, end) ns per item, results)."""
    intervals, results = [], []
    for idx, item in enumerate(items):
        start = perf_counter_ns()
        try:
            if tracer is None:
                res = workload.call(item)
            else:
                res = tracer.run_item(idx, workload.call, item)
        except Exception as exc:  # a failed item is a result to check, not a crash
            res = exc
        intervals.append((start, perf_counter_ns()))
        results.append(res)
    return intervals, results


def _show(workload, res):
    if isinstance(res, Exception):
        return {"rc": "exception", "out": "", "err": "%s: %s" % (type(res).__name__, res)}
    return workload.show(res)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def mode_setup(workload, seed, args):
    with SpeedSampler() as sampler:
        _items, _import_s, setup = _setup(workload, seed)
    return {"setup_ns": setup, "probes": sampler.samples}


def mode_measure(workload, seed, args):
    passes, outputs, digests, mismatches = [], [], [], []
    with SpeedSampler() as sampler:
        items, import_s, setup = _setup(workload, seed)
        start = perf_counter()
        while True:
            intervals, results = _run_pass(workload, items)
            passes.append(intervals)
            for idx, res in enumerate(results):
                out = _show(workload, res)
                if len(outputs) < len(items):
                    outputs.append(out)
                    digests.append(digest(out))
                elif digest(out) != digests[idx]:
                    mismatches.append(items[idx]["key"])
            if perf_counter() - start >= args.seconds:
                break
    return {
        "setup_ns": setup, "import_s": import_s, "n_items": len(items),
        "item_ns": passes, "probes": sampler.samples,
        "outputs": [dict(out, key=it["key"]) for it, out in zip(items, outputs)],
        "mismatches": mismatches, "peak_rss_mb": _peak_rss_mb(),
    }


def _busy_ns(intervals) -> int:
    return sum(end - start for start, end in intervals)


def mode_trace(workload, seed, args):
    tracer = layers.Tracer()
    items = _setup(workload, seed, tracer)[0]
    before = _busy_ns(_run_pass(workload, items)[0])
    tracer.install()
    intervals, results = _run_pass(workload, items, tracer)
    tracer.uninstall()
    after = _busy_ns(_run_pass(workload, items)[0])
    traced = _busy_ns(intervals)
    outputs = [dict(_show(workload, res), key=it["key"]) for it, res in zip(items, results)]
    spans_path = None
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        spans_path = out_dir / ("spans-%s-%d-%s.jsonl.gz" % (args.workload, seed, args.tag))
        tracer.write_spans(spans_path)
    return {
        "n_items": len(items), "outputs": outputs,
        "counts": dict(tracer.counts),
        "self_s": {layer: ns / 1e9 for layer, ns in tracer.self_ns.items()},
        "fn_self_s": {name: ns / 1e9 for name, ns in tracer.fn_self_ns.items() if name in layers.TRACKED},
        # untraced passes before and after the traced one bracket any drift
        "untraced_items_per_s": len(items) / ((before + after) / 2e9),
        "traced_items_per_s": len(items) / (traced / 1e9),
        "uncovered_frac": tracer.self_ns["item"] / traced,
        "n_spans": len(tracer.spans), "spans_file": str(spans_path) if spans_path else None,
    }


def mode_replay(workload, seed, args):
    """Per-operation cost of GaussRat and MVPoly arithmetic, from operands
    sampled during Seidenberg reductions of a seeded slice of the corpus."""
    from foliationlab.corpus import seidenberg_corpus
    from foliationlab.resolution import seidenberg_reduce

    germs = random.Random(seed).sample(seidenberg_corpus(seed=seed), REPLAY_GERMS)
    capture = layers.Capture(seed, REPLAY_SAMPLES)
    tracer = layers.Tracer()
    tracer.install(capture)
    for g in germs:
        seidenberg_reduce(g, SEIDENBERG_DEPTH)
    tracer.uninstall()
    return {
        "replay_ns": {key: capture.replay_ns(key) for key in layers.CAPTURED},
        "captured": {key: len(capture.samples[key]) for key in layers.CAPTURED},
    }


MODES = {"setup": mode_setup, "measure": mode_measure, "trace": mode_trace, "replay": mode_replay}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=sorted(MODES), required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--out", default=None, help="directory for span files (trace mode)")
    p.add_argument("--tag", default="a", help="suffix of the span file name")
    args = p.parse_args(argv)
    if not (SRC / "foliationlab").is_dir():
        # measure the checkout's sources, never an installed copy
        sys.stderr.write("error: no package sources at %s\n" % SRC)
        return 2
    result = MODES[args.mode](WORKLOADS[args.workload](), args.seed, args)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
