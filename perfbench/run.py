"""Benchmark for foliation-lab: seeded workloads over the exact (Q(i)) and
float (Nevanlinna) engines, with every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it reports the end-to-end metrics, measured with no
tracing: set-up time (median of several fresh processes), items per
second, median and tail item latency, and peak resident memory.  With
``--trace 1`` it reports per-layer counters, self times and replayed
operation costs from two traced processes, and fails unless their counts
agree exactly.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it say what ran.

Each workload is a closed loop with one client: the next item starts when
the previous one returns.  Every process is single-threaded, with BLAS and
OpenMP pinned to one thread.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import re
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402

WORKLOADS = ("seidenberg_corpus", "simple_towers", "nevanlinna_profiles", "cli_requests")
GENERATORS = {
    "simple_towers": gen.simple_towers,
    "nevanlinna_profiles": gen.nevanlinna_profiles,
    "cli_requests": gen.cli_requests,
}
SETUP_PROCESSES = 5  # set-up is timed in this many fresh processes; the median is reported
CHILD_TIMEOUT_S = 170
SPANS_DIR = ROOT / ".perfbench-out"
PINS = HERE / "pins.json"
PIN_SEEDS = range(10)  # pins.json holds a pin for every pinned output of these seeds
# Times are scaled by a speed probe (a fixed standard-library computation the
# child runs every few milliseconds) to the speed at which the probe takes
# this long, so that the slowdowns of a shared machine cancel out.
PROBE_REF_NS = 100_000
PROBE_WINDOW_NS = 50_000_000  # probes this close to an item set its speed
THREAD_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "setup_s": "s", "items_per_s": "1/s", "item_p50_ms": "ms", "item_tail_ms": "ms", "peak_rss_mb": "MB",
}

# counters named after calls, counted in every traced run
CALL_COUNTERS = (
    "gaussrat.add", "gaussrat.mul", "gaussrat.div", "mvpoly.mul", "mvpoly.subs",
    "linalg.char_poly", "linalg.eigenvalues_exact", "unipoly.gaussian_rational_roots", "unipoly.poly_eval",
    "polygcd.bivariate_gcd", "foliation.translate_to_point", "blowup.transform_vector_field",
    "blowup.singular_points_on_E", "classify.classify_reduced", "classify.is_dicritical",
    "classify.bounded_ais_probe", "classify.singularity_report", "quadrature.circle_mean",
    "nevanlinna.characteristic_on_grid", "dsl.parse", "cli.main", "separatrix.formal_separatrix",
    "series.mul", "monomial.simplex_min",
)
WORK_COUNTERS = ("resolution.blowups", "resolution.terminals", "exprtree.points", "quadrature.evaluations")
LAYER_SELF = (
    "mvpoly", "linalg", "unipoly", "polygcd", "foliation", "blowup", "classify", "resolution", "exprtree",
    "quadrature", "nevanlinna", "dsl", "cli", "separatrix", "series", "monomial", "corpus",
)
FUNCTION_SELF = (
    "linalg.char_poly", "unipoly.gaussian_rational_roots", "blowup.transform_vector_field",
    "blowup.singular_points_on_E", "classify.is_dicritical", "classify.bounded_ais_probe",
)
REPLAYED = ("gaussrat.add", "gaussrat.mul", "gaussrat.div", "mvpoly.mul", "mvpoly.subs")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PIN)
    return env


def run_child(workload, seed, mode, *extra) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed), "--mode", mode,
           *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("%s child timed out after %ss" % (mode, exc.timeout)) from exc
    if proc.returncode != 0:
        raise BenchError("%s child exited %d:\n%s" % (mode, proc.returncode, proc.stderr[-3000:]))
    return json.loads(proc.stdout.splitlines()[-1])


def percentile(values, p):
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = p / 100.0 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(items: int) -> float:
    """The highest percentile, to 0.1, with at least ten of ``items``
    latencies beyond it.  Fixed by the item count, so every run of a
    workload reports the same percentile whatever the number of passes."""
    return math.floor(1000.0 * (1.0 - 10.0 / items)) / 10.0


# -- checking ----------------------------------------------------------------------


def item_facts(workload, seed, outputs) -> list[dict]:
    """The generator's facts about each input the child ran.  The Seidenberg
    corpus is built by the package itself and has no facts beyond its key."""
    if workload not in GENERATORS:
        return [{"key": o["key"]} for o in outputs]
    facts = GENERATORS[workload](seed)
    if [f["key"] for f in facts] != [o["key"] for o in outputs]:
        raise BenchError("child ran other inputs than the generator made")
    return facts


class Tally:
    """Per-item check outcomes, weighted by how often the item was attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0  # failures that count against the benchmark run
        self.failed_items = 0  # every failure, documented defects included
        self.undecided = 0
        self.pinned = 0  # outputs compared with a pinned sha256
        self.lines: list[str] = []


def is_known_defect(item, status, reason) -> bool:
    """The item is a documented defect and shows exactly its symptom."""
    return (item.get("defect") == status
            and re.fullmatch(item["defect_symptom"], reason) is not None)


def check_outputs(workload, seed, outputs, attempts, tally, mismatched=()):
    """Check one pass worth of outputs; each stands for ``attempts`` runs."""
    facts = item_facts(workload, seed, outputs)
    pins = json.loads(PINS.read_text()).get(workload, {})
    oracle = checks.EigenOracle()
    for item, out in zip(facts, outputs):
        status, reason = checks.check_output(workload, item, out, oracle)
        defect = item.get("defect")
        if status == checks.OK and defect is None and checks.pinned_output(workload, item):
            pin = pins.get(checks.pin_key(item["key"]))
            if pin is not None:
                tally.pinned += 1
                if pin != checks.pin_value(out["out"]):
                    status, reason = checks.FAILED, "output bytes differ from the pinned sha256"
            elif seed in PIN_SEEDS:
                status, reason = checks.FAILED, "no pinned sha256 for this output of a pinned seed"
        tally.attempted += attempts
        if status == checks.FAILED:
            tally.failed_items += attempts
        elif status == checks.UNDECIDED:
            tally.undecided += attempts
        if status != checks.OK:
            known = is_known_defect(item, status, reason)
            if not known:
                tally.failed += attempts if status == checks.FAILED else 0
            tally.lines.append("%s%s: %s  <- %s" % (status, " (known defect)" if known else "", reason,
                                                    item["key"][:160]))
        elif defect is not None:
            tally.lines.append("fixed known defect: %s" % item["key"][:160])
    for key in mismatched:
        tally.failed += 1
        tally.failed_items += 1
        tally.lines.append("failed: output changed between passes  <- %s" % key[:160])


# -- runs --------------------------------------------------------------------------


def provenance(workload, seed, n_items) -> str:
    return ("workload=%s seed=%d items_per_pass=%d python=%s numpy=%s sympy=%s nproc=%d "
            "threads=1 (%s) loop=closed,1 client"
            % (workload, seed, n_items, sys.version.split()[0], metadata.version("numpy"),
               metadata.version("sympy"), os.cpu_count(), ",".join(THREAD_PIN)))


class SpeedScale:
    """Scales an interval's duration to reference speed, from the speed
    probes the child ran every few milliseconds (see child.SpeedSampler)."""

    def __init__(self, probes):
        self.starts = [start for start, _ in probes]
        self.durations = [duration for _, duration in probes]

    def __call__(self, start, end) -> float:
        """Milliseconds at reference speed: the interval minus the probes
        inside it, scaled by the median probe time within PROBE_WINDOW_NS."""
        inside = sum(self.durations[bisect.bisect_left(self.starts, start):bisect.bisect_left(self.starts, end)])
        around = self.durations[bisect.bisect_left(self.starts, start - PROBE_WINDOW_NS):
                                bisect.bisect_left(self.starts, end + PROBE_WINDOW_NS)]
        if not around:
            raise BenchError("no speed probe ran near an item")
        return (end - start - inside) / 1e6 * PROBE_REF_NS / statistics.median(around)

    def wall(self, start, end) -> float:
        """Milliseconds of wall clock, minus the probes inside the interval."""
        inside = sum(self.durations[bisect.bisect_left(self.starts, start):bisect.bisect_left(self.starts, end)])
        return (end - start - inside) / 1e6


def end_to_end(args) -> tuple[dict, Tally, list[str]]:
    setups = [run_child(args.workload, args.seed, "setup") for _ in range(SETUP_PROCESSES - 1)]
    m = run_child(args.workload, args.seed, "measure", "--seconds", str(args.seconds))
    setups.append(m)
    passes = m["item_ns"]
    tally = Tally()
    check_outputs(args.workload, args.seed, m["outputs"], len(passes), tally, m["mismatches"])
    # An item's latency is its median over the passes, at reference speed;
    # the metrics describe the distribution of these per-item latencies.
    scale = SpeedScale(m["probes"])
    per_item = [statistics.median(scale(*iv) for iv in runs) for runs in zip(*passes)]
    wall = [statistics.median(scale.wall(*iv) for iv in runs) for runs in zip(*passes)]
    setup_scales = [(SpeedScale(s["probes"]), s["setup_ns"]) for s in setups]
    p_tail = tail_percentile(len(per_item))
    metrics = {
        "setup_s": statistics.median(sc(*iv) / 1e3 for sc, iv in setup_scales),
        "items_per_s": len(per_item) / (sum(per_item) / 1e3),
        "item_p50_ms": percentile(per_item, 50.0),
        "item_tail_ms": percentile(per_item, p_tail),
        "peak_rss_mb": m["peak_rss_mb"],
    }
    lines = [
        provenance(args.workload, args.seed, m["n_items"]),
        "passes=%d; an item's latency is its median over the passes; item_tail_ms is p%g of %d items, "
        "%d beyond it" % (len(passes), p_tail, len(per_item), sum(1 for x in per_item if x > metrics["item_tail_ms"])),
        "times are at reference speed (speed probe = %d us); %d probes took %.1f us median, %.1f us min"
        % (PROBE_REF_NS // 1000, len(scale.durations), statistics.median(scale.durations) / 1e3,
           min(scale.durations) / 1e3),
        "wall clock: items_per_s=%.5g item_p50_ms=%.5g item_tail_ms=%.5g setup_s=%.5g (import %.4g s)"
        % (len(wall) / (sum(wall) / 1e3), percentile(wall, 50.0), percentile(wall, p_tail),
           statistics.median(sc.wall(*iv) / 1e3 for sc, iv in setup_scales), m["import_s"]),
    ]
    return metrics, tally, lines


def per_layer(args) -> tuple[dict, Tally, list[str]]:
    SPANS_DIR.mkdir(exist_ok=True)
    runs = [run_child(args.workload, args.seed, "trace", "--out", str(SPANS_DIR), "--tag", tag) for tag in "ab"]
    replay = run_child(args.workload, args.seed, "replay")
    a, b = runs
    tally = Tally()
    changed = [oa["key"] for oa, ob in zip(a["outputs"], b["outputs"]) if oa != ob]
    check_outputs(args.workload, args.seed, a["outputs"], 2, tally, changed)
    lines = [provenance(args.workload, args.seed, a["n_items"])]
    if a["counts"] != b["counts"]:
        keys = sorted(k for k in set(a["counts"]) | set(b["counts"]) if a["counts"].get(k) != b["counts"].get(k))
        tally.failed += 1
        lines.append("failed: counters differ between two traced runs of one seed: %s" % ", ".join(keys[:20]))
    counts = a["counts"]
    metrics = {}
    for name in CALL_COUNTERS:
        metrics[name + ".calls"] = counts.get(name + ".calls", 0)
    for name in WORK_COUNTERS:
        metrics[name] = counts.get(name, 0)
    roots = counts.get("unipoly.gaussian_rational_roots.calls", 0)
    means = counts.get("quadrature.circle_mean.calls", 0)
    metrics["unipoly.roots.split_ratio"] = counts.get("unipoly.roots.split", 0) / roots if roots else 0.0
    metrics["quadrature.converged_ratio"] = counts.get("quadrature.converged", 0) / means if means else 0.0
    for layer in LAYER_SELF:
        metrics[layer + ".self_s"] = a["self_s"].get(layer, 0.0)
    for name in FUNCTION_SELF:
        metrics[name + ".self_s"] = a["fn_self_s"].get(name, 0.0)
    for name in REPLAYED:
        metrics[name + "_ns"] = replay["replay_ns"][name]
    metrics["trace.overhead_frac"] = 1.0 - a["traced_items_per_s"] / a["untraced_items_per_s"]
    metrics["trace.uncovered_frac"] = a["uncovered_frac"]
    lines.append("traced items/s %.4g vs untraced %.4g; %d spans in %s"
                 % (a["traced_items_per_s"], a["untraced_items_per_s"], a["n_spans"], a["spans_file"]))
    lines.append("replayed operands: %s" % replay["captured"])
    return metrics, tally, lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if "FOLIATION_LAB_BUDGET" in os.environ:
        # The README says it caps each quadrature call, characteristic_on_grid
        # applies it to the total: with it set the program is undefined.
        sys.stderr.write("error: FOLIATION_LAB_BUDGET is set; unset it to run the benchmark\n")
        return 2
    try:
        metrics, tally, lines = (per_layer if args.trace else end_to_end)(args)
    except BenchError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    rates = {
        "failed_frac": tally.failed_items / tally.attempted,
        "undecided_frac": tally.undecided / tally.attempted,
    }
    lines.append("failed_frac=%.6g undecided_frac=%.6g over %d attempts; %d outputs compared with pinned sha256"
                 % (rates["failed_frac"], rates["undecided_frac"], tally.attempted, tally.pinned))
    if args.trace:
        metrics.update(rates)
    for line in lines + tally.lines:
        print(line)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": END_TO_END.get(k) or unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ns"):
        return "ns"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
