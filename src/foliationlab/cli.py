"""Command-line interface: parse the DSL, dispatch, emit JSON/CSV reports.

Exit codes: 0 success (including depth-exceeded results and --help); 1 a
usage error, a closed output pipe, or a `FoliationError` (the library's one
input error, `dsl.ParseError` included); 2 a refutation or self-test failure
that the handler returns; 3 any other exception, which is a fault of the
program.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from json.encoder import encode_basestring_ascii as _quote

from .gaussrat import GaussRat
from .foliation import FoliationError, LogDivisor
from . import blowup, classify, dsl, resolution, separatrix, unipoly

SCHEMA = "foliation-lab/1"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REFUTED = 2
EXIT_INTERNAL = 3


def _emit_json(command: str, result, out) -> None:
    """Write the report, to a byte stream in a loop: an unbuffered stdout's
    raw file may take part of a write, and a closed pipe raises on the next."""
    parts: list[str] = []
    _encode({"schema": SCHEMA, "command": command, "result": result}, parts, "\n")
    text = "".join(parts) + "\n"
    raw = getattr(out, "buffer", None)
    if raw is None:  # a text-only stream, such as io.StringIO
        out.write(text)
        return
    out.flush()
    data = memoryview(text.encode(out.encoding))
    while data:
        data = data[raw.write(data):]


def _encode(obj, parts: list[str], nl: str) -> None:
    """Append the text of json.dumps(obj, sort_keys=True, indent=2), nested
    at the line break nl, for str keys only; inf and nan, which JSON cannot
    carry, are written as the strings str(x)."""
    if isinstance(obj, str):
        parts.append(_quote(obj))
    elif obj is None or obj is True or obj is False:
        parts.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        parts.append(int.__repr__(obj))
    elif isinstance(obj, float):
        parts.append(float.__repr__(obj) if math.isfinite(obj) else _quote(str(obj)))
    elif isinstance(obj, dict):
        inner = nl + "  "
        for k, (key, value) in enumerate(sorted(obj.items())):
            parts.append("%s%s%s: " % ("," if k else "{", inner, _quote(key)))  # a key that is no str: TypeError
            _encode(value, parts, inner)
        parts.append(nl + "}" if obj else "{}")
    elif isinstance(obj, (list, tuple)):
        inner = nl + "  "
        for k, value in enumerate(obj):
            parts.append(("," if k else "[") + inner)
            _encode(value, parts, inner)
        parts.append(nl + "]" if obj else "[]")
    else:
        raise TypeError("Object of type %s is not JSON serializable" % type(obj).__name__)


def _emit_csv(rows, out) -> None:
    import csv as _csv

    w = _csv.writer(out)
    for row in rows:
        w.writerow(row)


def _parse_radii(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise dsl.ParseError("radii must be a:b:steps")
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise dsl.ParseError("bad radii %r: a and b are numbers, steps an integer" % spec) from None
    if n < 1 or not 0 < a <= b < math.inf:  # false for nan
        raise dsl.ParseError("bad radii range %r" % spec)
    radii = [a]
    if n > 1:
        ratio = (b / a) ** (1.0 / (n - 1))
        try:
            radii = [a * ratio**k for k in range(n)]
        except OverflowError:  # a power of the ratio past the largest float
            radii = [math.inf]
    if not all(map(math.isfinite, radii)):
        raise dsl.ParseError("radii grid %r is not finite" % spec)
    if a < 1:
        raise dsl.ParseError("radii grid %r starts below 1: every check needs r >= 1" % spec)
    return radii


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and shared by every later
    one; callers must not mutate it."""
    p = argparse.ArgumentParser(
        prog="foliation-lab",
        description="Singularity lab for holomorphic foliations by curves",
    )
    sub = p.add_subparsers(dest="verb", required=True)

    c = sub.add_parser("classify", help="full singularity taxonomy at the origin")
    c.add_argument("input")
    c.add_argument("--divisor", default=None)

    b = sub.add_parser("blowup", help="one point blow-up, all charts")
    b.add_argument("input")
    b.add_argument("--divisor", default=None)
    b.add_argument("--chart", type=int, default=None, help="1-based chart index")

    r = sub.add_parser("resolve", help="blow-up tower (seidenberg or simple)")
    r.add_argument("input")
    r.add_argument("--mode", choices=["seidenberg", "simple"], default="seidenberg")
    r.add_argument("--divisor", default=None)
    r.add_argument("--depth", type=int, default=resolution.DEFAULT_DEPTH)

    w = sub.add_parser("weakly-reduced", help="weakly-reduced certificate")
    w.add_argument("input")
    w.add_argument("--depth", type=int, default=resolution.DEFAULT_DEPTH)

    s = sub.add_parser("separatrix", help="formal separatrix machinery")
    s.add_argument("input")
    s.add_argument("--check", choices=["solve", "corner", "lift"], default="solve")
    s.add_argument("--direction", type=int, default=None, help="eigendirection index (sorted spectrum)")
    s.add_argument("--eigenvalue", default=None, help="choose direction by eigenvalue, e.g. '1' or 'i'")
    s.add_argument("--order", type=int, default=8)
    s.add_argument("--divisor", default=None)

    n = sub.add_parser("nevanlinna", help="Nevanlinna-layer numerics")
    n.add_argument("input", help="curve in the DSL")
    n.add_argument("--check", choices=["T", "jensen", "fmt", "taut", "logderiv"], required=True)
    n.add_argument("--ideal", default=None, help="ideal generators, e.g. 'x, y'")
    n.add_argument("--radii", default="2:16:4")
    n.add_argument("--form", choices=["fs", "euclid"], default=None, help="form of --check T (default fs)")
    n.add_argument("--tol", type=float, default=1e-8)
    n.add_argument("--format", choices=["json", "csv"], default="json", help="csv for --check T or fmt")
    n.add_argument("--series", choices=["T", "N", "m", "diff"], default=None,
                   help="emit a single (r, value) series of --check fmt as plot data")

    e = sub.add_parser("effectivity", help="diophantine effectivity count")
    e.add_argument("--dim", type=int, required=True)
    e.add_argument("--power", type=int, required=True)
    e.add_argument("--alpha", type=int, required=True)

    t = sub.add_parser("selftest", help="built-in consistency battery")
    t.add_argument("--seed", type=int, default=7)
    return p


def _divisor_for(args, germ) -> LogDivisor | None:
    if args.divisor is None:
        return None
    return dsl.parse_divisor(args.divisor, germ.variables)


def cmd_classify(args, out) -> int:
    germ = dsl.parse_vector_field(args.input)
    divisor = _divisor_for(args, germ)
    rep = classify.singularity_report(germ, divisor)
    _emit_json("classify", rep.to_jsonable(), out)
    return EXIT_OK


def cmd_blowup(args, out) -> int:
    germ = dsl.parse_vector_field(args.input)
    divisor = _divisor_for(args, germ)
    if args.chart is not None:
        blowup.check_chart(germ.dim(), args.chart - 1)
    entries = blowup.blow_up(germ, divisor)
    result = {}
    for sat, locus in entries if args.chart is None else [entries[args.chart - 1]]:
        entry = sat.to_jsonable()
        entry["raw_field"] = sat.raw_field.to_text()
        entry["singular_points_on_E"] = [[str(c) for c in pt] for pt in locus.points]
        entry["clusters"] = [] if locus.cluster is None else [unipoly.to_strings(locus.cluster)]
        entry["enumeration_complete"] = locus.complete
        result["c%d" % (sat.chart + 1)] = entry
    _emit_json("blowup", result, out)
    return EXIT_OK


def _check_depth(depth: int) -> None:
    if depth < 0:
        raise dsl.ParseError("--depth must be >= 0")


def cmd_resolve(args, out) -> int:
    _check_depth(args.depth)
    germ = dsl.parse_vector_field(args.input)
    if args.mode == "seidenberg":
        tower = resolution.seidenberg_reduce(germ, args.depth)
    else:
        divisor = _divisor_for(args, germ) or LogDivisor.empty()
        tower = resolution.resolve_simple(germ, divisor, args.depth)
    _emit_json("resolve", tower.to_jsonable(), out)
    return EXIT_OK


def cmd_weakly_reduced(args, out) -> int:
    _check_depth(args.depth)
    germ = dsl.parse_vector_field(args.input)
    cert = resolution.weakly_reduced_check(germ, args.depth)
    _emit_json("weakly-reduced", cert.to_jsonable(), out)
    return EXIT_REFUTED if cert.verdict == "refuted" else EXIT_OK


def cmd_separatrix(args, out) -> int:
    germ = dsl.parse_vector_field(args.input)
    divisor = _divisor_for(args, germ)
    if args.check == "corner":
        if divisor is None:
            raise FoliationError("corner check needs --divisor")
        rep = separatrix.corner_has_no_transverse_separatrix(germ, divisor)
        _emit_json("separatrix", rep.to_jsonable(), out)
        return EXIT_OK
    direction, lam = args.direction, None
    if direction is None and args.eigenvalue is not None:
        lam = dsl.parse_polynomial(args.eigenvalue, ()).constant_term()
        direction = separatrix.direction_of_eigenvalue(germ, lam)
    if direction is None:
        raise FoliationError("separatrix solve needs --direction or --eigenvalue")
    result = separatrix.formal_separatrix(germ, direction, args.order, lam)
    if isinstance(result, separatrix.Resonance):
        _emit_json("separatrix", result.to_jsonable(), out)
        return EXIT_OK
    if args.check == "lift":
        if divisor is None:
            raise FoliationError("lift check needs --divisor")
        lift = separatrix.separatrix_lift_check(germ, divisor, result)
        _emit_json("separatrix", lift.to_jsonable(), out)
        return EXIT_REFUTED if lift.outcome == "mismatch" else EXIT_OK
    _emit_json("separatrix", result.to_jsonable(), out)
    return EXIT_OK


def cmd_nevanlinna(args, out) -> int:
    from . import nevanlinna
    from .quadrature import QuadConfig

    if not 0 < args.tol < math.inf:  # false for nan
        raise dsl.ParseError("--tol must be a finite positive number")
    # each option given, the argument that decides whether it is read, and the values that read it
    for option, given, key, readers in (
        ("--format csv", args.format == "csv", "check", ("T", "fmt")),
        ("--series", args.series is not None, "check", ("fmt",)),
        ("--series", args.series is not None, "format", ("json",)),
        ("--ideal", args.ideal is not None, "check", ("fmt",)),
        ("--form", args.form is not None, "check", ("T",)),
    ):
        value = getattr(args, key)
        if given and value not in readers:
            raise dsl.ParseError("%s is for --%s %s, not %s" % (option, key, " or ".join(readers), value))
    curve = dsl.parse_curve(args.input)
    cfg = QuadConfig(tol=args.tol)
    radii = _parse_radii(args.radii)
    check = args.check
    if check == "T":
        prof = nevanlinna.characteristic_T(curve, args.form or "fs", radii, cfg)
        if args.format == "csv":
            _emit_csv(prof.csv_rows(), out)
        else:
            _emit_json("nevanlinna", {"check": "T", "profile": prof.to_jsonable()}, out)
        return EXIT_OK
    if check == "jensen":
        zeros = curve.zeros_for("f1")
        reports = nevanlinna.jensen_verify(curve.components[0], zeros, radii, cfg)
        bounded = [rep for rep in reports if math.isfinite(rep.quadrature_bound)]  # an infinite bound refutes nothing
        worst = max((rep.residual - rep.quadrature_bound for rep in bounded), default=None)
        floor = args.tol * max((max(1.0, abs(rep.average_r), abs(rep.average_1)) for rep in bounded), default=1.0)
        _emit_json("nevanlinna", {"check": "jensen", "reports": [rep.to_jsonable() for rep in reports],
                                  "max_excess_residual": worst}, out)
        return EXIT_REFUTED if worst is not None and worst > floor else EXIT_OK  # past its bound: an undeclared zero
    if check == "fmt":
        if args.ideal is None:
            raise FoliationError("fmt check needs --ideal")
        if curve.dim() > 4:
            raise dsl.ParseError("--ideal names one variable per component (x, y, z, w), so a curve with %d "
                                 "components has no name for its fifth" % curve.dim())
        gens = dsl.parse_ideal(args.ideal, ("x", "y", "z", "w")[:curve.dim()])
        zeros = curve.zeros_for("ideal")
        rep = nevanlinna.fmt_verify(curve, gens, zeros, radii, cfg)
        if args.format == "csv":
            rows = rep.profile.csv_rows()
            _emit_csv(rows, out)
        elif args.series:
            prof = rep.profile
            series = {"T": prof.T, "N": prof.N, "m": prof.m, "diff": rep.differences}[args.series]
            _emit_csv([["r", args.series]] + [[r, v] for r, v in zip(prof.r_grid, series)], out)
        else:
            _emit_json("nevanlinna", rep.to_jsonable(), out)
        return EXIT_OK if rep.passed else EXIT_REFUTED
    if check == "taut":
        rep = nevanlinna.tautological_pairing(curve, radii, cfg)
        _emit_json("nevanlinna", rep.to_jsonable(), out)
        return EXIT_REFUTED if rep.violation else EXIT_OK
    # logderiv, the last of the parser's choices
    zeros = curve.zeros_for("f1")
    rep = nevanlinna.log_derivative_check(curve.components[0], zeros, radii, cfg)
    _emit_json("nevanlinna", rep.to_jsonable(), out)
    return EXIT_OK if rep.passed else EXIT_REFUTED


def cmd_effectivity(args, out) -> int:
    res = blowup.effectivity_count(args.dim, args.power, args.alpha)
    if isinstance(res, blowup.SectionExists):
        doc = {"outcome": "section_exists", "surplus": res.count, "degree": res.degree,
               "dimension_count": res.dimension_count, "constraints": res.constraints}
    else:
        doc = {"outcome": "no_section", "degree": res.degree,
               "dimension_count": res.dimension_count, "constraints": res.constraints}
    _emit_json("effectivity", doc, out)
    return EXIT_OK


def cmd_selftest(args, out) -> int:
    import random

    from . import nevanlinna
    from .corpus import oneform_corpus
    from .exprtree import Poly
    from .foliation import VectorFieldGerm, is_singular_at_origin
    from .mvpoly import MVPoly

    failures = []
    # Siu divisibility battery
    for variables, coeffs in oneform_corpus(100, seed=args.seed):
        for j in range(len(variables)):
            try:
                blowup.pullback_one_form(coeffs, j)
            except blowup.InternalError as exc:
                failures.append("siu: %s" % exc)
    # Jensen convention pin: P = t - 2 at r = 4
    jr, = nevanlinna.jensen_verify(Poly([GaussRat(-2), GaussRat(1)]), [(GaussRat(2), 1)], [4.0])
    if jr.residual > 1e-6:
        failures.append("jensen convention residual %.2e" % jr.residual)
    # chart compatibility at random rational points
    rng = random.Random(args.seed)
    vs = ("x", "y")
    for _ in range(25):
        comps = []
        for _c in range(2):
            terms = {}
            for _t in range(rng.randrange(1, 4)):
                e = (rng.randrange(0, 3), rng.randrange(0, 3))
                if 1 <= sum(e) <= 3:
                    terms[e] = GaussRat(rng.choice([1, -1, 2, -2]))
            comps.append(MVPoly(vs, terms))
        germ = VectorFieldGerm(vs, comps)
        if not is_singular_at_origin(germ) or all(c.is_zero() for c in comps):
            continue
        if not _charts_compatible(germ):
            failures.append("chart compatibility: %s" % germ.to_text())
    doc = {"failures": failures, "passed": not failures}
    _emit_json("selftest", doc, out)
    return EXIT_OK if not failures else EXIT_REFUTED


def _charts_compatible(germ) -> bool:
    """Saturated transforms in both charts push forward to proportional
    ambient vectors at matching rational points."""
    from fractions import Fraction

    sats = [blowup.transform_vector_field(germ, j) for j in range(2)]
    samples = [
        (GaussRat(Fraction(1, 3)), GaussRat(2)),
        (GaussRat(Fraction(-1, 2)), GaussRat(Fraction(3, 4))),
        (GaussRat(2), GaussRat(Fraction(-2, 5))),
    ]

    def ambient_vector(sat, point):
        j, vec = sat.chart, sat.saturated_field.evaluate(point)
        return [vec[j] if i == j else vec[i] * point[j] + point[i] * vec[j] for i in range(2)]

    for (u, w) in samples:  # u, w != 0
        p0 = (u, w)
        p1 = (GaussRat(1) / w, u * w)  # the ambient point (u, u*w) of chart 1 in chart 2
        v0 = ambient_vector(sats[0], p0)
        v1 = ambient_vector(sats[1], p1)
        cross = v0[0] * v1[1] - v0[1] * v1[0]
        if not cross.is_zero():
            return False
    return True


HANDLERS = {
    "classify": cmd_classify,
    "blowup": cmd_blowup,
    "resolve": cmd_resolve,
    "weakly-reduced": cmd_weakly_reduced,
    "separatrix": cmd_separatrix,
    "nevanlinna": cmd_nevanlinna,
    "effectivity": cmd_effectivity,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        code = HANDLERS[args.verb](args, sys.stdout)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except FoliationError as exc:  # input the library refuses, ParseError included
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_ERROR
    except BrokenPipeError:  # the reader stopped reading: no fault, nothing left to report
        sys.stdout = open(os.devnull, "w")  # the interpreter's last flush goes nowhere
        return EXIT_ERROR
    except Exception as exc:  # every other exception is a fault of the program
        sys.stderr.write("internal error: %s: %s\n" % (type(exc).__name__, exc))
        return EXIT_INTERNAL


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
