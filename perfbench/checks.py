"""Checks of program outputs against references that are not the code under
test.

References: sympy's exact eigenvalues of the generated linear parts, the
simple-point definition applied to those eigenvalues, closed forms (Jensen's
formula from the declared zeros, the characteristic of exp(a t) and of a
polynomial, the log-derivative of exp(a t), the separatrix of a linear
field plus one x^2 term), the acceptance tolerances, the expected exit codes,
and sha256 pins of exact-engine JSON that passed every other check.

Each check returns (status, reason) with status ``ok``, ``undecided`` (the
program answered indeterminate/unknown/blocked where the reference decides)
or ``failed``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from fractions import Fraction

OK, UNDECIDED, FAILED = "ok", "undecided", "failed"

SEIDENBERG_DEPTH = 8
JENSEN_TOL = 1e-6
FMT_SLOPE_TOL = 0.05
TAUT_TREND_TOL = -1e-3
EXP_SLOPE_RTOL = 0.01
POLY_SLOPE_RTOL = 0.05
SIMPLE_KINDS = ("simple_point_A", "simple_point_B", "simple_corner")
EXACT_VERBS = ("classify", "blowup", "resolve", "weakly-reduced", "separatrix", "effectivity", "selftest")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def pin_key(key: str) -> str:
    """Pins are keyed by the sha256 of the input text, cut to 48 bits."""
    return sha256(key)[:12]


def pin_value(out: str) -> str:
    """A pinned output is its sha256, cut to 64 bits."""
    return sha256(out)[:16]


def parse_gauss(text: str) -> tuple[Fraction, Fraction]:
    """Inverse of GaussRat.__str__ ("3", "-1/5", "-i", "2*i", "4/65+7/65*i")."""
    if "i" not in text:
        return Fraction(text), Fraction(0)
    cut = max(text.rfind("+"), text.rfind("-"))
    re_part, im_part = (text[:cut], text[cut:]) if cut > 0 else ("0", text)
    im_part = im_part[:-1].rstrip("*")
    im = {"": 1, "+": 1, "-": -1}.get(im_part)
    return Fraction(re_part), Fraction(im) if im is not None else Fraction(im_part)


def _gauss(z) -> tuple[Fraction, Fraction]:
    return Fraction(z[0]), Fraction(z[1])


def ratio_in_q_plus(lam, mu) -> bool:
    """mu / lam is a positive rational: mu * conj(lam) is real and > 0."""
    re = mu[0] * lam[0] + mu[1] * lam[1]
    im = mu[1] * lam[0] - mu[0] * lam[1]
    return im == 0 and re > 0


class EigenOracle:
    """sympy eigenvalues of Gaussian-integer matrices, cached per matrix."""

    def __init__(self):
        self._cache = {}

    def __call__(self, matrix):
        key = tuple(tuple(tuple(z) for z in row) for row in matrix)
        if key not in self._cache:
            import sympy

            m = sympy.Matrix([[sympy.Integer(a) + sympy.I * b for a, b in row] for row in key])
            values = []
            for val, mult in m.eigenvals().items():
                re, im = sympy.re(val), sympy.im(val)
                if not (re.is_Rational and im.is_Rational):
                    values = None
                    break
                values += [(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))] * mult
            self._cache[key] = sorted(values) if values is not None else None
        return self._cache[key]


def _check_eigenvalues(ev_json, matrix, oracle):
    ref = oracle(matrix)
    if ev_json["indeterminate"]:
        if ref is not None:
            return UNDECIDED, "eigenvalues indeterminate; sympy finds %s" % [str(complex(*map(float, z))) for z in ref]
        return OK, ""
    got = sorted(parse_gauss(s) for s in ev_json["values"])
    if ref is None or got != ref:
        return FAILED, "eigenvalues %s differ from sympy %s" % (ev_json["values"], ref)
    return OK, ""


def reference_simple_kind(matrix, axes) -> str:
    """Simple point / corner by definition, from the (triangular) linear
    part's diagonal: the eigenvalues along the divisor axes."""
    eigs = [_gauss(matrix[i][i]) for i in range(len(matrix))]
    if len(axes) >= 2:
        lams = [eigs[a] for a in axes]
        if any(not ratio_in_q_plus(p, q) for p in lams for q in lams if p is not q):
            return "simple_corner"
        return "not_simple"
    lam = eigs[axes[0]]
    others = eigs[:axes[0]] + eigs[axes[0] + 1:]
    if lam in others or any(ratio_in_q_plus(lam, mu) for mu in others):
        return "not_simple"
    return "simple_point_B"


def _worst(*results):
    for status in (FAILED, UNDECIDED):
        for res in results:
            if res[0] == status:
                return res
    return OK, ""


# -- exact engine ------------------------------------------------------------------


def check_seidenberg_tower(tower) -> tuple[str, str]:
    """Acceptance criterion 1: complete within depth 8, every terminal reduced."""
    if tower["status"] != "complete":
        return (UNDECIDED if tower["status"] == "blocked" else FAILED), "tower %s: %s" % (tower["status"], tower["reason"])
    if any(ev["level"] + 1 > SEIDENBERG_DEPTH for ev in tower["events"]):
        return FAILED, "blow-up level past %d" % SEIDENBERG_DEPTH
    if not all(t["reduced"] for t in tower["terminal_singularities"]):
        return FAILED, "a terminal singularity is not reduced"
    return OK, ""


def check_simple_tower(doc, item, oracle):
    report, tower = doc["report"], doc["tower"]
    ev = _check_eigenvalues(report["eigenvalues"], item["matrix"], oracle)
    want = reference_simple_kind(item["matrix"], item["axes"])
    kind = (report["simple_status"] or {}).get("kind")
    simple = (OK, "") if kind == want else (FAILED, "simple status %s, definition gives %s" % (kind, want))
    if tower["status"] == "blocked":
        st = UNDECIDED, "tower blocked: %s" % tower["reason"]
    elif tower["status"] != "complete":
        st = FAILED, "tower %s" % tower["status"]
    elif not all((t["simple_status"] or {}).get("kind") in SIMPLE_KINDS for t in tower["terminal_singularities"]):
        st = FAILED, "a terminal point is not simple"
    else:
        st = OK, ""
    return _worst(ev, simple, st)


def check_separatrix(doc, item):
    """lam x d/dx + (mu y + kappa x^2) d/dy has the invariant curve
    y = kappa x^2 / (2 lam - mu) tangent to the lam-eigendirection."""
    lam, mu = _gauss(item["matrix"][0][0]), _gauss(item["matrix"][1][1])
    kappa = _gauss(item["kappa"])
    d = (2 * lam[0] - mu[0], 2 * lam[1] - mu[1])
    n = d[0] * d[0] + d[1] * d[1]
    c = ((kappa[0] * d[0] + kappa[1] * d[1]) / n, (kappa[1] * d[0] - kappa[0] * d[1]) / n)
    order = item["order"]
    want = [[(0, 0), (1, 0)] + [(0, 0)] * (order - 1), [(0, 0), (0, 0), c] + [(0, 0)] * (order - 2)]
    got = [[parse_gauss(s) for s in comp] for comp in doc.get("components", [])]
    if got != [[tuple(map(Fraction, z)) for z in comp] for comp in want]:
        return FAILED, "separatrix differs from y = %s x^2" % (c,)
    return OK, ""


# -- float engine ------------------------------------------------------------------


def _modulus(z) -> float:
    return math.hypot(z[0], z[1])


def check_jensen(reports, zeros, lead):
    """mean of log|P|^2 on |t| = r is 2 (log|lead| + sum_k log max(r, |z_k|))."""
    for rep in reports:
        for r, avg in ((rep["r"], rep["average_r"]), (1.0, rep["average_1"])):
            want = 2.0 * (math.log(_modulus(lead)) + sum(math.log(max(r, _modulus(z))) for z in zeros))
            if abs(avg - want) > JENSEN_TOL:
                return FAILED, "Jensen mean at r=%g is %.12g, closed form %.12g" % (r, avg, want)
    return OK, ""


def check_T(prof, item):
    """T(r) of exp(a t) grows like |a| r / pi; of a degree-d polynomial, like d log r."""
    if any(prof["diverged"]):
        return UNDECIDED, "characteristic diverged at some radius"
    r, T = prof["r"], prof["T"]
    if "rates" in item:
        want = _modulus(item["rates"][0]) / math.pi
        got = (T[-1] - T[-2]) / (r[-1] - r[-2])
        tol = EXP_SLOPE_RTOL
    else:
        want = len(item["zeros"])
        got = (T[-1] - T[-2]) / math.log(r[-1] / r[-2])
        tol = POLY_SLOPE_RTOL
    if abs(got - want) > tol * want:
        return FAILED, "T slope %.6g, closed form %.6g" % (got, want)
    return OK, ""


def check_taut(rep, item):
    if "rates" not in item:
        return (OK, "") if not rep["applicable"] else (FAILED, "algebraic curve reported applicable")
    if not rep["applicable"] or rep["trend"] is None:
        return FAILED, "transcendental curve reported not applicable"
    if rep["trend"] < TAUT_TREND_TOL or rep["violation"]:
        return FAILED, "tautological trend %.6g below %g" % (rep["trend"], TAUT_TREND_TOL)
    return OK, ""


def check_logderiv(rep, item):
    """m(r, g'/g) is log+|a| for g = exp(a t); for a polynomial it is 0 once
    sum_k 1/(r - |z_k|) < 1 on the circle."""
    for r, lhs in zip(rep["r_grid"], rep["lhs"]):
        if "rates" in item:
            want = max(0.0, math.log(_modulus(item["rates"][0])))
        elif sum(1.0 / (r - _modulus(z)) for z in item["zeros"]) < 1.0:
            want = 0.0
        else:
            continue
        if abs(lhs - want) > JENSEN_TOL:
            return FAILED, "log-derivative mean at r=%g is %.12g, closed form %.12g" % (r, lhs, want)
    return OK, ""


def check_fmt(rep):
    if any(rep["profile"]["diverged"]):
        return UNDECIDED, "characteristic diverged at some radius"
    if abs(rep["slope_vs_log_r"]) > FMT_SLOPE_TOL or not rep["passed"]:
        return FAILED, "FMT slope %.6g outside +-%g" % (rep["slope_vs_log_r"], FMT_SLOPE_TOL)
    return OK, ""


def check_fmt_csv(text, ideal_zeros):
    """CLI csv rows r,T,N,m,bound: N against the counting function of the
    declared zeros, and the least-squares slope of T - N - m in log r."""
    rows = [list(map(float, row)) for row in list(csv.reader(io.StringIO(text)))[1:]]
    xs, ys = [], []
    for r, T, N, m, _bound in rows:
        want = sum(k * (math.log(r) if _modulus(z) == 0 else math.log(r / _modulus(z)))
                   for z, k in ideal_zeros if _modulus(z) < r)
        if abs(N - want) > JENSEN_TOL:
            return FAILED, "N(%g) = %.12g, counting function %.12g" % (r, N, want)
        xs.append(math.log(r))
        ys.append(T - N - m)
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
    if abs(slope) > FMT_SLOPE_TOL:
        return FAILED, "FMT slope %.6g outside +-%g" % (slope, FMT_SLOPE_TOL)
    return OK, ""


def check_profile(workload_item, out):
    doc = json.loads(out["out"])
    check = workload_item["check"]
    if check == "T":
        return check_T(doc, workload_item)
    if check == "taut":
        return check_taut(doc, workload_item)
    if check == "logderiv":
        return check_logderiv(doc, workload_item)
    return check_fmt(doc)


# -- command line ------------------------------------------------------------------


def check_cli(item, out, oracle):
    if out["rc"] != item["rc"]:
        return FAILED, "exit %s, expected %s: %s" % (out["rc"], item["rc"], out["err"].strip()[:200])
    if out["rc"] != 0 or "--format" in item["argv"]:
        return (check_fmt_csv(out["out"], item["ideal_zeros"]) if "ideal_zeros" in item else (OK, ""))
    result = json.loads(out["out"])["result"]
    verb = item["argv"][0]
    if verb == "classify":
        dic = (UNDECIDED, "dicriticality unavailable") if result["dicritical"] is None else (OK, "")
        ev = _check_eigenvalues(result["eigenvalues"], item["matrix"], oracle) if "matrix" in item else (OK, "")
        return _worst(ev, dic)
    if verb == "resolve" and item.get("seidenberg"):
        return check_seidenberg_tower(result)
    if verb == "resolve":
        return (OK, "") if result["status"] == "complete" else (UNDECIDED, "tower %s" % result["status"])
    if verb == "weakly-reduced" and "matrix" in item:
        return (OK, "") if result["verdict"] == "certified" else (FAILED, "verdict %s" % result["verdict"])
    if verb == "separatrix" and "kappa" in item:
        return check_separatrix(result, item)
    if verb == "selftest":
        return (OK, "") if result["passed"] else (FAILED, "selftest failures %s" % result["failures"])
    if verb == "nevanlinna":
        kind = item["argv"][3]  # nevanlinna CURVE --check KIND
        if kind == "jensen":
            return check_jensen(result["reports"], item["zeros"], item["lead"])
        if kind == "T":
            return check_T(result["profile"], item)
        if kind == "taut":
            return check_taut(result, item)
    return OK, ""


def check_output(workload, item, out, oracle):
    """Status of one output of one item."""
    if out["rc"] == "exception":
        return FAILED, out["err"]
    if workload == "cli_requests":
        return check_cli(item, out, oracle)
    if workload == "seidenberg_corpus":
        return check_seidenberg_tower(json.loads(out["out"]))
    if workload == "simple_towers":
        return check_simple_tower(json.loads(out["out"]), item, oracle)
    return check_profile(item, out)


PINNED_WORKLOADS = ("seidenberg_corpus", "simple_towers", "cli_requests")


def pinned_output(workload, item) -> bool:
    """Exact-engine outputs are pinned byte for byte; float outputs are not."""
    if workload == "cli_requests":
        return item["argv"][0] in EXACT_VERBS
    return workload in PINNED_WORKLOADS
