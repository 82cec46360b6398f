"""Seeded inputs for the benchmark workloads.

Standard library only: the parent process imports this module to compute
reference answers without importing the package under test.  Every
generator is a pure function of its seed.

Each item is a dict with a stable ``key`` (the input as text), the data the
child needs to run it, and the facts the checks need (linear parts as
Gaussian-integer matrices, declared zeros, expected exit codes).
"""

from __future__ import annotations

import random

VARS = ("x", "y", "z", "w")
UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def gauss_text(z) -> str:
    a, b = z
    if b == 0:
        return "(%d)" % a
    return "(%d %s %d*i)" % (a, "+" if b > 0 else "-", abs(b))


def _gmul(z, w):
    return (z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0])


def _rotate(z, unit, conj):
    if conj:
        z = (z[0], -z[1])
    return _gmul(z, unit)


def field_text(matrix, perturbations) -> str:
    """DSL text of the germ whose i-th component is the i-th row of the
    linear part applied to the coordinates, plus the listed degree-2 terms."""
    n = len(matrix)
    comps = []
    for i in range(n):
        terms = ["%s*%s" % (gauss_text(matrix[i][j]), VARS[j])
                 for j in range(n) if matrix[i][j] != (0, 0)]
        terms += perturbations.get(i, [])
        comps.append("(%s) d/d%s" % (" + ".join(terms), VARS[i]))
    return "v = " + " + ".join(comps)


def _jordan_matrix(eigs, blocks):
    """Block-diagonal Jordan form; `blocks` lists block sizes in order."""
    n = len(eigs)
    m = [[(0, 0)] * n for _ in range(n)]
    pos = 0
    for size in blocks:
        for k in range(size):
            m[pos + k][pos + k] = eigs[pos + k]
            if k + 1 < size:
                m[pos + k][pos + k + 1] = (1, 0)
        pos += size
    return m


# -- simple_towers -------------------------------------------------------------
#
# Strata fix the dimension, the Jordan structure, the divisor, the
# eigenvalues and the degree-2 perturbation; the seed picks a unit u and
# whether to conjugate, and the germ is multiplied by u (and conjugated).
# Both maps keep the foliation's structure, every eigenvalue ratio and every
# norm, so an item costs the same on every seed.
# Norms of the characteristic polynomial's constant term run from 1 past
# DIVISOR_NORM_CAP = 200000, where degree >= 3 root search gives up.

_STRATA = [
    # (eigenvalues, Jordan block sizes, divisor axes, copies per pass)
    (((1, 0), (0, 1)), (1, 1), (0,), 4),
    (((1, 0), (-1, 0)), (1, 1), (0,), 4),
    (((1, 2), (3, -4)), (1, 1), (0,), 4),
    (((2, 1), (-5, 0)), (1, 1), (0,), 4),
    (((7, 0), (0, -13)), (1, 1), (0,), 4),
    (((400, 300), (1, 0)), (1, 1), (0,), 4),
    (((1000, 1), (0, 1)), (1, 1), (0,), 4),
    (((1, 0), (0, 1)), (1, 1), (0, 1), 4),
    (((3, 4), (-5, 0)), (1, 1), (0, 1), 4),
    (((2, 0), (0, 3)), (1, 1), (0, 1), 4),
    (((3, 0), (3, 0)), (2,), (1,), 4),
    (((1, 2), (1, 2)), (2,), (1,), 4),
    (((1, 0), (-1, 0), (0, 1)), (1, 1, 1), (0,), 2),
    (((2, 1), (1, -2), (-1, 0)), (1, 1, 1), (0,), 1),
    (((10, 0), (6, 8), (2, 1)), (1, 1, 1), (0,), 1),
    (((12, 0), (0, 13), (1, 1)), (1, 1, 1), (0,), 1),
    (((400, 300), (1, 0), (2, 1)), (1, 1, 1), (0,), 3),
    (((10, 0), (6, 8), (4, 3)), (1, 1, 1), (0,), 3),
    (((1, 2), (300, 400), (2, 1)), (1, 1, 1), (0,), 3),
    (((2, 0), (0, 1), (0, 1)), (1, 2), (0,), 4),
    (((2, 0), (3, 4), (3, 4)), (1, 2), (0,), 1),
    (((1, 0), (-1, 0), (0, 2), (0, 2)), (1, 1, 2), (0,), 1),
]


def _monomial(a: int, b: int) -> str:
    return "%s*%s" % (VARS[a], VARS[b]) if a != b else "%s^2" % VARS[a]


# dimension-3 strata cheap enough for single CLI requests
_CHEAP_DIM3_STRATA = (12, 13, 19)


def _perturbation(n, axes, copy, unit, conj):
    """One degree-2 term per component, fixed by the copy index and turned
    by the same unit and conjugation as the linear part.  Component j of a
    divisor axis gets a multiple of its own coordinate, so every axis stays
    invariant.  In dimension 2 the terms are squares of an axis coordinate,
    which keeps the two components coprime: a common factor would make the
    singular locus a curve, and such germs are not what this workload
    measures."""
    out = {}
    for i in range(n):
        c = _rotate(((1, 0), (-1, 0), (2, 0), (0, 1))[(copy + i) % 4], unit, conj)
        if n == 2:
            mono = _monomial(i, i) if i in axes else _monomial(axes[0], axes[0])
        elif i in axes:
            mono = _monomial(i, (i + 1 + copy) % n)
        else:
            mono = _monomial((i + copy) % n, (i + copy + 1) % n)
        out[i] = ["%s*%s" % (gauss_text(c), mono)]
    return out


def simple_towers(seed: int) -> list[dict]:
    rng = random.Random(seed)
    items = []
    for stratum, (eigs, blocks, axes, copies) in enumerate(_STRATA):
        n = len(eigs)
        for copy in range(copies):
            unit = rng.choice(UNITS)
            conj = rng.random() < 0.5
            matrix = [[_rotate(z, unit, conj) for z in row] for row in _jordan_matrix(eigs, blocks)]
            text = field_text(matrix, _perturbation(n, axes, copy, unit, conj))
            divisor = "{%s}" % ", ".join(VARS[a] for a in axes)
            items.append({
                "key": "%s | %s" % (text, divisor),
                "text": text,
                "divisor": divisor,
                "matrix": matrix,
                "axes": list(axes),
                "stratum": stratum,
            })
    return items


# -- nevanlinna_profiles -------------------------------------------------------
#
# The seed rotates the exponential rates and the polynomial zeros by a unit
# (and conjugates the zeros).  Both maps take the circle grids of the
# trapezoid rule onto themselves, so the quadrature does the same work for
# every seed.


def _doubling_radii(lo: float, hi: float) -> list[float]:
    out = [lo]
    while out[-1] < hi:
        out.append(out[-1] * 2.0)
    return out


def _rate_text(z) -> str:
    return "exp(%s*t)" % gauss_text(z)


def _small_gaussians():
    """Gaussian integers of norm 1, 2, 5, 8 or 9."""
    return [(a, b) for a in range(-3, 4) for b in range(-3, 4) if a * a + b * b in (1, 2, 5, 8, 9)]


# Profiles on which the program is known to be wrong at the commit that
# added the benchmark: (check, zero template) -> (status, symptom).  The
# symptom is a regular expression the check's whole reason must match.
_PROFILE_DEFECTS = {
    # the FS area of a degree-2 map is 2, so T grows by 2 per unit of log r;
    # characteristic_on_grid's radial grid is too coarse near these zeros and
    # gives 2.149 between r = 128 and 256 (accepted: 2.14 to 2.16)
    ("T", 4): ("failed", r"T slope 2\.1[45]\d*, closed form 2"),
}

# zero sets of the polynomial curves, away from every grid radius; the seed
# rotates and conjugates them
_ZERO_TEMPLATES = [
    [(1, 1)], [(2, 1)], [(3, 0)], [(1, 1), (2, 1)], [(1, 2), (-2, 2)],
    [(3, 0), (0, 3)], [(1, 1), (2, 1), (3, 0)], [(1, 2), (1, 2)],
]


def _poly_from_zeros(lead, zeros) -> str:
    factors = ["(t - %s)" % gauss_text(z) for z in zeros]
    return "%s*%s" % (gauss_text(lead), "*".join(factors))


def _zeros_decl(target, zeros) -> str:
    counts: dict = {}
    for z in zeros:
        counts[z] = counts.get(z, 0) + 1
    return "; ".join("%s at %s order %d" % (target, gauss_text(z), k) for z, k in sorted(counts.items()))


def nevanlinna_profiles(seed: int) -> list[dict]:
    rng = random.Random(seed)
    items = []

    def add(check, text, radii, **facts):
        items.append(dict(key="%s | %s | %s" % (check, text, ",".join("%g" % r for r in radii)),
                          check=check, text=text, radii=radii, **facts))

    long_grid, mid_grid, short_grid = _doubling_radii(4, 256), _doubling_radii(4, 64), _doubling_radii(2, 32)
    for mod, grid, copies in ((1, long_grid, 2), (2, mid_grid, 1)):
        for _ in range(copies):
            for check in ("T", "taut", "logderiv"):
                rate = _gmul((mod, 0), rng.choice(UNITS))
                add(check, "f(t) = (%s)" % _rate_text(rate), grid, rates=[rate])
    unit = rng.choice(UNITS)
    rates = [unit, _gmul((2, 0), unit)]
    add("fmt", "f(t) = (%s, %s)" % tuple(_rate_text(r) for r in rates), _doubling_radii(4, 32), rates=rates)
    for _ in range(2):
        z0 = _gmul((3, 0), rng.choice(UNITS))
        add("fmt", "f(t) = (t - %s, (t - %s)^2) zeros: ideal at %s order 1"
            % ((gauss_text(z0),) * 3), short_grid)
    c = gauss_text(rng.choice(UNITS))
    add("fmt", "f(t) = (%s*t^2, t^3) zeros: ideal at 0 order 2" % c, short_grid)
    for k in range(24):
        unit, conj = rng.choice(UNITS), rng.random() < 0.5
        template = k % len(_ZERO_TEMPLATES)
        zeros = [_rotate(z, unit, conj) for z in _ZERO_TEMPLATES[template]]
        lead = rng.choice(UNITS)
        text = "f(t) = (%s) zeros: %s" % (_poly_from_zeros(lead, zeros), _zeros_decl("f1", zeros))
        check = ("T", "logderiv", "taut")[k % 3]
        defect = _PROFILE_DEFECTS.get((check, template))
        add(check, text, long_grid, zeros=zeros, lead=lead,
            **({"defect": defect[0], "defect_symptom": defect[1]} if defect else {}))
    return items


# -- cli_requests --------------------------------------------------------------

README_EXAMPLES = [
    # (argv, expected exit code, facts for the reference checks)
    (["classify", "v = y d/dx + x^2 d/dy"], 0, {"matrix": [[(0, 0), (1, 0)], [(0, 0), (0, 0)]]}),
    (["blowup", "v = x d/dx + y d/dy"], 0, {}),
    (["resolve", "v = y d/dx + x^2 d/dy", "--mode", "seidenberg", "--depth", "8"], 0, {"seidenberg": True}),
    (["resolve", "v = x^2 d/dx - y d/dy", "--mode", "simple", "--divisor", "{x}"], 0, {}),
    (["weakly-reduced", "v = x d/dx + y d/dy"], 2, {}),
    (["separatrix", "v = x d/dx + (-y + x^2) d/dy", "--eigenvalue", "1", "--order", "8"], 0,
     {"matrix": [[(1, 0), (0, 0)], [(0, 0), (-1, 0)]], "kappa": (1, 0), "order": 8}),
    (["separatrix", "v = x d/dx - y d/dy", "--check", "corner", "--divisor", "{x, y}"], 0, {}),
    # the separatrix of eigenvalue -1 is the axis {x = 0}, which lies in the divisor
    (["separatrix", "v = x^2 d/dx - y d/dy", "--check", "lift", "--divisor", "{x}", "--eigenvalue", "-1"], 1, {}),
    (["nevanlinna", "f(t) = (exp(t))", "--check", "T", "--radii", "4:64:5"], 0, {"rates": [(1, 0)]}),
    (["nevanlinna", "f(t) = (t - 2) zeros: f1 at 2", "--check", "jensen", "--radii", "4:16:3"], 0,
     {"zeros": [(2, 0)], "lead": (1, 0)}),
    (["nevanlinna", "f(t) = (t, t^2) zeros: ideal at 0 order 1", "--check", "fmt", "--ideal", "x, y",
      "--radii", "2:32:5", "--format", "csv"], 0, {"ideal_zeros": [((0, 0), 1)]}),
    (["nevanlinna", "f(t) = (exp(t))", "--check", "taut", "--radii", "4:256:7"], 0, {"rates": [(1, 0)]}),
    (["effectivity", "--dim", "2", "--power", "4", "--alpha", "3"], 0, {}),
    (["selftest", "--seed", "7"], 0, {}),
]

# Inputs on which the program is known to be wrong at the commit that added
# the benchmark.  They stay in the stream and are counted: a defect item
# whose check gives the defect's status with a reason matching its symptom
# (a regular expression over the whole reason) counts in failed_frac or
# undecided_frac; any other wrong output is a plain failure.
KNOWN_DEFECTS = [
    # (argv, correct exit code, status the defect shows as, symptom, facts)
    # a unit times the radial field: isolated singularity, exit 0 expected
    (["resolve", "v = (x + x^2) d/dx + (y + x*y) d/dy"], 0, "failed",
     r"exit 1, expected 0: error: root singular locus is a curve", {"seidenberg": True}),
    # the same germ is dicritical; classify reports "dicritical": null
    (["classify", "v = (x + x^2) d/dx + (y + x*y) d/dy"], 0, "undecided",
     r"dicriticality unavailable", {"matrix": [[(1, 0), (0, 0)], [(0, 0), (1, 0)]]}),
    # eigenvalue norm 250000 > DIVISOR_NORM_CAP: cubic root search gives up
    (["classify", "v = (400 + 300*i)*x d/dx + y d/dy + (2 + i)*z d/dz"], 0, "undecided",
     r"eigenvalues indeterminate; sympy finds .*", {"matrix": [[(400, 300), (0, 0), (0, 0)], [(0, 0), (1, 0), (0, 0)],
                                              [(0, 0), (0, 0), (2, 1)]]}),
]

_SEIDENBERG_SHAPES = [
    "v = %(a)s*y d/dx + %(b)s*x^2 d/dy",
    "v = %(a)s*y d/dx + %(b)s*x^3 d/dy",
    "v = (%(a)s*y + x^2) d/dx + %(b)s*x^2 d/dy",
    "v = %(a)s*x^2 d/dx + %(b)s*y d/dy",
    "v = (x^2 - %(a)s*y^2) d/dx + %(b)s*x*y d/dy",
    "v = %(a)s*y^2 d/dx + %(b)s*x^2 d/dy",
    "v = (%(a)s*x + y^3) d/dx + (%(b)s*y + x^3) d/dy",
    "v = %(a)s*x*y d/dx + (x^2 - %(b)s*y^3) d/dy",
]


def _germ2(rng, equal=False):
    """Diagonal 2x2 linear part with distinct (or equal) eigenvalues."""
    pool = _small_gaussians()
    lam = rng.choice(pool)
    mu = lam if equal else rng.choice([z for z in pool if z != lam])
    return [[lam, (0, 0)], [(0, 0), mu]]


def cli_requests(seed: int) -> list[dict]:
    rng = random.Random(seed)
    items = []

    def add(argv, rc, **facts):
        items.append(dict(key=" ".join(argv), argv=argv, rc=rc, **facts))

    for argv, rc, facts in README_EXAMPLES:
        add(argv, rc, **facts)
    for argv, rc, kind, symptom, facts in KNOWN_DEFECTS:
        add(argv, rc, defect=kind, defect_symptom=symptom, **facts)
    # the germ families of simple_towers, picked by position so that every
    # seed requests the same strata
    towers = simple_towers(seed)
    small = [it for it in towers if len(it["matrix"]) == 2]
    cheap3 = [it for it in towers if it["stratum"] in _CHEAP_DIM3_STRATA]
    for it in small[::3]:
        add(["classify", it["text"], "--divisor", it["divisor"]], 0, matrix=it["matrix"])
    for it in cheap3:
        add(["classify", it["text"]], 0, matrix=it["matrix"])
    for it in small[1::6] + cheap3[::2]:
        add(["blowup", it["text"]], 0)
    for k in range(8):
        m = _germ2(rng, equal=(k % 4 == 0))
        add(["weakly-reduced", field_text(m, {})], 2 if k % 4 == 0 else 0, matrix=m)
    for k in range(12):
        m = _germ2(rng)
        lam, mu = m[0][0], m[1][1]
        while mu == _gmul((2, 0), lam):
            m = _germ2(rng)
            lam, mu = m[0][0], m[1][1]
        kappa = rng.choice(((1, 0), (2, 0), (0, 1)))
        order = (8, 16, 24, 32)[k % 4]
        text = field_text(m, {1: ["%s*x^2" % gauss_text(kappa)]})
        add(["separatrix", text, "--eigenvalue", gauss_text(lam)[1:-1], "--order", str(order)],
            0, matrix=m, kappa=kappa, order=order)
    for k in range(12):
        unit, conj = rng.choice(UNITS), rng.random() < 0.5
        zeros = [_rotate(z, unit, conj) for z in _ZERO_TEMPLATES[k % len(_ZERO_TEMPLATES)]]
        lead = rng.choice(((1, 0), (2, 0), (0, 1), (1, 1)))
        r = (2.5, 5.0, 7.0, 10.0)[k % 4]
        text = "f(t) = (%s) zeros: %s" % (_poly_from_zeros(lead, zeros), _zeros_decl("f1", zeros))
        add(["nevanlinna", text, "--check", "jensen", "--radii", "%g:%g:1" % (r, r)], 0, zeros=zeros, lead=lead)
    for shape in _SEIDENBERG_SHAPES:
        a, b = rng.choice(("1", "-1", "2", "-2")), rng.choice(("1", "-1", "2", "-2"))
        add(["resolve", shape % {"a": a, "b": b}, "--mode", "seidenberg", "--depth", "8"], 0, seidenberg=True)
    return items
