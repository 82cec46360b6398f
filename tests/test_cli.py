import io
import json
import math
import shlex
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foliationlab import cli, dsl
from helpers import FALSE_DECLARATIONS, reference_sanitize


def run_cli(argv):
    buf = io.StringIO()
    import sys

    old = sys.stdout
    sys.stdout = buf
    try:
        code = cli.main(argv)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def test_classify_json_schema():
    code, out = run_cli(["classify", "v = x d/dx - y d/dy"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "foliation-lab/1"
    assert doc["result"]["multiplicity"] == 1
    assert doc["result"]["reduced"] is True
    assert doc["result"]["dicritical"] is False


def test_deterministic_output():
    argv = ["classify", "v = y d/dx + x^2 d/dy"]
    _, out1 = run_cli(argv)
    _, out2 = run_cli(argv)
    assert out1 == out2


def test_exit_codes():
    code, _ = run_cli(["weakly-reduced", "v = x d/dx - y d/dy"])
    assert code == 0
    code, _ = run_cli(["weakly-reduced", "v = x d/dx + y d/dy"])
    assert code == 2
    code, out = run_cli(["weakly-reduced", "v = d/dx + y d/dy"])  # J_F = (1)
    assert code == 0
    doc = json.loads(out)["result"]
    assert doc["verdict"] == "certified" and doc["howald_agrees"] is True
    assert doc["witness"] == "coefficient ideal is trivial; identity log resolution"
    code, _ = run_cli(["classify", "v = exp(x) d/dx"])
    assert code == 1
    code, _ = run_cli(["classify", "v = x d/dx + "])
    assert code == 1


def test_jensen_exits_two_when_a_residual_passes_its_bound():
    # the zero at 2 is not declared: the residual 2 log 2 against a bound of 0
    code, out = run_cli(["nevanlinna", "f(t) = (t - 2)", "--check", "jensen", "--radii", "4:4:1"])
    assert code == 2
    assert json.loads(out)["result"]["max_excess_residual"] == pytest.approx(2.0 * math.log(2.0))
    code, out = run_cli(["nevanlinna", "f(t) = (t - 2) zeros: f1 at 2", "--check", "jensen", "--radii", "4:16:3"])
    assert code == 0
    assert json.loads(out)["result"]["max_excess_residual"] <= 1e-14


def test_usage_errors_exit_one(capsys):
    # argparse exits 2 on its own; 2 is reserved for mathematical refutations
    assert cli.main(["classify"]) == 1
    assert cli.main(["nevanlinna", "f(t) = (t)", "--check", "bogus"]) == 1
    assert cli.main([]) == 1
    assert "usage:" in capsys.readouterr().err
    assert cli.main(["--help"]) == 0
    assert cli.main(["classify", "--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_shared_parser_built_once_with_fresh_parser_output(monkeypatch, capsys):
    usage = (["classify"], ["nevanlinna", "f(t) = (t)", "--check", "bogus"], [], ["--help"], ["classify", "--help"])
    verbs = (
        ["classify", "v = y d/dx + x^2 d/dy"],
        ["blowup", "v = x d/dx + y d/dy", "--chart", "2"],
        ["resolve", "v = x^2 d/dx - y d/dy", "--mode", "simple", "--divisor", "{x}"],
        ["weakly-reduced", "v = x d/dx + y d/dy"],
        ["separatrix", "v = x d/dx + (-y + x^2) d/dy", "--eigenvalue", "1", "--order", "8"],
        ["nevanlinna", "f(t) = (t - 2) zeros: f1 at 2", "--check", "jensen", "--radii", "4:16:3"],
        ["effectivity", "--dim", "2", "--power", "4", "--alpha", "3"],
        ["selftest", "--seed", "7"],
    )

    def call(argv):
        code = cli.main(list(argv))
        return (code, *capsys.readouterr())

    cli.build_parser.cache_clear()
    shared, fresh = {}, {}
    for columns, requests in (("80", usage + verbs), ("40", usage)):
        monkeypatch.setenv("COLUMNS", columns)
        shared[columns] = [call(argv) for argv in requests]
        with monkeypatch.context() as m:
            m.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
            fresh[columns] = [call(argv) for argv in requests]
    assert cli.build_parser.cache_info().misses == 1
    assert shared == fresh
    assert [code for code, _, _ in shared["80"]] == [1, 1, 1, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0]
    assert shared["40"][3] != shared["80"][3]  # the help text follows the width at print time


def test_options_are_accepted_only_where_they_are_read(capsys):
    for argv, message in (
        (["classify", "v = y d/dx", "--format", "csv"], "unrecognized arguments: --format csv"),
        (["nevanlinna", "f(t) = (t - 2) zeros: f1 at 2", "--check", "jensen", "--format", "csv"],
         "--format csv is for --check T or fmt, not jensen"),
        (["nevanlinna", "f(t) = (exp(t))", "--check", "taut", "--format", "csv"], "not taut"),
        (["nevanlinna", "f(t) = (exp(t))", "--check", "logderiv", "--format", "csv"], "not logderiv"),
        (["nevanlinna", "f(t) = (exp(t))", "--check", "T", "--series", "m"], "--series is for --check fmt, not T"),
        (["nevanlinna", "f(t) = (exp(t))", "--check", "taut", "--form", "euclid"],
         "--form is for --check T, not taut"),
        (["nevanlinna", "f(t) = (t - 2) zeros: f1 at 2", "--check", "jensen", "--ideal", "x"],
         "--ideal is for --check fmt, not jensen"),
        (["nevanlinna", "f(t) = (t, t^2) zeros: ideal at 0 order 1", "--check", "fmt", "--ideal", "x, y",
          "--series", "m", "--format", "csv"], "--series is for --format json, not csv"),
    ):
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert message in err and not out


@pytest.mark.parametrize("text, argv, target", FALSE_DECLARATIONS)
def test_false_declaration_exits_one_naming_its_target(capsys, text, argv, target):
    assert cli.main(["nevanlinna", text, *argv]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and target in err and not out


def test_resolve_depth_exceeded_exit_zero():
    code, out = run_cli(["resolve", "v = y d/dx + x^2 d/dy", "--depth", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["status"] == "depth_exceeded"


def test_blowup_report():
    code, out = run_cli(["blowup", "v = x d/dx + y d/dy"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["c1"]["saturation_exponent"] == 1
    assert doc["result"]["c1"]["exceptional_invariant"] is False


def test_separatrix_commands(capsys):
    code, out = run_cli(["separatrix", "v = x d/dx + (-y + x^2) d/dy",
                         "--eigenvalue", "1", "--order", "4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["components"][1][2] == "1/3"
    code, out = run_cli(["separatrix", "v = x d/dx + (2*y + x^2) d/dy",
                         "--eigenvalue", "1", "--order", "4"])
    assert code == 0
    assert json.loads(out)["result"]["resonance_order"] == 2
    code, out = run_cli(["separatrix", "v = x d/dx - y d/dy",
                         "--check", "corner", "--divisor", "{x, y}", "--order", "6"])
    assert code == 0
    assert json.loads(out)["result"]["outcome"] == "confirmed"
    code, out = run_cli(["separatrix", "v = x d/dx - 2*y d/dy", "--check", "lift",
                         "--divisor", "{x}", "--eigenvalue", "1"])
    assert code == 0
    doc = json.loads(out)["result"]
    assert doc["outcome"] == "meets_simple_point"
    assert doc["simple_status"] == {"kind": "simple_point_B"}
    assert doc["unique_simple"] is True and doc["chart"] == 1 and doc["point"] == ["0", "0"]
    # the separatrix of x^2 d/dx - y d/dy along eigenvalue -1 is the y-axis, inside D = {x = 0}
    argv = ["separatrix", "v = x^2 d/dx - y d/dy", "--check", "lift", "--divisor", "{x}", "--eigenvalue", "-1"]
    assert cli.main(argv) == 1
    assert "curve lies in D" in capsys.readouterr().err


def _lift_doc(lifted):
    return {"command": "separatrix", "schema": "foliation-lab/1", "result": {
        "chart": 1, "lifted_components": lifted, "notes": [], "outcome": "meets_simple_point",
        "point": ["0", "0"], "simple_status": {"kind": "simple_point_B"}, "unique_simple": True}}


PARABOLA = "v = x d/dx + (-y + x^2) d/dy"
PINNED_SEPARATRIX_OUTPUTS = {
    "lift-order-6": (["separatrix", PARABOLA, "--check", "lift", "--divisor", "{x}", "--eigenvalue", "1",
                      "--order", "6"], _lift_doc([["0", "1"] + ["0"] * 5, ["0", "1/3"] + ["0"] * 4])),
    "readme-lift": (["separatrix", "v = x d/dx - 2*y d/dy", "--check", "lift", "--divisor", "{x}",
                     "--eigenvalue", "1"], _lift_doc([["0", "1"] + ["0"] * 7, ["0"] * 8])),
    "solve-order-8": (["separatrix", PARABOLA, "--eigenvalue", "1", "--order", "8"], {
        "command": "separatrix", "schema": "foliation-lab/1", "result": {
            "components": [["0", "1"] + ["0"] * 7, ["0", "0", "1/3"] + ["0"] * 6], "eigenvalue": "1",
            "residual_order": None, "tangent_direction": 1, "truncation_order": 8, "variables": ["x", "y"]}}),
}


@pytest.mark.parametrize("argv, doc", PINNED_SEPARATRIX_OUTPUTS.values(), ids=PINNED_SEPARATRIX_OUTPUTS)
def test_separatrix_json_text_is_pinned(argv, doc):
    code, out = run_cli(argv)
    assert code == 0 and out == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _classify_doc(lp, values, mult, notes, reduced, surface_type, dicritical, simple_status=None):
    return {"command": "classify", "schema": "foliation-lab/1", "result": {
        "dicritical": dicritical, "eigenvalues": {"indeterminate": False, "values": values},
        "linear_part": lp, "multiplicity": mult, "notes": notes, "reduced": reduced,
        "simple_status": simple_status, "surface_type": surface_type}}


NILPOTENT = "linear part nilpotent or zero: not in the reduced list"
PINNED_CLASSIFY_OUTPUTS = {
    "readme": (["classify", "v = y d/dx + x^2 d/dy"], _classify_doc(
        [["0", "1"], ["0", "0"]], ["0", "0"], 1,
        ["nilpotent linear part (characteristic polynomial t^n)", NILPOTENT], False,
        {"kind": "unclassified", "note": NILPOTENT}, False)),
    "dim1": (["classify", "v = x d/dx"], _classify_doc(
        [["1"]], ["1"], 1, ["dicriticality unavailable: blow-up needs ambient dimension >= 2"], True,
        {"kind": "not_applicable"}, None)),
    "not-isolated": (["classify", "v = x*y d/dx + x*y^2 d/dy"], _classify_doc(
        [["0", "0"], ["0", "0"]], ["0", "0"], 2,
        ["multiplicity 2 > 1", NILPOTENT, "dicriticality unavailable: singular locus is not isolated at the origin"],
        False, {"kind": "unclassified", "note": NILPOTENT}, None)),
    "dicritical": (["classify", "v = (x + x^2) d/dx + (y + x*y) d/dy"], _classify_doc(
        [["1", "0"], ["0", "1"]], ["1", "1"], 1, [], True, {"kind": "non_degenerate"}, True)),
    "dim3": (["classify", "v = x d/dx + y d/dy + 2*z d/dz"], _classify_doc(
        [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "2"]], ["1", "1", "2"], 1, [], True,
        {"kind": "not_applicable"}, False)),
    "simple-b": (["classify", "v = x d/dx - y d/dy", "--divisor", "{x}"], _classify_doc(
        [["1", "0"], ["0", "-1"]], ["-1", "1"], 1, [], True, {"kind": "non_degenerate"}, False,
        {"kind": "simple_point_B"})),
}


@pytest.mark.parametrize("argv, doc", PINNED_CLASSIFY_OUTPUTS.values(), ids=PINNED_CLASSIFY_OUTPUTS)
def test_classify_json_text_is_pinned(argv, doc):
    code, out = run_cli(argv)
    assert code == 0 and out == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_classify_zero_field_exits_one(capsys):
    assert cli.main(["classify", "v = 0*x d/dx + 0*y d/dy"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: zero vector field has no multiplicity\n"


# points on E at w = 1000, 1001, 1002: the outer coefficient of their cubic
# has norm past the divisor-norm cap, so the root search stops
CAPPED = "v = (-y^2 + 3003*x*y - 3005002*x^2) d/dx + (-1003002000*x^2) d/dy"


def test_capped_root_search_is_not_a_conjugate_cluster():
    code, out = run_cli(["blowup", CAPPED])
    assert code == 0
    c1 = json.loads(out)["result"]["c1"]
    assert c1["enumeration_complete"] is False
    assert c1["clusters"] == [] and c1["singular_points_on_E"] == []
    for mode in ("simple", "seidenberg"):
        code, out = run_cli(["resolve", CAPPED, "--mode", mode])
        assert code == 0
        doc = json.loads(out)["result"]
        assert doc["status"] == "blocked" and doc["terminal_singularities"] == []
        assert doc["reason"].startswith("singular-point enumeration incomplete at b1.c1: "
                                        "root search stopped at the divisor-norm cap 200000")


def test_stated_zero_order_past_the_cap_is_refused_at_once(capsys):
    def too_slow(signum, frame):
        raise TimeoutError("the order check of a stated zero did not stop")

    argv = ["nevanlinna", "f(t) = (0, t) zeros: f1 at 1 order 100000000", "--check", "T", "--radii", "4:4:1"]
    old = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(10)
    try:
        code = cli.main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert code == 1 and "past the cap of 12 on zero orders" in capsys.readouterr().err


EXP_SUM_50 = "(exp(t) + exp(2*i*t) + exp(3*t) + exp(5*i*t))^50"


@pytest.mark.parametrize("component, code, message", [
    # one exp group at 1, of order 1, to the 12th power: the declaration is accepted, and Jensen
    # refutes it, since the zeros at 0 and off Q(i) inside |t| < 4 are not declared
    ("(exp(t) - exp(t^2))^12", 2, ""),
    (EXP_SUM_50, 1, "does not vanish"),  # four distinct exp values at 1: order 0 without expanding the power
    (EXP_SUM_50 + " + t", 1, "past the limit of 4096 group products"),
])
def test_orders_of_large_exp_powers_come_in_bounded_time(capsys, component, code, message):
    def too_slow(signum, frame):
        raise TimeoutError("the order of a declared zero took too long")

    argv = ["nevanlinna", "f(t) = (%s) zeros: f1 at 1" % component, "--check", "jensen", "--radii", "4:4:1"]
    old = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(10)
    try:
        assert cli.main(argv) == code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert message in capsys.readouterr().err


def test_ideal_of_a_curve_past_four_components_is_refused_by_name(capsys):
    argv = ["nevanlinna", "f(t) = (t, t, t, t, t) zeros: ideal at 0 order 1", "--check", "fmt", "--ideal", "x",
            "--radii", "2:32:5"]
    assert cli.main(argv) == 1
    assert ("--ideal names one variable per component (x, y, z, w), so a curve with 5 components has no name "
            "for its fifth") in capsys.readouterr().err


@pytest.mark.parametrize("ideal", ["x*(y + 1), y", "(x + 1)*y, x"])
def test_ideal_generators_are_parsed_by_the_grammar(ideal):
    code, out = run_cli(["nevanlinna", "f(t) = (t, t^2) zeros: ideal at 0 order 1", "--check", "fmt",
                         "--ideal", ideal, "--radii", "2:32:5"])
    assert code == 0 and json.loads(out)["result"]["passed"] is True


def test_effectivity_command():
    code, out = run_cli(["effectivity", "--dim", "2", "--power", "4", "--alpha", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["outcome"] == "section_exists"
    assert doc["result"]["surplus"] == 11


def test_nevanlinna_csv_and_series():
    code, out = run_cli(["nevanlinna", "f(t) = (t, t^2) zeros: ideal at 0 order 1",
                         "--check", "fmt", "--ideal", "x, y",
                         "--radii", "2:8:3", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("r,T,N,m")
    assert len(lines) == 4
    code, out = run_cli(["nevanlinna", "f(t) = (t, t^2) zeros: ideal at 0 order 1",
                         "--check", "fmt", "--ideal", "x, y",
                         "--radii", "2:8:3", "--series", "diff"])
    assert code == 0
    assert out.splitlines()[0] == "r,diff"
    code, out = run_cli(["nevanlinna", "f(t) = (t, t^2) zeros: ideal at 0 order 1",
                         "--check", "fmt", "--ideal", "x, y", "--radii", "2:8:3"])
    assert code == 0
    doc = json.loads(out)["result"]
    assert doc["passed"] is True and abs(doc["slope_vs_log_r"]) <= 0.05
    assert doc["profile"]["r"] == [2.0, 4.0, 8.0] and not any(doc["profile"]["diverged"])
    assert max(doc["differences"]) - min(doc["differences"]) < 1e-9
    argv = ["nevanlinna", "f(t) = (exp(t))", "--check", "T", "--radii", "4:16:3"]
    code, out = run_cli(argv + ["--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,T,N,m,error_bound" and len(lines) == 4
    prof = json.loads(run_cli(argv)[1])["result"]["profile"]
    assert [float(line.split(",")[1]) for line in lines[1:]] == prof["T"]


def test_nevanlinna_logderiv():
    # g = exp(t^2): log+ |g'/g| = log+ |2t| = log 2r on the circle |t| = r >= 1
    code, out = run_cli(["nevanlinna", "f(t) = (exp(t^2))", "--check", "logderiv", "--radii", "4:16:3"])
    assert code == 0
    doc = json.loads(out)["result"]
    assert doc["passed"] is True and all(doc["converged"])
    assert all(abs(v - math.log(2 * r)) < 1e-9 for v, r in zip(doc["lhs"], doc["r_grid"]))


def test_nevanlinna_taut_not_applicable():
    code, out = run_cli(["nevanlinna", "f(t) = (t)", "--check", "taut", "--radii", "4:8:2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["applicable"] is False


def test_blowup_chart_flag(capsys):
    germ = "v = x d/dx + (x^2 - y) d/dy"
    for k in ("0", "3"):
        code, out = run_cli(["blowup", germ, "--chart", k])
        assert code == 1 and out == ""
        assert "chart index out of range" in capsys.readouterr().err
    code, out_all = run_cli(["blowup", germ])
    assert code == 0
    code, out_c2 = run_cli(["blowup", germ, "--chart", "2"])
    assert code == 0
    doc_all, doc_c2 = json.loads(out_all), json.loads(out_c2)
    assert doc_c2["result"] == {"c2": doc_all["result"]["c2"]}
    assert out_c2 == json.dumps({**doc_all, "result": {"c2": doc_all["result"]["c2"]}},
                                sort_keys=True, indent=2) + "\n"


def test_closed_output_pipe_exits_one_quietly(monkeypatch, capsys):
    """A reader that stops reading is not an internal error: exit 1, nothing
    on stderr, and stdout left pointing at the null device."""
    import os
    import sys

    class ClosedPipe(io.StringIO):
        def write(self, s):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = cli.main(["blowup", "v = x d/dx + y d/dy"])
    devnull = sys.stdout
    assert code == 1 and devnull.name == os.devnull
    devnull.close()
    assert capsys.readouterr().err == ""


def test_classify_dim1_reports_without_dicriticality():
    code, out = run_cli(["classify", "v = x^2 d/dx"])
    assert code == 0
    doc = json.loads(out)["result"]
    assert doc["dicritical"] is None
    assert doc["notes"][-1] == "dicriticality unavailable: blow-up needs ambient dimension >= 2"


def test_separatrix_eigenvalue_spectrum_computed_once(monkeypatch):
    from foliationlab import linalg, unipoly

    calls = {"char_poly": 0, "gaussian_rational_roots": 0}

    def counting(mod, name):
        fn = getattr(mod, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(mod, name, wrapper)

    counting(linalg, "char_poly")
    counting(unipoly, "gaussian_rational_roots")
    code, out = run_cli(["separatrix", "v = x d/dx - 2*y d/dy", "--eigenvalue", "1", "--order", "6"])
    assert code == 0
    assert json.loads(out)["result"]["eigenvalue"] == "1"
    assert calls == {"char_poly": 1, "gaussian_rational_roots": 1}


def test_resolve_simple_dim1_needs_blowup_dimension(capsys):
    code = cli.main(["resolve", "v = x d/dx", "--mode", "simple", "--divisor", "{x}"])
    assert code == 1
    assert "blow-up needs ambient dimension >= 2" in capsys.readouterr().err


def test_classify_huge_real_eigenvalue_ratio(monkeypatch):
    # the ratio 1000000000000000000117 is read off the degree-1 gcd, with no
    # trial division of a 22-digit integer
    from foliationlab import unipoly

    def no_trial_division(n):
        raise AssertionError("trial division of %d" % n)

    monkeypatch.setattr(unipoly, "_int_divisors", no_trial_division)
    code, out = run_cli(["classify", "v = x d/dx + 1000000000000000000117*y d/dy", "--divisor", "{x}"])
    assert code == 0
    doc = json.loads(out)["result"]
    assert doc["eigenvalues"]["values"] == ["1", "1000000000000000000117"]
    assert doc["simple_status"]["detail"] == "another eigenvalue is a positive rational multiple of 1"


def test_unit_times_radial_is_isolated_and_dicritical():
    # (1 + x)(x, y): the shared factor 1 + x is a unit at 0, so the
    # singularity is isolated, and the radial leading form makes it dicritical
    code, out = run_cli(["resolve", "v = (x + x^2) d/dx + (y + x*y) d/dy"])
    assert code == 0
    tower = json.loads(out)["result"]
    assert tower["status"] == "complete" and tower["blowups"] == 1
    code, out = run_cli(["classify", "v = (x + x^2) d/dx + (y + x*y) d/dy"])
    assert code == 0 and json.loads(out)["result"]["dicritical"] is True


def test_shared_branch_through_origin_is_rejected(capsys):
    # x (y, y^2): the branch x = 0 through 0 is singular
    assert cli.main(["resolve", "v = (x*y) d/dx + (x*y^2) d/dy"]) == 1
    assert "root singular locus is a curve" in capsys.readouterr().err


def test_undeclarable_fprime_zero_is_a_parse_error(capsys):
    argv = ["nevanlinna", "f(t) = (t, -t) zeros: fprime at 0", "--check", "T", "--radii", "2:4:2"]
    assert cli.main(argv) == 1
    assert "does not vanish" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["nevanlinna", "f(t) = (t)", "--check", "T", "--radii", "nan:4:3"],
    ["nevanlinna", "f(t) = (t)", "--check", "T", "--radii", "1:inf:3"],
    ["nevanlinna", "f(t) = (t)", "--check", "T", "--radii", "1e-300:1e300:3"],
    ["nevanlinna", "f(t) = (t)", "--check", "T", "--tol", "-1"],
    ["nevanlinna", "f(t) = (t)", "--check", "T", "--tol", "nan"],
    ["resolve", "v = y d/dx + x^2 d/dy", "--depth", "-2"],
    ["weakly-reduced", "v = x d/dx + y d/dy", "--depth", "-1"],
], ids=["radii-nan", "radii-inf", "radii-overflow", "tol-negative", "tol-nan", "resolve-depth", "weakly-reduced-depth"])
def test_bad_numeric_argument_is_a_parse_error(argv, capsys):
    args = cli.build_parser().parse_args(argv)
    with pytest.raises(dsl.ParseError):
        cli.HANDLERS[args.verb](args, io.StringIO())
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def check_T(curve, *options):
    return ["nevanlinna", curve, "--check", "T", *options]


NESTED_FIELD = "v = %sx%s d/dx" % ("(" * 200, ")" * 200)
NESTED_CURVE = "f(t) = (%st%s)" % ("(" * 200, ")" * 200)
FIELD = "v = x d/dx - 2*y d/dy"

# one input per raise site of a FoliationError that the CLI reaches, and the message it prints
USER_ERRORS = {
    "blowup-zero-field": (["blowup", "v = 0 d/dx + 0 d/dy"], "cannot blow up the zero field"),
    "blowup-dim1": (["blowup", "v = x^2 d/dx"], "blow-up needs ambient dimension >= 2"),
    "blowup-chart-3": (["blowup", "v = x d/dx + y d/dy", "--chart", "3"], "chart index out of range"),
    "weakly-reduced-zero-ideal": (["weakly-reduced", "v = 0 d/dx + 0 d/dy"], "zero ideal"),
    "resolve-simple-dim1": (["resolve", "v = x^2 d/dx", "--mode", "simple"], "blow-up needs ambient dimension >= 2"),
    "resolve-seidenberg-dim3": (["resolve", "v = x d/dx + y d/dy + z d/dz"],
                                "Seidenberg reduction is the dim-2 driver"),
    "resolve-divisor-not-invariant": (["resolve", "v = y d/dx + x d/dy", "--mode", "simple", "--divisor", "{x}"],
                                      "root divisor is not invariant"),
    "resolve-shared-branch": (["resolve", "v = (x*y) d/dx + (x*y^2) d/dy"], "root singular locus is a curve"),
    "resolve-level-3": (["resolve", "v = x d/dx + 3*y d/dy + 7*z d/dz", "--mode", "simple"],
                        "bounded A.I.S. probe found a non-isolated locus at level 3"),
    "separatrix-eigenvalue-3": (["separatrix", FIELD, "--eigenvalue", "3"], "3 is not an eigenvalue"),
    "separatrix-direction-5": (["separatrix", FIELD, "--direction", "5"], "direction index out of range"),
    "separatrix-order-1": (["separatrix", FIELD, "--direction", "0", "--order", "1"],
                           "truncation order must be >= 2"),
    "separatrix-zero-eigenvalue": (["separatrix", "v = y^2 d/dx + y d/dy", "--direction", "0"],
                                   "chosen eigendirection has eigenvalue 0"),
    "separatrix-indeterminate": (["separatrix", "v = y d/dx + 2*x d/dy", "--direction", "0"],
                                 "linear part has eigenvalues outside Q(i)"),
    "separatrix-indeterminate-eigenvalue": (["separatrix", "v = y d/dx + 2*x d/dy", "--eigenvalue", "1"],
                                            "linear part has eigenvalues outside Q(i)"),
    "separatrix-no-direction": (["separatrix", FIELD], "separatrix solve needs --direction or --eigenvalue"),
    "separatrix-not-a-corner": (["separatrix", "v = 2*x d/dx + 3*y d/dy", "--check", "corner", "--divisor", "{x, y}"],
                                "classify_simple returned not_simple"),
    "separatrix-corner-no-divisor": (["separatrix", "v = x d/dx - y d/dy", "--check", "corner"],
                                     "corner check needs --divisor"),
    "separatrix-corner-no-axis": (["separatrix", "v = x d/dx - y d/dy", "--check", "corner", "--divisor", "{}"],
                                  "no divisor axis through the origin"),
    "separatrix-lift-no-divisor": (["separatrix", FIELD, "--check", "lift", "--eigenvalue", "1"],
                                   "lift check needs --divisor"),
    "separatrix-lift-at-a-corner": (["separatrix", "v = x d/dx - y d/dy", "--check", "lift", "--divisor", "{x, y}",
                                     "--eigenvalue", "1"], "lift check expects a simple point, got simple_corner"),
    "separatrix-curve-in-divisor": (["separatrix", "v = x^2 d/dx - y d/dy", "--check", "lift", "--divisor", "{x}",
                                     "--eigenvalue", "-1"],
                                    "curve component 1 vanishes to working order: curve lies in D"),
    "classify-nonsingular": (["classify", "v = d/dx + y d/dy"], "germ is not singular at the origin"),
    "classify-zero-field": (["classify", "v = 0*x d/dx + 0*y d/dy"], "zero vector field has no multiplicity"),
    "classify-exp": (["classify", "v = exp(x) d/dx"], "exp is not allowed in polynomial vector fields"),
    "classify-pole": (["classify", "v = (1/x) d/dx"], "division by a non-constant expression"),
    "classify-trailing": (["classify", "v = x d/dx + "], "line 1, column 14: expected a factor, found None"),
    "classify-nested": (["classify", NESTED_FIELD], "input is nested too deeply"),
    "classify-divisor-axis": (["classify", "v = x d/dx", "--divisor", "{y}"],
                              "line 1, column 3: unknown axis name 'y'"),
    "effectivity-dim-0": (["effectivity", "--dim", "0", "--power", "1", "--alpha", "1"],
                          "n, k, alpha must be positive"),
    "zero-order-0": (check_T("f(t) = (t) zeros: f1 at 0 order 0", "--radii", "4:4:1"),
                     "declared zero of f1 at 0j has order 0; a zero has order >= 1"),
    "zero-order-past-cap": (check_T("f(t) = (t) zeros: f1 at 0 order 13", "--radii", "4:4:1"),
                            "declared zero of f1 at 0j has order 13, past the cap of 12 on zero orders"),
    "zero-wrong-order": (check_T("f(t) = (t) zeros: f1 at 0 order 2", "--radii", "4:4:1"),
                         "declared zero of f1 at 0j has order 1, not 2"),
    "zero-does-not-vanish": (check_T("f(t) = (t) zeros: f1 at 1", "--radii", "4:4:1"),
                             "declared zero of f1 at (1+0j) does not vanish"),
    "zero-identically": (check_T("f(t) = (0, t) zeros: f1 at 1", "--radii", "4:4:1"),
                         "declared zero of f1 at (1+0j) has order past 12 or vanishes identically"),
    "zero-order-required": (["nevanlinna", "f(t) = (t, t^2) zeros: ideal at 0", "--check", "fmt", "--ideal", "x, y",
                             "--radii", "2:32:5"],
                            "zero order required for target 'ideal'"),
    "zero-unknown-target": (check_T("f(t) = (t) zeros: f5 at 0", "--radii", "4:4:1"),
                            "unknown zero target 'f5': the curve has 1 component(s)"),
    "group-product-4096": (["nevanlinna", "f(t) = (%s + t) zeros: f1 at 1" % EXP_SUM_50, "--check", "jensen",
                            "--radii", "4:4:1"],
                           "an exact series product of 165 by 165 exp groups is past the limit of 4096 group "
                           "products"),
    "fmt-one-radius": (["nevanlinna", "f(t) = (t, t^2) zeros: ideal at 0 order 1", "--check", "fmt", "--ideal", "x, y",
                        "--radii", "4:4:1"],
                       "fmt fits the slope of T - N - m against log r, which needs two distinct radii, not 1"),
    "fmt-ideal-vanishes": (["nevanlinna", "f(t) = (t, t)", "--check", "fmt", "--ideal", "x - y", "--radii", "2:4:2"],
                           "the ideal vanishes along the curve to an order past 12 at t = 0, or identically"),
    "fmt-no-ideal": (["nevanlinna", "f(t) = (t, t)", "--check", "fmt", "--radii", "2:4:2"], "fmt check needs --ideal"),
    "fmt-fifth-component": (["nevanlinna", "f(t) = (t, t, t, t, t) zeros: ideal at 0 order 1", "--check", "fmt",
                             "--ideal", "x", "--radii", "2:32:5"],
                            "--ideal names one variable per component (x, y, z, w), so a curve with 5 components "
                            "has no name for its fifth"),
    "curve-pole": (check_T("f(t) = (1/t)"),
                   "poles are not allowed in curve components (division by non-constant)"),
    "curve-nested": (check_T(NESTED_CURVE, "--radii", "2:4:2"), "input is nested too deeply"),
    "radii-steps": (check_T("f(t) = (t)", "--radii", "2:16"), "radii must be a:b:steps"),
    "radii-not-a-number": (check_T("f(t) = (t)", "--radii", "2:16:x"),
                           "bad radii '2:16:x': a and b are numbers, steps an integer"),
    "radii-nan": (check_T("f(t) = (t)", "--radii", "nan:4:3"), "bad radii range 'nan:4:3'"),
    "radii-overflow": (check_T("f(t) = (t)", "--radii", "1e-300:1e300:3"),
                       "radii grid '1e-300:1e300:3' is not finite"),
    "radii-below-1": (check_T("f(t) = (t)", "--radii", "0.5:0.5:1"),
                      "radii grid '0.5:0.5:1' starts below 1: every check needs r >= 1"),
    "jensen-radii-below-1": (["nevanlinna", "f(t) = (t - 2) zeros: f1 at 2", "--check", "jensen",
                              "--radii", "0.5:2:2"],
                             "radii grid '0.5:2:2' starts below 1: every check needs r >= 1"),
    "tol-negative": (check_T("f(t) = (t)", "--tol", "-1"), "--tol must be a finite positive number"),
    "depth-negative": (["resolve", "v = y d/dx + x^2 d/dy", "--depth", "-2"], "--depth must be >= 0"),
}


@pytest.mark.parametrize("argv, message", USER_ERRORS.values(), ids=USER_ERRORS)
def test_user_error_exits_one_with_its_message(argv, message, capsys):
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", "error: %s\n" % message)


def test_foliation_error_is_the_one_input_error():
    from foliationlab import foliation

    assert issubclass(foliation.FoliationError, ValueError)
    assert foliation.FoliationError.__subclasses__() == [dsl.ParseError]


def test_a_fault_in_a_kernel_is_an_internal_error(monkeypatch, capsys):
    from foliationlab import linalg

    def broken(matrix):
        raise ValueError("broken kernel")

    monkeypatch.setattr(linalg, "char_poly", broken)
    assert cli.main(["classify", "v = x d/dx - y d/dy"]) == cli.EXIT_INTERNAL
    assert capsys.readouterr() == ("", "internal error: ValueError: broken kernel\n")


def readme_examples():
    """The argv of every `foliation-lab` line in the README."""
    text = Path(__file__).resolve().parents[1].joinpath("README.md").read_text()
    lines = text.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("foliation-lab ")]


# Run in a fresh interpreter: the exact README examples, then the float names
# and commands.  Prints one JSON object of facts.
IMPORT_BOUNDARY_SCRIPT = """
import contextlib, io, json, sys
sys.path[:] = json.loads(sys.argv[1])
import foliationlab
import foliationlab.corpus  # with the package and cli, every module of the exact engine
from foliationlab import cli

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)

facts = {"exact_codes": [run(argv) for argv in json.loads(sys.argv[2])]}
facts["numpy_after_exact"] = "numpy" in sys.modules
try:
    foliationlab.no_such_name
except AttributeError as exc:
    facts["unknown_name"] = str(exc)
from foliationlab import QuadConfig, ParametrizedCurve, characteristic_T
from foliationlab import nevanlinna, quadrature
facts["float_names"] = [characteristic_T is nevanlinna.characteristic_T,
                        ParametrizedCurve is nevanlinna.ParametrizedCurve, QuadConfig is quadrature.QuadConfig]
facts["float_codes"] = [run(["nevanlinna", "f(t) = (exp(t))", "--check", "T", "--radii", "4:64:5"]),
                        run(["selftest", "--seed", "7"])]
print(json.dumps(facts))
"""


def test_exact_commands_start_without_numpy():
    exact = [argv for argv in readme_examples() if argv[0] not in ("nevanlinna", "selftest")]
    assert [argv[0] for argv in exact] == ["classify", "blowup", "resolve", "resolve", "weakly-reduced",
                                           "separatrix", "separatrix", "separatrix", "separatrix", "effectivity"]
    proc = subprocess.run([sys.executable, "-c", IMPORT_BOUNDARY_SCRIPT, json.dumps(sys.path), json.dumps(exact)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    facts = json.loads(proc.stdout)
    assert facts["exact_codes"] == [run_cli(argv)[0] for argv in exact]
    assert facts["numpy_after_exact"] is False
    assert facts["unknown_name"] == "module 'foliationlab' has no attribute 'no_such_name'"
    assert facts["float_names"] == [True, True, True]
    assert facts["float_codes"] == [0, 0]


JSON_KEYS = st.one_of(st.text(max_size=5), st.sampled_from(["é", "\x00", "\x1f\n", "\u2028", "\U0001f600", '"\\']))
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=2**64, max_value=2**200), JSON_KEYS,
    st.floats(), st.sampled_from([-0.0, 1e300, math.inf, -math.inf, math.nan]),
)
JSON_TREES = st.recursive(JSON_LEAVES, lambda children: st.one_of(
    st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
    st.dictionaries(JSON_KEYS, children, max_size=4)), max_leaves=24)


@settings(max_examples=200)
@given(JSON_TREES)
@example({"a": [], "b": {}, "c": ([{}], ()), "é\x01": [-0.0, 1e300, math.inf, -math.inf, math.nan, 2**100, True, None]})
def test_json_encoder_matches_json_dumps(tree):
    """The CLI's encoder writes what json.dumps writes for the tree with
    inf and nan as strings: sorted keys, two-space indent, ASCII escapes."""
    buf = io.StringIO()
    cli._emit_json("selftest", tree, buf)
    doc = {"schema": cli.SCHEMA, "command": "selftest", "result": reference_sanitize(tree)}
    assert buf.getvalue() == json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


@pytest.mark.parametrize("result", [{"x": {1, 2}}, [object()], {1: "int key"}, {"x": 1j}])
def test_unsupported_json_value_is_an_internal_error(monkeypatch, result):
    monkeypatch.setitem(cli.HANDLERS, "effectivity", lambda args, out: cli._emit_json("effectivity", result, out))
    code, out = run_cli(["effectivity", "--dim", "2", "--power", "4", "--alpha", "3"])
    assert code == cli.EXIT_INTERNAL and out == ""
