import io
import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from foliationlab import cli, dsl
from helpers import FALSE_DECLARATIONS


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
