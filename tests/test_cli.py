import json
import os
import subprocess
import sys

import numpy as np
import pytest

from saddlebvp import expressions, hypotheses
from saddlebvp.cli import _json_text, build_parser, main
from saddlebvp.expressions import evaluate

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BILINEAR = os.path.join(REPO, "demos", "problems", "bilinear_t1.json")
EXP_T5 = os.path.join(REPO, "demos", "problems", "exp_t5.json")


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def zero_problem(tmp_path):
    return write_json(tmp_path / "zero.json",
                      {"T": 3, "D": 1.0, "F": "0*x", "u": "0"})


# --- solve -----------------------------------------------------------------------

def test_solve_zero_problem(tmp_path):
    problem = zero_problem(tmp_path)
    out = str(tmp_path / "run")
    code = main(["solve", problem, "--out", out, "--seed", "1"])
    assert code == 0
    data = json.loads((tmp_path / "run.saddle.json").read_text())
    assert data["manifest"]["subcommand"] == "solve"
    point = data["saddle_points"][0]
    assert point["verified"]
    assert np.allclose(point["x"], 0.0, atol=1e-9)
    assert np.allclose(point["y"], 0.0, atol=1e-9)
    assert (tmp_path / "run.trace.csv").exists()


def test_solve_bilinear_value(tmp_path):
    out = str(tmp_path / "bi")
    code = main(["solve", BILINEAR, "--out", out, "--tol", "1e-12"])
    assert code == 0
    data = json.loads((tmp_path / "bi.saddle.json").read_text())
    assert abs(data["saddle_points"][0]["value"] - 0.2) <= 1e-8
    # grid functions serialize as the flat T+2 node arrays
    assert len(data["saddle_points"][0]["x"]) == data["T"] + 2
    assert data["saddle_points"][0]["x"][0] == 0


def test_solve_malformed_expression(tmp_path, capsys):
    problem = write_json(tmp_path / "bad.json",
                         {"T": 1, "D": 1.0, "F": "sin(k*x) /", "u": "0"})
    code = main(["solve", problem, "--out", str(tmp_path / "bad")])
    assert code == 1
    assert "offset 9" in capsys.readouterr().err


def test_solve_missing_file(tmp_path, capsys):
    code = main(["solve", str(tmp_path / "nope.json")])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_solve_rejects_tolerance_that_is_not_positive_and_finite(tmp_path, capsys, tol):
    code = main(["solve", zero_problem(tmp_path), "--out", str(tmp_path / "run"),
                 "--tol", tol])
    assert code == 1
    assert "tol must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "run.saddle.json").exists()


def test_solve_unconverged_exits_2(tmp_path):
    problem = write_json(tmp_path / "p.json",
                         {"T": 2, "D": 1.0, "F": "x*y + x - y", "u": "0"})
    code = main(["solve", problem, "--out", str(tmp_path / "p"),
                 "--method", "extragradient", "--max-iter", "2", "--tol", "1e-14"])
    assert code == 2


@pytest.mark.parametrize("method", ["extragradient", "nested"])
def test_solve_verification_skips_points_outside_domain(tmp_path, method):
    # verification probes and inner line searches reach x <= -1.5, where log is undefined
    problem = write_json(tmp_path / "log.json",
                         {"T": 3, "D": 1, "F": "x^2 - y^2 + log(x + 1.5)", "u": "0"})
    code = main(["solve", problem, "--out", str(tmp_path / "log"), "--method", method])
    assert code == 0
    points = json.loads((tmp_path / "log.saddle.json").read_text())["saddle_points"]
    assert points and all(p["verified"] for p in points)


def test_solve_flags_stationary_non_saddle(tmp_path):
    # newton converges at every start, once to a stationary point where
    # x -> J(x, y*) has a descent direction; the second-order test rejects it
    problem = write_json(tmp_path / "log.json",
                         {"T": 3, "D": 1, "F": "x^2 - y^2 + log(x + 1.5)", "u": "0"})
    code = main(["solve", problem, "--out", str(tmp_path / "log"), "--method", "newton"])
    assert code == 2
    data = json.loads((tmp_path / "log.saddle.json").read_text())
    assert data["failed_starts"] == 0
    failures = [f for p in data["saddle_points"] for f in p["verification_failures"]]
    assert "x-Hessian eigenvalue -1.044e+01 is negative" in failures


# --- check -----------------------------------------------------------------------

def test_check_embedded_certificate(tmp_path):
    code = main(["check", BILINEAR, "--out", str(tmp_path / "chk")])
    assert code == 0
    data = json.loads((tmp_path / "chk.check.json").read_text())
    assert data["growth"]["passed"]
    assert data["convexity_in_x"]["passed"]
    assert data["concavity_in_y"]["passed"]
    assert data["ball_radii"]["r1"] == pytest.approx(4.0)


def test_check_alpha_margin_violated(tmp_path, capsys):
    problem = write_json(tmp_path / "p.json", {
        "T": 1, "D": 1.0, "F": "0*x", "u": "0",
        "certificate": {"alpha1": 5.0, "beta1": 0, "gamma1": 0,
                        "alpha2": 0.0, "beta2": 0, "gamma2": 0, "box": 1.0},
    })
    code = main(["check", problem, "--out", str(tmp_path / "p")])
    assert code == 2
    assert "margin violated" in capsys.readouterr().out


def test_check_convexity_counterexample(tmp_path):
    problem = write_json(tmp_path / "p.json", {
        "T": 1, "D": 1.0, "F": "-2*x^2", "u": "0",
        "certificate": {"alpha1": 0.9, "beta1": 0, "gamma1": -10,
                        "alpha2": 0.1, "beta2": 0, "gamma2": 10, "box": 2.0},
    })
    code = main(["check", problem, "--out", str(tmp_path / "p")])
    assert code == 2
    data = json.loads((tmp_path / "p.check.json").read_text())
    assert not data["convexity_in_x"]["passed"]
    assert data["convexity_in_x"]["counterexample"]["kind"] == "hessian"


def test_check_output_independent_of_seed(tmp_path):
    # state-dependent curvature: the grid decides, no draw depends on --seed;
    # --samples is accepted and ignored
    problem = write_json(tmp_path / "p.json", {
        "T": 4, "D": 1.0, "u": "0.3*sin(k)",
        "F": "0.4*x^2 - 0.4*y^2 + 0.2*x*y + 0.25*sin(x) + 0.25*cos(y) + u*(x - y)",
        "certificate": {"alpha1": 0.0, "beta1": 0, "gamma1": -1.3,
                        "alpha2": 0.0, "beta2": 0, "gamma2": 0.9, "box": 6.0,
                        "anchor_y": [0.0] * 4, "anchor_x": [0.0] * 4},
    })
    runs = []
    for seed, extra in (("1", []), ("2", ["--samples", "256"])):
        out = tmp_path / f"s{seed}"
        assert main(["check", problem, "--seed", seed, "--out", str(out)] + extra) == 0
        data = json.loads((tmp_path / f"s{seed}.check.json").read_text())
        assert data["manifest"]["config"] == {"density": 201}
        assert not data["convexity_in_x"]["exact"]
        runs.append({k: v for k, v in data.items() if k != "manifest"})
    assert runs[0] == runs[1]


@pytest.mark.parametrize("density", ["0", "-5"])
def test_check_rejects_a_density_below_3(tmp_path, capsys, density):
    # it used to run silently at 3 while the manifest recorded the value given
    code = main(["check", BILINEAR, "--density", density, "--out", str(tmp_path / "d")])
    assert code == 1
    assert capsys.readouterr().err == f"error: density must be at least 3, got {density}\n"
    assert not (tmp_path / "d.check.json").exists()


def test_check_without_certificate_errors(tmp_path, capsys):
    problem = zero_problem(tmp_path)
    code = main(["check", problem, "--out", str(tmp_path / "x")])
    assert code == 1
    assert "certificate" in capsys.readouterr().err


# A certificate that fails at D = 1: the growth check passed it once NaN
# stood in for D or gamma1, since every comparison with NaN is false.
FALSE_PASS = ('{"T": 3, "D": %s, "F": "x^2 - y^2 + u*x", "u": "0.9", "certificate": '
              '{"alpha1": 0, "beta1": 0, "gamma1": %s, "alpha2": 0, "beta2": 0, "gamma2": 0.1, '
              '"box": %s, "anchor_y": [0, 0, 0], "anchor_x": [0, 0, 0]}}')


@pytest.mark.parametrize("D, gamma1, field", [("NaN", "-0.1", "D"), ("1", "NaN", "gamma1")])
def test_check_rejects_nan_that_passed_growth(tmp_path, capsys, D, gamma1, field):
    problem = tmp_path / "p.json"
    problem.write_text(FALSE_PASS % (D, gamma1, "4"))
    code = main(["check", str(problem), "--out", str(tmp_path / "p")])
    assert code == 1
    assert f"{field} must be" in capsys.readouterr().err
    assert not (tmp_path / "p.check.json").exists()


@pytest.mark.parametrize("literal", ["Infinity", "1e999"])
@pytest.mark.parametrize("field", ["D", "box", "u"])
def test_nonfinite_input_numbers_exit_1(tmp_path, capsys, literal, field):
    numbers = {"D": "1", "box": "4", "u": "[0.5, 0.5, 0.5]"}
    numbers[field] = "[0.5, %s, 0.5]" % literal if field == "u" else literal
    problem = tmp_path / "p.json"
    problem.write_text((FALSE_PASS % (numbers["D"], "-0.1", numbers["box"]))
                       .replace('"0.9"', numbers["u"]))
    code = main(["check", str(problem), "--out", str(tmp_path / "p")])
    assert code == 1
    assert "finite" in capsys.readouterr().err


# Values of the wrong JSON type, and the message each must give.
WRONG_TYPES = [
    ({"D": None}, "D must be a number, got null"),
    ({"D": "1"}, 'D must be a number, got "1"'),
    ({"D": [1]}, "D must be a number, got [1]"),
    ({"D": True}, "D must be a number, got true"),
    ({"T": True}, "T must be a positive integer, got True"),
    ({"F": 3}, "F must be an expression string, got 3"),
    ({"F": None}, "F must be an expression string, got null"),
    ({"u": {"k": 1}}, "u must be an expression in k or 3 numbers"),
    ({"u": ["0.1", "0.2", "0.3"]}, "u must be an expression in k or 3 numbers"),
    ({"u": [True, False, True]}, "u must be an expression in k or 3 numbers"),
    ({"certificate": [1]}, "certificate must be a JSON object, got [1]"),
    ({"certificate": {"alpha1": None}}, "alpha1 must be a number, got null"),
    ({"certificate": {"beta2": "0"}}, 'beta2 must be a number, got "0"'),
    ({"certificate": {"box": [4]}}, "box must be a number, got [4]"),
    ({"certificate": {"gamma1": None}}, "gamma1 must be a number, got null"),
    ({"certificate": {"gamma2": [{}, 0, 0]}}, "gamma2 must hold numbers only"),
    ({"certificate": {"gamma2": ["0.5", "0.5", "0.5"]}}, "gamma2 must hold numbers only"),
    ({"certificate": {"anchor_x": {"k": 0}}}, "anchor_x must hold numbers only"),
    ({"certificate": {"anchor_x": [True, False, True]}}, "anchor_x must hold numbers only"),
]


@pytest.mark.parametrize("change, message", WRONG_TYPES)
def test_wrong_json_types_give_an_error_line(tmp_path, capsys, change, message):
    data = json.loads(FALSE_PASS % ("1", "-0.1", "4"))
    if isinstance(change.get("certificate"), dict):
        change = {"certificate": {**data["certificate"], **change["certificate"]}}
    problem = write_json(tmp_path / "p.json", {**data, **change})
    code = main(["check", problem, "--out", str(tmp_path / "p")])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("sequence, message", [
    ({"terms": 3}, "terms must be a list of node arrays"),
    ({"terms": [{}]}, "terms must hold numbers only"),
    ({"terms": [["1", "0", "0"]]}, "terms must hold numbers only"),
    ({"terms": [[True, 0, 0]]}, "terms must hold numbers only"),
    ({"direction": ["1", "0", "0"]}, "direction must be an expression in k or 3 numbers"),
    ({"direction": "k", "N": True}, "N must be an integer, got True"),
    (5, "sequence must be a JSON object, got 5"),
    ([1], "sequence must be a JSON object, got [1]"),
])
def test_wrong_json_types_in_a_sequence_give_an_error_line(tmp_path, capsys, sequence, message):
    problem = write_json(tmp_path / "p.json", {"T": 3, "D": 1.0, "F": "0*x", "u": "0",
                                               "sequence": sequence})
    assert main(["sweep", problem, "--out", str(tmp_path / "p")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [["solve"], ["solve", "p.json", "--multistart", "abc"],
                                  ["solve", "p.json", "--no-such-flag"]])
def test_usage_errors_exit_1(capsys, argv):
    assert main(argv) == 1  # 2 means "unverified", not "bad command line"
    assert "usage:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_one_parser_serves_every_call(tmp_path, capsys):
    assert build_parser() is build_parser()
    problem = zero_problem(tmp_path)
    for d in ("a", "b"):
        assert main(["solve", problem, "--out", str(tmp_path / d), "--seed", "1"]) == 0
    assert (tmp_path / "a.saddle.json").read_bytes() == (tmp_path / "b.saddle.json").read_bytes()
    assert main(["constants", "--T", "5", "-m", "2", "4"]) == 0
    capsys.readouterr()
    # a usage error after successful calls still exits 1
    assert main(["solve", problem, "--multistart", "abc"]) == 1
    assert "usage:" in capsys.readouterr().err
    # and the next call sees the defaults again, not the earlier arguments
    assert main(["constants", "--T", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[1].split()[:2] == ["2", "5"]


def test_cli_import_skips_scipy_packages():
    # either package import would cost more start-up than the rest of the CLI's import
    code = ("import saddlebvp.cli, sys; "
            "print(sorted(m for m in ('scipy.linalg', 'scipy.optimize') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out == "[]\n"


# --- sweep -----------------------------------------------------------------------

def test_sweep_constant_sequence(tmp_path):
    problem = write_json(tmp_path / "p.json", {
        "T": 1, "D": 2.0, "F": "x*y + u*(x - y)", "u": "1",
        "sequence": {"u0": "1", "terms": [[1.0], [1.0], [1.0]]},
    })
    code = main(["sweep", problem, "--out", str(tmp_path / "s"), "--tol", "1e-12"])
    assert code == 0
    rows = (tmp_path / "s.sweep.csv").read_text().strip().splitlines()
    assert rows[1] == "n,a_n,dist_n,gap_n"
    for line in rows[2:]:
        n, a_n, dist, gap = line.split(",")
        assert float(dist) <= 1e-10
        assert float(gap) == 0.0


def test_sweep_linear_family(tmp_path):
    sequence = write_json(tmp_path / "seq.json",
                          {"u0": "1", "direction": "1", "N": 100})
    code = main(["sweep", BILINEAR, "--sequence", sequence,
                 "--out", str(tmp_path / "lin"), "--tol", "1e-12",
                 "--tol-dep", "1e-4"])
    assert code == 0
    data = json.loads((tmp_path / "lin.sweep.json").read_text())
    assert data["upper_limit_check"]["passed"]
    assert data["final_dist"] <= 1e-2
    assert data["a0"] == pytest.approx(0.2, abs=1e-10)


def test_sweep_degenerate_single_term(tmp_path):
    problem = write_json(tmp_path / "p.json", {
        "T": 1, "D": 2.0, "F": "x*y + u*(x - y)", "u": "1",
        "sequence": {"u0": "1", "terms": [[1.0]]},
    })
    code = main(["sweep", problem, "--out", str(tmp_path / "one"), "--tol", "1e-12"])
    assert code == 0
    rows = (tmp_path / "one.sweep.csv").read_text().strip().splitlines()
    assert len(rows) == 3  # manifest, header, single data row


def test_sweep_unmet_tolerance_exits_2(tmp_path):
    problem = write_json(tmp_path / "nl.json", {
        "T": 3, "D": 1.0, "F": "x*y + exp(x) - exp(y) + u*(x - y)", "u": "0.5",
        "sequence": {"u0": "0.5", "direction": "0.4", "N": 4},
    })
    code = main(["sweep", problem, "--out", str(tmp_path / "nl"),
                 "--tol", "1e-12", "--tol-dep", "1e-10"])
    assert code == 2
    data = json.loads((tmp_path / "nl.sweep.json").read_text())
    assert not data["upper_limit_check"]["passed"]
    assert data["upper_limit_check"]["violations"]


def test_sweep_without_sequence_errors(tmp_path, capsys):
    problem = zero_problem(tmp_path)
    code = main(["sweep", problem, "--out", str(tmp_path / "x")])
    assert code == 1
    assert "sequence" in capsys.readouterr().err


def test_sweep_u0_of_wrong_length_names_u0(tmp_path, capsys):
    sequence = write_json(tmp_path / "seq.json", {"u0": [0.1, 0.2], "direction": "1", "N": 4})
    code = main(["sweep", EXP_T5, "--sequence", sequence, "--out", str(tmp_path / "s")])
    assert code == 1
    assert "u0 must have length T=5" in capsys.readouterr().err


def test_sweep_rejects_direction_and_terms(tmp_path, capsys):
    sequence = write_json(tmp_path / "seq.json",
                          {"u0": "1", "direction": "1", "N": 2, "terms": [[1.0], [1.0]]})
    code = main(["sweep", BILINEAR, "--sequence", sequence, "--out", str(tmp_path / "s")])
    assert code == 1
    assert "not both" in capsys.readouterr().err


@pytest.mark.parametrize("tol_dep", ["inf", "nan", "0"])
def test_sweep_rejects_tol_dep_that_is_not_positive_and_finite(tmp_path, capsys, tol_dep):
    # inf used to pass the upper-limit check vacuously, nan and 0 to fail it
    code = main(["sweep", BILINEAR, "--out", str(tmp_path / "s"), "--tol-dep", tol_dep])
    assert code == 1
    assert "tol_dep must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "s.sweep.json").exists()


# --- constants ---------------------------------------------------------------------

def test_constants_table(capsys):
    code = main(["constants", "--T", "5", "-m", "2", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "3.732050807568878" in out
    assert "   4      5        19.83707263706135\n" in out


def test_constants_from_problem(tmp_path, capsys):
    problem = zero_problem(tmp_path)
    code = main(["constants", problem])
    assert code == 0
    assert "2" in capsys.readouterr().out


def test_constants_needs_T(capsys):
    code = main(["constants"])
    assert code == 1


# --- output determinism ----------------------------------------------------------------

def test_identical_seeds_byte_identical_outputs(tmp_path):
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        assert main(["solve", BILINEAR, "--out", str(tmp_path / d / "r"),
                     "--method", "extragradient", "--seed", "9"]) == 0
    for name in ("r.saddle.json", "r.trace.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_compiled_kernels_write_the_interpreters_bytes(tmp_path, monkeypatch):
    runs = {"eg": ["solve", EXP_T5, "--method", "extragradient"],
            "newton": ["solve", EXP_T5, "--method", "newton"],
            "nested": ["solve", BILINEAR, "--method", "nested"],
            "check": ["check", BILINEAR],
            "sweep": ["sweep", BILINEAR]}

    def outputs(side):
        (tmp_path / side).mkdir()
        monkeypatch.chdir(tmp_path / side)
        codes = {name: main([*argv, "--out", name]) for name, argv in runs.items()}
        return codes, {p.name: p.read_bytes() for p in (tmp_path / side).iterdir()}

    def interpreted(trees):
        def kernel(k, x, y, u):
            env = {"k": k, "x": x, "y": y, "u": u}
            return tuple(evaluate(tree, env) for tree in trees)
        return kernel

    compiled = outputs("compiled")
    monkeypatch.setattr(expressions, "compile_trees", interpreted)
    monkeypatch.setattr(hypotheses, "compile_trees", interpreted)
    reference = outputs("interpreted")
    assert compiled[0] == reference[0]
    assert sorted(compiled[1]) == sorted(reference[1]) and len(reference[1]) >= 9
    for name, data in reference[1].items():
        assert compiled[1][name] == data, name


def test_float_array_serializes_like_its_list():
    values = np.array([0.0, -0.1, 1.0 / 3.0, 1e-300, np.inf, 2.5e17, 0.0])
    doc = {"x": values, "n": [1, 2]}
    assert _json_text(doc) == _json_text({"x": list(values), "n": [1, 2]})
    assert _json_text(np.array([])) == "[]"


def test_different_seeds_differ(tmp_path):
    for seed, d in (("1", "a"), ("2", "b")):
        (tmp_path / d).mkdir()
        assert main(["solve", BILINEAR, "--out", str(tmp_path / d / "r"),
                     "--method", "extragradient", "--seed", seed]) == 0
    a = (tmp_path / "a" / "r.trace.csv").read_bytes()
    b = (tmp_path / "b" / "r.trace.csv").read_bytes()
    assert a != b  # different starts, different iterate history


# --- shipped schemas --------------------------------------------------------------------

def test_demo_problems_validate_against_schema():
    import jsonschema
    from referencing import Registry, Resource

    schema_dir = os.path.join(REPO, "docs")
    schemas = {}
    for name in ("problem", "certificate", "sequence"):
        with open(os.path.join(schema_dir, f"{name}.schema.json")) as handle:
            schemas[f"{name}.schema.json"] = json.load(handle)
    registry = Registry().with_resources(
        (uri, Resource.from_contents(doc)) for uri, doc in schemas.items())
    validator = jsonschema.Draft202012Validator(schemas["problem.schema.json"],
                                                registry=registry)
    for name in ("bilinear_t1.json", "exp_t5.json", "zero.json"):
        with open(os.path.join(REPO, "demos", "problems", name)) as handle:
            validator.validate(json.load(handle))
