"""Command-line interface: golden outputs, JSON schema, exit codes."""

import json
import math
import os
import subprocess
import sys

import pytest

from extcalc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def circle_file(tmp_path):
    return write_json(
        tmp_path / "circle.json",
        {
            "ambient": 2,
            "cells": [
                {
                    "weight": 1,
                    "box": [[0.0, 2 * math.pi]],
                    "map": ["cos(x)", "sin(x)"],
                    "orientation": 1,
                }
            ],
        },
    )


@pytest.fixture
def disk_file(tmp_path):
    return write_json(
        tmp_path / "disk.json",
        {
            "ambient": 2,
            "cells": [
                {
                    "weight": 1,
                    "box": [[0.0, 1.0], [0.0, 2 * math.pi]],
                    "map": ["x*cos(y)", "x*sin(y)"],
                    "orientation": 1,
                }
            ],
        },
    )


class TestGoldenOutputs:
    def test_worked_exterior_derivative(self, capsys):
        code, out, _ = run(capsys, "d", "--form", "x*y*dx + exp(x)*dy", "--dim", "2")
        assert code == 0
        assert out.strip() == "(exp(x) - x)*dx/\\dy"

    def test_circle_integral_twelve_digits(self, capsys, circle_file):
        code, out, _ = run(
            capsys,
            "integrate",
            "--form",
            "x*dy - y*dx",
            "--chain",
            circle_file,
            "--quad",
            "32",
        )
        assert code == 0
        assert out.strip() == "6.28318530718"

    def test_sphere_cohomology(self, capsys):
        code, out, _ = run(capsys, "cohomology", "--sphere", "3")
        assert code == 0
        assert out.strip() == "b = [1, 0, 0, 1]"

    def test_primitive_prints_zero_verification(self, capsys):
        code, out, _ = run(
            capsys, "primitive", "--form", "y*dx + x*dy", "--dim", "2"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "primitive = x*y"
        assert lines[1] == "d(primitive) - form = 0"

    def test_byte_stable(self, capsys, circle_file):
        outs = []
        for _ in range(2):
            _, out, _ = run(
                capsys,
                "integrate",
                "--form",
                "x*dy - y*dx",
                "--chain",
                circle_file,
                "--quad",
                "32",
            )
            outs.append(out)
        assert outs[0] == outs[1]


class TestJson:
    def test_schema(self, capsys, circle_file):
        code, out, _ = run(
            capsys,
            "stokes",
            "--form",
            "x*dy",
            "--chain",
            circle_file,
            "--json",
        )
        # a 1-chain needs a 0-form; this is a domain error
        assert code == 1

    def test_round_trip(self, capsys, disk_file):
        code, out, _ = run(
            capsys,
            "stokes",
            "--form",
            "x*dy",
            "--chain",
            disk_file,
            "--quad",
            "32",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verb"] == "stokes"
        assert payload["provenance"] == "computed"
        assert abs(payload["result"]["lhs"] - math.pi) <= 1e-8
        assert payload["residual"] <= 1e-8
        assert payload["inputs"]["form"] == "x*dy"

    def test_d_json(self, capsys):
        code, out, _ = run(
            capsys, "d", "--form", "x*y*dx + exp(x)*dy", "--dim", "2", "--json"
        )
        payload = json.loads(out)
        assert payload["result"] == "(exp(x) - x)*dx/\\dy"

    def test_explain_json(self, capsys):
        code, out, _ = run(capsys, "explain", "--json")
        payload = json.loads(out)
        assert payload["result"]["H0_connected"] == 1


class TestVerbs:
    def test_eval_scalar(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--form", "x*y", "--dim", "2", "--point", "2,3"
        )
        assert code == 0
        assert out.strip() == "6"

    def test_wedge(self, capsys):
        code, out, _ = run(
            capsys,
            "wedge",
            "--form",
            "x*dx",
            "--form",
            "y*dy",
            "--dim",
            "2",
        )
        assert code == 0
        assert out.strip() == "x*y*dx/\\dy"

    def test_pullback_polar(self, capsys):
        code, out, _ = run(
            capsys,
            "pullback",
            "--map",
            "map(r, theta) = r*cos(theta); r*sin(theta)",
            "--form",
            "dx/\\dy",
        )
        assert code == 0
        assert out.strip() == "x*dx/\\dy"

    def test_winding(self, capsys, circle_file):
        code, out, _ = run(capsys, "winding", "--loop", circle_file, "--quad", "32")
        assert code == 0
        assert "(integer 1," in out

    def test_linking(self, capsys, tmp_path):
        loop1 = write_json(
            tmp_path / "l1.json",
            {
                "ambient": 3,
                "cells": [
                    {
                        "box": [[0.0, 2 * math.pi]],
                        "map": ["cos(x)", "sin(x)", "0"],
                    }
                ],
            },
        )
        loop2 = write_json(
            tmp_path / "l2.json",
            {
                "ambient": 3,
                "cells": [
                    {
                        "box": [[0.0, 2 * math.pi]],
                        "map": ["1 + cos(x)", "0", "sin(x)"],
                    }
                ],
            },
        )
        code, out, _ = run(
            capsys, "linking", "--loop1", loop1, "--loop2", loop2, "--quad", "32"
        )
        assert code == 0
        assert "(integer -1," in out

    def test_degree(self, capsys, circle_file):
        code, out, _ = run(
            capsys,
            "degree",
            "--map",
            "map(x, y) = x^2 - y^2; 2*x*y",
            "--domain",
            circle_file,
            "--codomain",
            circle_file,
            "--form",
            "(x*dy - y*dx)/(x^2 + y^2)",
            "--quad",
            "32",
        )
        assert code == 0
        assert "(integer 2," in out

    def test_gauss_bonnet(self, capsys, tmp_path):
        sphere = write_json(
            tmp_path / "sphere.json",
            {
                "ambient": 3,
                "cells": [
                    {
                        "box": [[0.0, math.pi], [0.0, 2 * math.pi]],
                        "map": [
                            "sin(x)*cos(y)",
                            "sin(x)*sin(y)",
                            "cos(x)",
                        ],
                    }
                ],
            },
        )
        code, out, _ = run(
            capsys, "gauss-bonnet", "--surface", sphere, "--chi", "2", "--quad", "16"
        )
        assert code == 0
        assert "int K dA = 12.5663" in out

    def test_mv_solve(self, capsys, tmp_path):
        problem = write_json(
            tmp_path / "mv.json",
            {
                "slots": [
                    {"dim": 0},
                    {"dim": 1},
                    {"dim": 2},
                    {"dim": 2},
                    {},
                    {"dim": 0},
                ],
                "maps": [{}, {}, {}, {}, {}],
            },
        )
        code, out, _ = run(capsys, "mv-solve", "--problem", problem)
        assert code == 0
        assert "dims = [0, 1, 2, 2, 1, 0]" in out

    def test_cohomology_nerve(self, capsys, tmp_path):
        nerve = write_json(
            tmp_path / "nerve.json",
            {"vertices": 4, "simplices": [[0, 1], [1, 2], [2, 3], [3, 0]]},
        )
        code, out, _ = run(capsys, "cohomology", "--nerve", nerve)
        assert code == 0
        assert out.strip() == "b = [1, 1]"


class TestExitCodes:
    def test_parse_error_is_two(self, capsys):
        code, _, err = run(capsys, "d", "--form", "x*(", "--dim", "2")
        assert code == 2
        assert "error" in err

    def test_domain_error_is_one(self, capsys, circle_file):
        code, _, err = run(
            capsys, "stokes", "--form", "x*dy", "--chain", circle_file
        )
        assert code == 1

    def test_missing_file_is_one(self, capsys):
        code, _, _ = run(capsys, "integrate", "--form", "x*dx", "--chain", "/nonexistent.json")
        assert code == 1

    def test_usage_error_is_two(self, capsys):
        code = main(["no-such-verb"])
        assert code == 2


class TestHostileInput:
    """Overflow, non-finite numbers and deep nesting end as one error line."""

    def fails_cleanly(self, capsys, code, *argv):
        got, out, err = run(capsys, *argv)
        assert got == code
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_overflow_is_one(self, capsys):
        self.fails_cleanly(capsys, 1, "eval", "--form", "exp(x)", "--point", "1000", "--dim", "1")
        self.fails_cleanly(capsys, 1, "eval", "--form", "x^2", "--point", "1e200", "--dim", "1")

    def test_non_finite_point_is_two(self, capsys):
        self.fails_cleanly(capsys, 2, "eval", "--form", "x", "--point", "nan", "--dim", "1", "--json")
        self.fails_cleanly(capsys, 2, "eval", "--form", "x", "--point", "inf", "--dim", "1")

    def test_non_finite_tol_is_two(self, capsys, circle_file):
        # argparse reports usage errors itself, on more than one line
        for tol in ("nan", "inf"):
            code, out, _ = run(capsys, "winding", "--loop", circle_file, "--tol", tol, "--json")
            assert code == 2 and out == ""

    def test_non_finite_result_is_one(self, capsys):
        # 1e200 * 1e200 is inf without a Python exception
        for extra in ((), ("--json",)):
            self.fails_cleanly(
                capsys, 1, "eval", "--form", "x*y", "--point", "1e200,1e200", "--dim", "2", *extra
            )

    def test_non_finite_box_is_two(self, capsys, tmp_path):
        ray = write_json(
            tmp_path / "ray.json",
            {"ambient": 1, "cells": [{"box": [[0.0, math.inf]], "map": ["x"]}]},
        )
        self.fails_cleanly(capsys, 2, "integrate", "--form", "1", "--chain", ray)

    def test_nesting_limit(self, capsys):
        code, out, _ = run(capsys, "d", "--form", "(" * 200 + "x*dy" + ")" * 200, "--dim", "2")
        assert code == 0 and out.strip() == "dx/\\dy"
        self.fails_cleanly(capsys, 2, "d", "--form", "(" * 3000 + "x" + ")" * 3000, "--dim", "1")

    def test_d_of_top_degree_form_takes_no_derivative(self, capsys):
        # d(c dx) on R^1 is 0 whatever c is; the 200-deep nest is never differentiated
        deep = "sin(" * 200 + "x" + ")" * 200
        code, out, _ = run(capsys, "d", "--form", deep + "*dx", "--dim", "1")
        assert code == 0 and out == "0\n"

    def test_deep_function_nest_never_escapes(self, capsys):
        # printing recurses about five frames per nested call
        deep = "sin(" * 200 + "x" + ")" * 200
        code, out, err = run(capsys, "wedge", "--form", deep, "--form", "dy", "--dim", "2")
        assert code in (0, 1)
        if code:
            assert out == "" and len(err.splitlines()) == 1 and err.startswith("error:")


def test_python_m_runs_the_cli():
    import extcalc

    src = os.path.dirname(os.path.dirname(extcalc.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "extcalc", "d", "--form", "x*dy", "--dim", "2"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "dx/\\dy\n"
