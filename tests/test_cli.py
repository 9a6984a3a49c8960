"""Command-line interface: golden outputs, JSON schema, exit codes."""

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor

import pytest

from extcalc.cli import main
from helpers import ELEVEN_VERTEX_SIMPLICES, python


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

    def test_winding_of_a_large_circle(self, capsys, tmp_path):
        big = write_json(tmp_path / "big.json", {"ambient": 2, "cells": [
            {"box": [[0.0, 2 * math.pi]], "map": ["10000*cos(x)", "10000*sin(x)"]}]})
        code, out, err = run(capsys, "winding", "--loop", big, "--quad", "32")
        assert (code, err) == (0, "")
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

    def test_integrate_over_points(self, capsys, tmp_path):
        # a cell with an empty box is a point; a 0-form integrates to its value
        points = write_json(
            tmp_path / "points.json",
            {
                "ambient": 2,
                "cells": [
                    {"box": [], "map": ["1", "2"]},
                    {"box": [], "map": ["3", "1/2"], "weight": -2},
                ],
            },
        )
        code, out, _ = run(capsys, "integrate", "--form", "x*y + 1", "--chain", points)
        assert code == 0 and out == "-2\n"
        code, out, err = run(capsys, "stokes", "--form", "x", "--chain", points)
        assert code == 1 and out == ""
        assert err == "error: Stokes needs a domain of dimension >= 1\n"

    def test_cohomology_nerve(self, capsys, tmp_path):
        nerve = write_json(
            tmp_path / "nerve.json",
            {"vertices": 4, "simplices": [[0, 1], [1, 2], [2, 3], [3, 0]]},
        )
        code, out, _ = run(capsys, "cohomology", "--nerve", nerve)
        assert code == 0
        assert out.strip() == "b = [1, 1]"

    def test_cohomology_eleven_vertex_nerve(self, capsys, tmp_path):
        nerve = write_json(
            tmp_path / "nerve.json", {"vertices": 11, "simplices": ELEVEN_VERTEX_SIMPLICES}
        )
        code, out, _ = run(capsys, "cohomology", "--nerve", nerve)
        assert code == 0 and out == "b = [1, 0, 2, 0]\n"


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
        return err

    def test_overflow_is_one(self, capsys):
        self.fails_cleanly(capsys, 1, "eval", "--form", "exp(x)", "--point", "1000", "--dim", "1")
        self.fails_cleanly(capsys, 1, "eval", "--form", "x^2", "--point", "1e200", "--dim", "1")

    def test_wedge_in_a_map_is_two(self, capsys):
        err = self.fails_cleanly(capsys, 2, "pullback", "--map", "map(u) = u/\\u", "--form", "dx")
        assert err == "error: /\\ wedges forms, not scalars (at position 1)\n"

    def test_non_finite_point_is_two(self, capsys):
        self.fails_cleanly(capsys, 2, "eval", "--form", "x", "--point", "nan", "--dim", "1", "--json")
        self.fails_cleanly(capsys, 2, "eval", "--form", "x", "--point", "inf", "--dim", "1")

    def test_non_finite_tol_is_two(self, capsys, circle_file):
        for tol in ("nan", "inf"):
            self.fails_cleanly(capsys, 2, "winding", "--loop", circle_file, "--tol", tol, "--json")

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

    def test_overflowing_integrand_names_its_node(self, capsys, tmp_path):
        # 10^200 * x * y overflows to inf at every node without a Python
        # exception; the first node is named instead of an inf result
        far = write_json(
            tmp_path / "far.json",
            {"ambient": 2, "cells": [{"box": [[1e60, 2e60], [1e60, 2e60]], "map": ["x", "y"]}]},
        )
        err = self.fails_cleanly(
            capsys, 1, "integrate", "--form", "10^200*x*y*dx/\\dy", "--chain", far, "--quad", "64"
        )
        assert err.startswith("error: integrand singular at quadrature node (1.0003")
        assert err.rstrip().endswith("not a finite number")

    def test_overflowing_quadrature_sum_is_one(self, capsys, tmp_path):
        # every node value of x*dx is finite, but the weighted sum is not, and
        # numpy warns nothing; the area element of a sphere of radius 10^200
        # overflows at the first node, which is named
        far = write_json(tmp_path / "far.json", {"ambient": 2, "cells": [
            {"box": [[0.0, 1e308]], "map": ["x", "x"]}]})
        big = write_json(tmp_path / "big.json", {"ambient": 3, "cells": [
            {"box": [[0.0, math.pi], [0.0, 2 * math.pi]],
             "map": ["10^200*sin(x)*cos(y)", "10^200*sin(x)*sin(y)", "10^200*cos(x)"]}]})
        for argv, message in (
            (["integrate", "--form", "x*dx", "--chain", far],
             "the weighted quadrature sum is not a finite number"),
            (["gauss-bonnet", "--surface", big, "--chi", "2"],
             "area element not finite at node (0.016648972382576677, 0.03329794476515335)"),
        ):
            err = self.fails_cleanly(capsys, 1, *argv)
            assert err == f"error: {message}\n"

    def test_loop_with_an_endpoint_not_finite_is_one(self, capsys, tmp_path):
        far = write_json(tmp_path / "far.json", {"ambient": 2, "cells": [
            {"box": [[1e60, 2e60]], "map": ["10^200*x*x", "sin(x)"]}]})
        err = self.fails_cleanly(capsys, 1, "winding", "--loop", far)
        assert "endpoints (inf, " in err and "not a closed loop" in err

    def test_nesting_limit(self, capsys):
        code, out, _ = run(capsys, "d", "--form", "(" * 200 + "x*dy" + ")" * 200, "--dim", "2")
        assert code == 0 and out.strip() == "dx/\\dy"
        self.fails_cleanly(capsys, 2, "d", "--form", "(" * 3000 + "x" + ")" * 3000, "--dim", "1")

    def test_d_of_top_degree_form_takes_no_derivative(self, capsys):
        # d(c dx) on R^1 is 0 whatever c is; the 200-deep nest is never differentiated
        deep = "sin(" * 200 + "x" + ")" * 200
        code, out, _ = run(capsys, "d", "--form", deep + "*dx", "--dim", "1")
        assert code == 0 and out == "0\n"

    chain = ["integrate", "--form", "x*dx", "--chain", "FILE"]
    cell = '{"ambient": 1, "cells": [{"box": [[0, 1]], "map": ["x"]%s}]}'

    @pytest.mark.parametrize("argv, text", [
        (["cohomology", "--nerve", "FILE"], "{}"),
        (["cohomology", "--nerve", "FILE"], '{"vertices": 3, "simplices": [["a"]]}'),
        (["cohomology", "--nerve", "FILE"], '{"vertices": 3, "simplices": 5}'),
        (["mv-solve", "--problem", "FILE"], "{}"),
        (["mv-solve", "--problem", "FILE"], '{"slots": [1, 2]}'),
        (["mv-solve", "--problem", "FILE"], '{"slots": [{"dim": 0}, {"dim": "a"}, {"dim": 0}]}'),
        (["winding", "--loop", "FILE"], "{}"),
        (["gauss-bonnet", "--chi", "2", "--surface", "FILE"], "[1, 2]"),
        (chain, "not json"),
        (chain, "[1, 2]"),
        (chain, '{"ambient": 2}'),
        (chain, '{"ambient": 1, "cells": [1]}'),
        (chain, '{"ambient": 1, "cells": [{"box": 5, "map": ["x"]}]}'),
        (chain, '{"ambient": 1, "cells": [{"box": [[0, 1]], "map": [5]}]}'),
        (chain, cell % ', "weight": null'),
        (chain, cell % ', "weight": 0.5'),
        (chain, cell % ', "orientation": 2'),
        (["cohomology", "--sphere", "0"], None),
        (["cohomology", "--sphere", "-1"], None),
        (["cohomology", "--nerve", "FILE"], '{"vertices": 0}'),
        (["mv-solve", "--problem", "FILE"],
         '{"slots": [{"dim": 0}, {"dim": 1}, {"dim": 0}], "maps": [{"rank": 0}]}'),
        (chain, '{"ambient": 1, "cells": [{"box": [[1, 1]], "map": ["x"]}]}'),
        (chain + ["--quad", "1"], cell % ""),
        (chain + ["--quad", "0"], cell % ""),
        (chain + ["--quad", "65"], cell % ""),
        (["eval", "--form", "x", "--point", "a", "--dim", "1"], None),
        (["eval", "--form", "x", "--point", "1,,2", "--dim", "2"], None),
        (["d", "--form", "1", "--dim", "-1"], None),
        (chain, cell % ', "weight": "2"'),
        (chain + ["--quad", "2.5"], cell % ""),
        # JSON true and false are not numbers, although Python's bool is an int
        (chain, cell % ', "weight": true'),
        (chain, cell % ', "orientation": true'),
        (chain, '{"ambient": true, "cells": [{"box": [[0, 1]], "map": ["x"]}]}'),
        (chain, '{"ambient": 1, "cells": [{"box": [[false, true]], "map": ["x"]}]}'),
        (["cohomology", "--nerve", "FILE"], '{"vertices": 3, "simplices": [[0, true]]}'),
        (["mv-solve", "--problem", "FILE"], '{"slots": [{"dim": 0}, {"dim": true}, {"dim": 0}]}'),
    ])
    def test_malformed_input_is_two(self, capsys, tmp_path, argv, text):
        path = tmp_path / "input.json"
        if text is not None:
            path.write_text(text)
        self.fails_cleanly(capsys, 2, *(str(path) if a == "FILE" else a for a in argv))

    def test_deep_function_nest_never_escapes(self, capsys, tmp_path, circle_file, disk_file):
        # the deepest nest the parser accepts, through every verb that takes a
        # form or a map
        deep = "sin(" * 200 + "x" + ")" * 200
        loop = write_json(tmp_path / "loop.json", {"ambient": 2, "cells": [
            {"box": [[0.0, 2 * math.pi]], "map": ["cos(x)", f"sin(x) + {deep}"]}]})
        verbs = [
            ["d", "--form", f"{deep}*dy", "--dim", "2"],
            ["wedge", "--form", deep, "--form", "dy", "--dim", "2"],
            ["eval", "--form", f"{deep}*dy", "--point", "0.5,0.5", "--dim", "2"],
            ["pullback", "--map", f"map(u, v) = {deep.replace('x', 'u')}; u*v",
             "--form", f"{deep}*dy"],
            ["integrate", "--form", f"{deep}*dx", "--chain", circle_file],
            ["stokes", "--form", f"{deep}*dy", "--chain", disk_file],
            ["primitive", "--form", f"{deep}*dx", "--dim", "1"],
            ["winding", "--loop", loop],
            ["degree", "--map", f"map(x, y) = x; y + {deep}/9", "--domain", circle_file,
             "--codomain", circle_file, "--form", "(x*dy - y*dx)/(x^2 + y^2)"],
        ]
        for argv in verbs:
            code, out, err = run(capsys, *argv)
            assert code in (0, 1), argv[0]
            if code:
                assert out == "" and len(err.splitlines()) == 1, argv[0]
                assert err.startswith("error:") and "recursion" not in err, argv[0]


def test_python_m_runs_the_cli():
    proc = python("-m", "extcalc", "d", "--form", "x*dy", "--dim", "2")
    assert proc.returncode == 0
    assert proc.stdout == "dx/\\dy\n"


@pytest.mark.parametrize("given, expected", [(None, "1"), ("3", "3")])
def test_entry_runs_one_blas_thread_unless_told_otherwise(given, expected):
    script = (
        "import atexit, os\n"
        "atexit.register(lambda: print(os.environ['OPENBLAS_NUM_THREADS']))\n"
        "from extcalc.cli import entry\n"
        "entry()\n"
    )
    proc = python("-c", script, "explain", OPENBLAS_NUM_THREADS=given)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == expected


def test_main_leaves_the_blas_threads_alone(capsys):
    before = os.environ.get("OPENBLAS_NUM_THREADS")
    assert run(capsys, "explain")[0] == 0
    assert os.environ.get("OPENBLAS_NUM_THREADS") == before


# Loaded by every symbolic verb that reads a form or a map.
SYMBOLIC_CORE = {"cli", "errors", "scalar", "forms", "maps", "parsing"}

# The command line of the console script; at exit it prints the extcalc
# submodules, dataclasses and numpy that the run loaded.
FOOTPRINT = (
    "import atexit, json, sys\n"
    "atexit.register(lambda: print(json.dumps([m.removeprefix('extcalc.') for m in sys.modules\n"
    "    if m.startswith('extcalc.') or m in ('dataclasses', 'numpy')])))\n"
    "from extcalc.cli import entry\n"
    "entry()\n"
)


def test_symbolic_verbs_never_load_numpy(tmp_path, circle_file, disk_file):
    """Each verb, run in a fresh interpreter, loads only the modules it runs:
    the extcalc submodules, dataclasses and numpy in sys.modules after it."""
    nerve = write_json(tmp_path / "nerve.json", {"vertices": 3, "simplices": [[0, 1], [1, 2]]})
    problem = write_json(tmp_path / "mv.json", {"slots": [{"dim": 0}, {}, {"dim": 0}]})
    loops = [
        write_json(tmp_path / f"loop{i}.json", {"ambient": 3, "cells": [
            {"box": [[0.0, 2 * math.pi]], "map": components}]})
        for i, components in enumerate((["cos(x)", "sin(x)", "0"], ["1 + cos(x)", "0", "sin(x)"]))
    ]
    sphere = write_json(tmp_path / "sphere.json", {"ambient": 3, "cells": [
        {"box": [[0.0, math.pi], [0.0, 2 * math.pi]],
         "map": ["sin(x)*cos(y)", "sin(x)*sin(y)", "cos(x)"]}]})
    # argv, the modules it may load (None: no bound), modules it must not load
    symbolic = [
        (["d", "--form", "x*y*dx + exp(x)*dy", "--dim", "2"], SYMBOLIC_CORE, set()),
        (["wedge", "--form", "x*dx", "--form", "y*dy", "--dim", "2"], SYMBOLIC_CORE, set()),
        (["eval", "--form", "sin(x)*dy", "--dim", "2", "--point", "1,2"], SYMBOLIC_CORE, set()),
        (["pullback", "--map", "map(r, theta) = r*cos(theta); r*sin(theta)",
          "--form", "dx/\\dy"], SYMBOLIC_CORE, set()),
        (["primitive", "--form", "y*dx + x*dy", "--dim", "2"],
         SYMBOLIC_CORE | {"homotopy", "dataclasses"}, set()),
        (["cohomology", "--sphere", "3"], None, {"scalar", "numpy"}),
        (["cohomology", "--nerve", nerve], None, {"scalar", "numpy"}),
        (["mv-solve", "--problem", problem], None, {"scalar", "numpy"}),
        (["explain"], None, {"scalar", "numpy"}),
    ]
    never = {"cohomology", "homotopy", "tensors", "shapes"}
    numeric = [
        (["integrate", "--form", "x*dy - y*dx", "--chain", circle_file], None, never),
        (["stokes", "--form", "x*dy", "--chain", disk_file, "--quad", "4"], None, never),
        (["winding", "--loop", circle_file, "--quad", "8"], None, never),
        (["linking", "--loop1", loops[0], "--loop2", loops[1], "--quad", "8"], None, never),
        (["degree", "--map", "map(x, y) = x^2 - y^2; 2*x*y", "--domain", circle_file,
          "--codomain", circle_file, "--form", "x*dy - y*dx", "--quad", "8"], None, never),
        (["gauss-bonnet", "--surface", sphere, "--chi", "2", "--quad", "4"], None, never),
    ]
    cases = symbolic + numeric
    with ThreadPoolExecutor(2) as pool:
        procs = list(pool.map(lambda case: python("-c", FOOTPRINT, *case[0]), cases))
    for case, proc in zip(cases, procs):
        argv, allowed, forbidden = case
        assert proc.returncode == 0, (argv, proc.stderr)
        loaded = set(json.loads(proc.stdout.splitlines()[-1]))
        assert allowed is None or loaded <= allowed, (argv[0], loaded - allowed)
        assert not loaded & forbidden, (argv[0], loaded & forbidden)
        assert ("numpy" in loaded) == (case in numeric), argv[0]
