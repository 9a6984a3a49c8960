"""Command-line front end.

Verbs: eval, d, wedge, pullback, integrate, stokes, primitive, cohomology,
mv-solve, winding, linking, degree, gauss-bonnet, explain.

Exit codes: 0 success, 1 domain error (singularity, inconsistency, bad
geometry, overflow, a non-finite result), 2 usage or parse error (including
non-finite input numbers); the class of an ExtcalcError sets its code.
``--json`` switches output to a single machine-readable object.  Numbers
print with 12 significant digits and residuals in scientific notation, so
output is byte-stable across runs.

Each verb imports the modules it runs inside its handler, so a process
loads only those: the cohomology verbs load no expression engine, the other
symbolic verbs no cohomology, quadrature or geometry, and only the
quadrature and geometry verbs load numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import TYPE_CHECKING

from .errors import ExtcalcError, ParseError, SingularityError, json_fields, json_list, json_number

if TYPE_CHECKING:
    from .cells import Chain
    from .geometry import Loop, Surface


def fmt(x: float) -> str:
    return f"{float(x):.12g}"


def fmt_residual(x: float) -> str:
    return f"{float(x):.6e}"


def _all_finite(value) -> bool:
    """True when every number in a (nested) result is finite."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    return True


def finite(text: str) -> float:
    """The argparse type of --tol and of each --point item: a finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ParseError(f"{text!r} is not a finite number")
    return value


def point(text: str) -> list:
    """The argparse type of --point: comma-separated finite floats."""
    return [finite(p) for p in text.split(",")]


def quad_points(text: str) -> int:
    """The argparse type of --quad: ``cells.quad_points``, loaded only when
    the flag is given."""
    from .cells import quad_points

    return quad_points(text)


def read_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as err:
            raise ParseError(f"{path} is not valid JSON: {err}") from err


def load_chain(path: str) -> Chain:
    from .cells import Cell, Chain
    from .parsing import parse_map_components

    ambient, cells = json_fields(read_json(path), "chain", "ambient", "cells")
    terms = []
    for entry in json_list(cells, "chain cells"):
        box, components, orientation, weight = json_fields(
            entry, "cell", "box", "map", orientation=1, weight=1
        )
        try:
            box = tuple((float(json_number(a, "box bound")), float(json_number(b, "box bound")))
                        for a, b in box)
        except (TypeError, ValueError) as err:
            raise ParseError("a cell box must be a list of [low, high] number pairs") from err
        mapping = parse_map_components(components, len(box))
        if mapping.m != json_number(ambient, "chain ambient"):
            raise ParseError(
                f"cell map has {mapping.m} components but ambient is {ambient!r}"
            )
        cell = Cell(box, mapping, json_number(orientation, "cell orientation"))
        terms.append((json_number(weight, "chain weight"), cell))
    return Chain(terms)


def load_loop(path: str) -> Loop:
    from .geometry import Loop

    chain = load_chain(path)
    if len(chain) != 1 or chain.k != 1:
        raise ParseError("a loop file holds exactly one 1-cell")
    weight, cell = chain.terms[0]
    if weight != 1:
        raise ParseError("loop cells carry weight 1; flip orientation instead")
    return Loop(cell)


def load_surface(path: str, chi: int) -> Surface:
    from .geometry import Surface

    chain = load_chain(path)
    if chain.k != 2 or chain.ambient != 3:
        raise ParseError("a surface file holds 2-cells in R^3")
    cells = []
    for w, cell in chain:
        if w not in (1, -1):
            raise ParseError("surface cells carry weight +-1")
        cells.append(cell if w == 1 else cell.flipped())
    return Surface(cells, chi)


def emit(args, verb, inputs, result, residual=None, text=None):
    if not (_all_finite(result) and _all_finite(residual)):
        raise SingularityError("the result is not a finite number")
    if args.json:
        payload = {
            "verb": verb,
            "inputs": inputs,
            "result": result,
            "provenance": "computed",
        }
        if residual is not None:
            payload["residual"] = residual
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


# ---------------------------------------------------------------------------
# Verb implementations


def cmd_eval(args):
    from .parsing import parse_form
    from .scalar import axis_name

    form = parse_form(args.form, args.dim)
    if form.k == 0:
        coeff = form.terms.get(())
        value = coeff.evaluate(args.point) if coeff is not None else 0.0
        emit(args, "eval", {"form": args.form, "point": args.point}, value, text=fmt(value))
        return 0
    values = {
        "/\\".join(f"d{axis_name(i, form.n)}" for i in idx): c.evaluate(args.point)
        for idx, c in sorted(form.terms.items())
    }
    text = ", ".join(f"{k}: {fmt(v)}" for k, v in values.items()) or "0"
    emit(args, "eval", {"form": args.form, "point": args.point}, values, text=text)
    return 0


def cmd_d(args):
    from .parsing import parse_form

    form = parse_form(args.form, args.dim)
    result = form.d()
    emit(args, "d", {"form": args.form, "dim": args.dim}, str(result), text=str(result))
    return 0


def cmd_wedge(args):
    from .parsing import parse_form

    if len(args.form) != 2:
        raise ParseError("wedge needs --form given exactly twice")
    a = parse_form(args.form[0], args.dim)
    b = parse_form(args.form[1], args.dim)
    result = a.wedge(b)
    emit(args, "wedge", {"forms": args.form, "dim": args.dim}, str(result), text=str(result))
    return 0


def cmd_pullback(args):
    from .maps import pullback as pull
    from .parsing import parse_form, parse_map

    g = parse_map(args.map)
    form = parse_form(args.form, g.m)
    result = pull(g, form)
    emit(
        args,
        "pullback",
        {"map": args.map, "form": args.form},
        str(result),
        text=str(result),
    )
    return 0


def cmd_integrate(args):
    from .integrate import integrate
    from .parsing import parse_form

    chain = load_chain(args.chain)
    form = parse_form(args.form, chain.ambient)
    value = integrate(form, chain, args.quad)
    emit(
        args,
        "integrate",
        {"form": args.form, "chain": args.chain, "quad": args.quad},
        value,
        text=fmt(value),
    )
    return 0


def _tol_verdict(residual, tol):
    return "within tolerance" if residual <= tol else "EXCEEDS tolerance"


def cmd_stokes(args):
    from .integrate import stokes_check
    from .parsing import parse_form

    chain = load_chain(args.chain)
    form = parse_form(args.form, chain.ambient)
    lhs, rhs, residual = stokes_check(form, chain, args.quad)
    emit(
        args,
        "stokes",
        {"form": args.form, "chain": args.chain, "quad": args.quad, "tol": args.tol},
        {"lhs": lhs, "rhs": rhs, "verdict": _tol_verdict(residual, args.tol)},
        residual=residual,
        text=(
            f"int d(form) = {fmt(lhs)}\n"
            f"int over boundary = {fmt(rhs)}\n"
            f"residual = {fmt_residual(residual)} ({_tol_verdict(residual, args.tol)})"
        ),
    )
    return 0


def cmd_primitive(args):
    from .homotopy import primitive
    from .parsing import parse_form

    form = parse_form(args.form, args.dim)
    b = primitive(form)
    check = b.d() - form
    emit(
        args,
        "primitive",
        {"form": args.form, "dim": args.dim},
        str(b),
        residual=str(check),
        text=f"primitive = {b}\nd(primitive) - form = {check}",
    )
    return 0


def cmd_cohomology(args):
    from .cohomology import Nerve, cech_betti, sphere_betti

    if args.sphere is not None:
        betti = sphere_betti(args.sphere)
        inputs = {"sphere": args.sphere}
    elif args.nerve:
        betti = cech_betti(Nerve.from_json(read_json(args.nerve)))
        inputs = {"nerve": args.nerve}
    else:
        raise ParseError("cohomology needs --nerve FILE or --sphere N")
    emit(args, "cohomology", inputs, betti, text=f"b = {betti}")
    return 0


def cmd_mv_solve(args):
    from .cohomology import ExactSequenceProblem, mv_solve

    solution = mv_solve(ExactSequenceProblem.from_json(read_json(args.problem)))
    emit(
        args,
        "mv-solve",
        {"problem": args.problem},
        {"dims": solution.dims, "determined": solution.determined},
        text=str(solution),
    )
    return 0


def _emit_integer(args, verb, inputs, value, nearest):
    """Output of the verbs whose value should lie near an integer."""
    gap = abs(value - nearest)
    emit(
        args,
        verb,
        inputs,
        {"value": value, "integer": nearest, "verdict": _tol_verdict(gap, args.tol)},
        residual=gap,
        text=f"{verb} = {fmt(value)} (integer {nearest}, gap {fmt_residual(gap)})",
    )
    return 0


def cmd_winding(args):
    from .geometry import winding_number

    loop = load_loop(args.loop)
    value, nearest = winding_number(loop, args.quad)
    inputs = {"loop": args.loop, "quad": args.quad, "tol": args.tol}
    return _emit_integer(args, "winding", inputs, value, nearest)


def cmd_linking(args):
    from .geometry import linking_number

    l1 = load_loop(args.loop1)
    l2 = load_loop(args.loop2)
    value, nearest = linking_number(l1, l2, args.quad)
    inputs = {"loop1": args.loop1, "loop2": args.loop2, "quad": args.quad, "tol": args.tol}
    return _emit_integer(args, "linking", inputs, value, nearest)


def cmd_degree(args):
    from .geometry import mapping_degree
    from .parsing import parse_form, parse_map

    f = parse_map(args.map)
    domain = load_chain(args.domain)
    codomain = load_chain(args.codomain)
    testform = parse_form(args.form, codomain.ambient)
    value, nearest = mapping_degree(f, domain, codomain, testform, args.quad)
    inputs = {"map": args.map, "domain": args.domain, "codomain": args.codomain,
              "form": args.form, "quad": args.quad, "tol": args.tol}
    return _emit_integer(args, "degree", inputs, value, nearest)


def cmd_gauss_bonnet(args):
    from .geometry import gauss_bonnet_check

    surface = load_surface(args.surface, args.chi)
    total, expected, residual = gauss_bonnet_check(surface, args.quad)
    emit(
        args,
        "gauss-bonnet",
        {"surface": args.surface, "chi": args.chi, "quad": args.quad, "tol": args.tol},
        {
            "curvature_integral": total,
            "two_pi_chi": expected,
            "verdict": _tol_verdict(residual, args.tol),
        },
        residual=residual,
        text=(
            f"int K dA = {fmt(total)}\n"
            f"2 pi chi = {fmt(expected)}\n"
            f"residual = {fmt_residual(residual)} ({_tol_verdict(residual, args.tol)})"
        ),
    )
    return 0


def cmd_explain(args):
    from .cohomology import known_cohomology_tables

    tables = known_cohomology_tables()
    lines = [
        "H^0(connected manifold) = 1",
        "H^n(compact connected orientable n-manifold) = 1",
        "H^n(compact connected non-orientable n-manifold) = 0",
        "compactly supported cohomology of R^n: 1 in degree n, else 0",
    ] + [f"sphere S^{n}: b = {betti}" for n, betti in tables["spheres"].items()]
    emit(args, "explain", {}, tables, text="\n".join(lines))
    return 0


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line, like every other failure."""

    def error(self, message):
        self.exit(2, f"error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="extcalc",
        description="symbolic/numeric exterior calculus",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, fn, **flags):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true")
        p.add_argument("--quad", type=quad_points, default=16)
        p.add_argument("--tol", type=finite, default=1e-8)
        for flag, kwargs in flags.items():
            p.add_argument(f"--{flag.replace('_', '-')}", **kwargs)
        return p

    add("eval", cmd_eval, form={"required": True}, dim={"type": int, "default": 3},
        point={"type": point, "required": True})
    add("d", cmd_d, form={"required": True}, dim={"type": int, "default": 3})
    add("wedge", cmd_wedge, form={"action": "append", "required": True},
        dim={"type": int, "default": 3})
    add("pullback", cmd_pullback, map={"required": True}, form={"required": True})
    add("integrate", cmd_integrate, form={"required": True}, chain={"required": True})
    add("stokes", cmd_stokes, form={"required": True}, chain={"required": True})
    add("primitive", cmd_primitive, form={"required": True},
        dim={"type": int, "default": 3})
    add("cohomology", cmd_cohomology, nerve={}, sphere={"type": int})
    add("mv-solve", cmd_mv_solve, problem={"required": True})
    add("winding", cmd_winding, loop={"required": True})
    add("linking", cmd_linking, loop1={"required": True}, loop2={"required": True})
    add("degree", cmd_degree, map={"required": True}, domain={"required": True},
        codomain={"required": True}, form={"required": True})
    add("gauss-bonnet", cmd_gauss_bonnet, surface={"required": True},
        chi={"type": int, "required": True})
    add("explain", cmd_explain)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as err:
        return int(err.code or 0)
    except ExtcalcError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except OverflowError as err:
        print(f"error: numeric overflow ({err})", file=sys.stderr)
        return 1
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entry():  # console-script hook
    # numpy's OpenBLAS starts a thread pool when it loads, and the largest
    # BLAS call here is a 3x3 det or solve: one thread starts faster.  A
    # value the user set wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    raise SystemExit(main())
