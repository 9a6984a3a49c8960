"""The four benchmark workloads.

Each workload builds its inputs from a seed in ``__init__`` (the set-up),
then offers a list of jobs.  ``execute(job)`` does the work that is timed;
``check(job, result)`` compares the result with an oracle outside the timed
region and returns an ``Outcome``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import gen
import speed

DIGITS_CAP = 12.0


@dataclass
class Outcome:
    ok: bool
    digits: float | None = None  # -log10 relative error, for numeric jobs
    note: str = ""


def digits(value, ref):
    err = abs(value - ref) / max(1.0, abs(ref))
    if err == 0.0:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(err))


def _numeric_outcome(value, ref, tol, what):
    if not (isinstance(value, float) and math.isfinite(value)):
        return Outcome(False, None, f"{what}: non-finite value {value!r}")
    good = abs(value - ref) <= tol * max(1.0, abs(ref))
    return Outcome(good, digits(value, ref), "" if good else f"{what}: {value!r} vs {ref!r}")


class Workload:
    """Set-up builds ``self.jobs``; the worker times ``execute``."""

    # Run whole passes over ``jobs`` (fixed job sets) rather than stopping
    # at the first job after the deadline.
    whole_passes = False
    # Jobs in one traced run: a fixed count, so span counts repeat exactly.
    traced_jobs = 100
    # How the machine's speed is measured between jobs, and the CPU time a
    # job is charged with (see speed.py).
    speed_probe = speed.Kernel
    cpu_clock = staticmethod(time.process_time)

    def job_count(self, seconds):
        """Jobs in one timed run; None runs jobs until ``seconds`` have passed."""
        return None

    def execute(self, job):
        raise NotImplementedError

    def execute_in_process(self, job):
        """The traced run's variant of ``execute``; the same by default."""
        return self.execute(job)

    def check(self, job, result) -> Outcome:
        raise NotImplementedError

    def close(self):
        pass


# ---------------------------------------------------------------------------
# exact: parsing, scalar, forms, maps, homotopy, cohomology; no quadrature


ELEMENTARY = ("poly", "exp", "sin", "cos")


class Exact(Workload):
    """Jobs come in blocks with a fixed mix of kinds, shuffled; the inputs
    inside each job are random.  Each block holds one sphere nerve whose
    dimension follows ``SPHERES``, so the heavy S^6 and S^7 ranks recur at a
    fixed rate and cohomology takes about a fifth of the time."""

    traced_jobs = 250
    BLOCK = {"dd": 5, "leibniz": 4, "graded": 3, "compose": 3, "primitive": 3,
             "cartan": 2, "nerve": 4}
    SPHERES = (1, 2, 3, 4, 5, 6, 2, 3, 4, 5, 1, 2, 3, 4, 7)

    def __init__(self, seed, root, blocks=200):
        import extcalc as ec

        self.ec = ec
        rng = random.Random(seed)
        self.jobs = []
        for b in range(blocks):
            kinds = [k for k, count in self.BLOCK.items() for _ in range(count)]
            rng.shuffle(kinds)
            sphere = self.SPHERES[b % len(self.SPHERES)]
            for kind in kinds:
                if kind == "nerve" and sphere:
                    self.jobs.append(self._make(rng, "sphere", sphere))
                    sphere = 0
                else:
                    self.jobs.append(self._make(rng, kind))

    @staticmethod
    def _make(rng, kind, sphere=0):
        n = rng.randint(2, 4)
        if kind == "dd":
            return kind, n, gen.form(rng, n, rng.randint(0, n - 2))
        if kind in ("leibniz", "graded"):
            # at most one factor with a quotient or square root: products of
            # the two swell like sums of them do (see gen.form)
            k1 = rng.randint(0, n - 1)
            k2 = rng.randint(0, n - k1 - (1 if kind == "leibniz" else 0))
            return kind, n, (gen.form(rng, n, k1, max_terms=2),
                             gen.form(rng, n, k2, kinds=ELEMENTARY, max_terms=2))
        if kind == "compose":
            p, q, r = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
            # sin only in the outer map: sin of sin makes single jobs take seconds
            w = gen.form(rng, r, rng.randint(0, min(p, r)), kinds=ELEMENTARY, max_terms=2)
            return kind, r, (gen.smooth_map(rng, p, q, trig=False), gen.smooth_map(rng, q, r), w)
        if kind == "primitive":
            return kind, n, gen.form(rng, n, rng.randint(0, n - 1), kinds=("poly",))
        if kind == "cartan":
            v = [gen.coefficient(rng, gen.AXES[:n], "poly") for _ in range(n)]
            a = gen.form(rng, n, rng.randint(0, n - 1), kinds=ELEMENTARY, max_terms=2)
            return kind, n, (v, a)
        data, betti, sphere = gen.sphere_nerve(rng, sphere) if sphere else gen.nerve(rng)
        mv = json.dumps(gen.sphere_sequence_json(sphere)) if sphere else None
        return "nerve", n, (json.dumps(data), betti, sphere, mv)

    def execute(self, job):
        ec = self.ec
        kind, n, payload = job
        if kind == "dd":
            return ec.parse_form(payload, n).d().d()
        if kind == "leibniz":
            a, b = (ec.parse_form(t, n) for t in payload)
            sign = -1 if a.k % 2 else 1
            return a.wedge(b).d() - (a.d().wedge(b) + a.wedge(b.d()) * sign)
        if kind == "graded":
            a, b = (ec.parse_form(t, n) for t in payload)
            sign = -1 if (a.k * b.k) % 2 else 1
            return a.wedge(b) - b.wedge(a) * sign
        if kind == "compose":
            g, h = ec.parse_map(payload[0]), ec.parse_map(payload[1])
            w = ec.parse_form(payload[2], n)
            return ec.pullback(ec.compose(h, g), w) - ec.pullback(g, ec.pullback(h, w))
        if kind == "primitive":
            a = ec.parse_form(payload, n).d()
            return ec.primitive(a).d() - a
        if kind == "cartan":
            v = ec.VectorFieldSym(n, [ec.parse_scalar(c, n) for c in payload[0]])
            a = ec.parse_form(payload[1], n)
            return ec.lie_derivative(v, a).d() - ec.lie_derivative(v, a.d())
        text, _, sphere, mv = payload
        out = {"betti": ec.cech_betti(ec.Nerve.from_json(json.loads(text)))}
        if sphere:
            out["sphere_betti"] = ec.sphere_betti(sphere)
            out["mv"] = ec.mv_solve(ec.ExactSequenceProblem.from_json(json.loads(mv)))
        return out

    def check(self, job, result):
        kind, _, payload = job
        if kind != "nerve":
            ok = result.is_zero()
            return Outcome(ok, DIGITS_CAP if ok else None, "" if ok else f"{kind}: {result}")
        text, betti, sphere, _ = payload
        data = json.loads(text)
        chi = gen.euler_characteristic(data["vertices"], data["simplices"])
        got = result["betti"]
        ok = got == betti and sum((-1) ** k * b for k, b in enumerate(got)) == chi
        if sphere:
            mv = result["mv"]
            ok = ok and result["sphere_betti"] == gen.sphere_betti(sphere) and mv.determined
            ok = ok and all(mv.dims[i] == v for i, v in gen.sphere_sequence_answer(sphere).items())
        return Outcome(ok, DIGITS_CAP if ok else None, "" if ok else f"nerve: {got} vs {betti}")


# ---------------------------------------------------------------------------
# quad_fine: the paper's geometries at high quadrature order


def _loop(ec, text):
    from extcalc.cells import Cell

    return ec.Loop(Cell(((0.0, 2 * math.pi),), ec.parse_map(text)))


class QuadFine(Workload):
    """A fixed job set over geometries built once in set-up; the seed only
    shuffles the order of each pass.  Whole passes are run, so every run
    sees the same latency distribution."""

    whole_passes = True

    def __init__(self, seed, root):
        import extcalc as ec
        from extcalc import shapes

        self.ec = ec
        pi = math.pi
        area = ec.sphere_area_form()
        ball = ec.parse_form("(1 + z + x^2)*dx/\\dy/\\dz", 3)
        surfaces = {
            "sphere": (ec.Surface([shapes.sphere_cell()], 2), 4 * pi),
            "torus": (ec.Surface([shapes.torus_cell()], 0), 8 * pi * pi),
            "ellipsoid": (ec.Surface([shapes.ellipsoid_cell()], 2), None),
        }
        for surface, _ in surfaces.values():
            for cell in surface.cells:
                cell.mapping.jacobian_at([0.5, 0.5])  # compile once, as a reused cell would
        hopf = (_loop(ec, "map(s) = cos(s); sin(s); 0"), _loop(ec, "map(s) = 1 + cos(s); 0; sin(s)"))
        far = (hopf[0], _loop(ec, "map(s) = 5 + cos(s); 0; sin(s)"))
        jobs = []
        # (name, thunk, reference, relative tolerance the current rule meets)
        for q in (32, 64):
            cell = shapes.sphere_cell()
            jobs.append((f"area-q{q}", lambda c=cell, q=q: ec.integrate_cell(area, c, q), 4 * pi, 1e-12))
        for q in (32, 48):
            cell = shapes.half_ball_cell()
            jobs.append((f"ball-q{q}", lambda c=cell, q=q: ec.integrate_cell(ball, c, q), 21 * pi / 20, 1e-12))
        for name, (surface, _) in surfaces.items():
            for q in (24, 48, 64):
                tol = 1e-4 if (name, q) == ("ellipsoid", 24) else 1e-8
                jobs.append((f"gauss-bonnet-{name}-q{q}",
                             lambda s=surface, q=q: ec.gauss_bonnet_check(s, q)[0],
                             2 * pi * surface.chi, tol))
        for label, pair, ref in (("hopf", hopf, -1.0), ("far", far, 0.0)):
            for q in (32, 64):
                tol = 1e-5 if q == 32 else 1e-10
                jobs.append((f"linking-{label}-q{q}",
                             lambda p=pair, q=q: ec.linking_number(p[0], p[1], q)[0], ref, tol))
        for k in range(-2, 4):
            loop = ec.Loop(shapes.circle_cell(k=k))
            jobs.append((f"winding-{k}", lambda lp=loop: ec.winding_number(lp, 32)[0], float(k), 1e-12))
        for name in ("sphere", "torus"):
            surface, ref = surfaces[name]
            jobs.append((f"surface-area-{name}", lambda s=surface: ec.surface_area(s, 24), ref, 1e-12))
        rng = random.Random(seed)
        rng.shuffle(jobs)
        self.jobs = jobs

    def execute(self, job):
        return job[1]()

    def check(self, job, result):
        name, _, ref, tol = job
        return _numeric_outcome(result, ref, tol, name)


# ---------------------------------------------------------------------------
# quad_coarse: fresh integrands, few nodes


class QuadCoarse(Workload):
    """Stokes checks of random polynomial (k-1)-forms over perturbed unit
    boxes at q = 5..10.  Coefficients have degree <= 2 and the chart is
    quadratic, so every pulled-back integrand has degree <= 6 per axis and
    q >= 4 Gauss-Legendre points integrate it exactly: the residual is
    round-off."""

    traced_jobs = 200

    def __init__(self, seed, root, count=6000):
        import extcalc as ec
        from extcalc.cells import Cell

        self.ec = ec
        self.Cell = Cell
        rng = random.Random(seed)
        self.jobs = []
        for _ in range(count):
            k = rng.randint(1, 3)
            form = gen.form(rng, k, k - 1, kinds=("poly",))
            chart = gen.perturbed_box_map(rng, k)
            self.jobs.append((k, form, chart, rng.randint(5, 10)))

    def execute(self, job):
        k, form, chart, q = job
        ec = self.ec
        cell = self.Cell(((0.0, 1.0),) * k, ec.parse_map(chart))
        lhs, rhs, _ = ec.stokes_check(ec.parse_form(form, k), cell, q)
        return lhs, rhs

    def check(self, job, result):
        lhs, rhs = result
        return _numeric_outcome(lhs, rhs, 1e-12, f"stokes k={job[0]} q={job[3]}")


# ---------------------------------------------------------------------------
# cli: one subprocess per job through extcalc.cli.entry


ENTRY = "from extcalc.cli import entry; entry()"
TOL = 1e-8  # the CLI's default --tol


def _json_strict(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def _py_eval(text, point):
    """Evaluate generated scalar text with Python floats: the oracle for
    ``eval``, independent of the library."""
    env = {"exp": math.exp, "sin": math.sin, "cos": math.cos, "sqrt": math.sqrt}
    env.update(zip(gen.AXES, point))
    return float(eval(text.replace("^", "**"), {"__builtins__": {}}, env))  # noqa: S307


def _chain(ambient, box, comps):
    return {"ambient": ambient, "cells": [{"weight": 1, "box": box, "map": comps}]}


TWO_PI = 2 * math.pi
SPHERE = _chain(3, [[0.0, math.pi], [0.0, TWO_PI]],
                ["sin(x)*cos(y)", "sin(x)*sin(y)", "cos(x)"])
TORUS = _chain(3, [[0.0, TWO_PI], [0.0, TWO_PI]],
               ["(2 + cos(y))*cos(x)", "(2 + cos(y))*sin(x)", "sin(y)"])
HOPF = (_chain(3, [[0.0, TWO_PI]], ["cos(x)", "sin(x)", "0"]),
        _chain(3, [[0.0, TWO_PI]], ["1 + cos(x)", "0", "sin(x)"]))
FAR = _chain(3, [[0.0, TWO_PI]], ["5 + cos(x)", "0", "sin(x)"])

# Inputs that must end with exit 1 or 2 and a single ``error:`` line on
# stderr.  Kind "hostile": the inputs of ROADMAP item 5, which this version
# of the library does not reject cleanly yet; a failure is counted but
# leaves the run correct.  Kind "error": error paths that work today; a
# failure makes the run incorrect.
HOSTILE = (
    ("hostile", ["eval", "--form", "exp(x)", "--point", "1000", "--dim", "1"]),
    ("error", ["d", "--form", "x +* y", "--dim", "2"]),
    ("hostile", ["eval", "--form", "x", "--point", "nan", "--dim", "1", "--json"]),
    ("error", ["winding", "--loop", "{through_origin}"]),
    ("hostile", ["d", "--form", "(" * 3000 + "x" + ")" * 3000, "--dim", "1"]),
    ("hostile", ["eval", "--form", "x^2", "--point", "1e200", "--dim", "1"]),
)


class Cli(Workload):
    """The six hostile inputs first, in seeded order, so every run and the
    traced run see all of them; then blocks of every verb once, shuffled,
    so each run of a few blocks sees the whole verb mix.

    A timed run is a fixed number of whole blocks set by ``--seconds``, not
    a deadline: the hostile inputs fail in every run, so ``attempted`` must
    not follow the host's speed for ``failed / attempted`` to repeat."""

    VERBS = ("d", "wedge", "pullback", "primitive", "eval", "integrate", "stokes", "winding",
             "linking", "degree", "gauss-bonnet", "cohomology", "mv-solve", "explain")
    traced_jobs = 120
    # Wall time of one block of every verb on a busy host (14 jobs of up to
    # 0.5 s), so that a run's jobs take at most about --seconds.
    BLOCK_SECONDS = 7.0
    speed_probe = speed.Interpreter
    cpu_clock = staticmethod(speed.children_cpu_seconds)

    def __init__(self, seed, root, blocks=20):
        import extcalc as ec

        self.ec = ec
        self.root = root
        self.dir = os.path.join(root, ".bench_build", "perfbench", f"cli-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH="src")
        self.files = {}
        for name, data in (("sphere", SPHERE), ("torus", TORUS), ("hopf1", HOPF[0]),
                           ("hopf2", HOPF[1]), ("far", FAR),
                           ("through_origin", _chain(2, [[0.0, TWO_PI]], ["1 + cos(x)", "sin(x)"]))):
            self._write(name, data)
        rng = random.Random(seed)
        self.jobs = [(kind, [a.format(**self.files) for a in argv], None) for kind, argv in HOSTILE]
        rng.shuffle(self.jobs)
        for b in range(blocks):
            verbs = list(self.VERBS)
            rng.shuffle(verbs)
            for verb in verbs:
                argv, expect = getattr(self, "_" + verb.replace("-", "_"))(rng, len(self.jobs), b)
                if (b + self.VERBS.index(verb)) % 4 == 0 and verb != "explain":
                    argv.append("--json")  # each verb in every fourth block
                self.jobs.append((verb, argv, expect))

    def job_count(self, seconds):
        return len(HOSTILE) + len(self.VERBS) * max(1, round(seconds / self.BLOCK_SECONDS))

    def _write(self, name, data):
        path = os.path.join(self.dir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        self.files[name] = os.path.relpath(path, self.root)
        return self.files[name]

    # -- jobs: (argv, expectation) ------------------------------------------

    def _d(self, rng, i, block):
        n = rng.randint(2, 3)
        text = gen.form(rng, n, rng.randint(0, n - 1))
        return ["d", f"--form={text}", "--dim", str(n)], ("form", n, lambda ec: ec.parse_form(text, n).d())

    def _wedge(self, rng, i, block):
        n = rng.randint(2, 3)
        a = gen.form(rng, n, rng.randint(0, n - 1), max_terms=2)
        b = gen.form(rng, n, rng.randint(0, n - 1), max_terms=2)
        return (["wedge", f"--form={a}", f"--form={b}", "--dim", str(n)],
                ("form", n, lambda ec: ec.parse_form(a, n).wedge(ec.parse_form(b, n))))

    def _pullback(self, rng, i, block):
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        g = gen.smooth_map(rng, p, q)
        w = gen.form(rng, q, rng.randint(0, min(p, q)), kinds=ELEMENTARY, max_terms=2)
        return (["pullback", f"--map={g}", f"--form={w}"],
                ("form", p, lambda ec: ec.pullback(ec.parse_map(g), ec.parse_form(w, q))))

    def _primitive(self, rng, i, block):
        n = rng.randint(2, 3)
        a = "0"
        while a == "0":  # d of a closed b is zero, which has no primitive to find
            b = gen.form(rng, n, rng.randint(0, n - 1), kinds=("poly",))
            a = str(self.ec.parse_form(b, n).d())
        return ["primitive", f"--form={a}", "--dim", str(n)], ("primitive", n, a)

    def _eval(self, rng, i, block):
        n = rng.randint(1, 3)
        text = gen.coefficient(rng, gen.AXES[:n], rng.choice(gen.COEFF_KINDS))
        point = [round(rng.uniform(-1.5, 1.5), 3) for _ in range(n)]
        return (["eval", f"--form={text}", "--point=" + ",".join(map(str, point)), "--dim", str(n)],
                ("number", _py_eval(text, point)))

    def _integrate(self, rng, i, block):
        r = rng.choice((1, 2, 3))
        name = self._write(f"circle{r}", _chain(2, [[0.0, TWO_PI]], [f"{r}*cos(x)", f"{r}*sin(x)"]))
        return (["integrate", "--form", "x*dy - y*dx", "--chain", name, "--quad", str(rng.randint(12, 24))],
                ("number", TWO_PI * r * r))

    def _stokes(self, rng, i, block):
        name = self._write("square", _chain(2, [[0.0, 1.0], [0.0, 1.0]], ["x + 1/8*x*y", "y - 1/16*x^2"]))
        form = gen.form(rng, 2, 1, kinds=("poly",), max_terms=2)
        return ["stokes", f"--form={form}", "--chain", name, "--quad", str(rng.randint(6, 16))], ("stokes",)

    def _winding(self, rng, i, block):
        k = rng.randint(-2, 3) or 1
        name = self._write(f"loop{k}", _chain(2, [[0.0, TWO_PI]], [f"cos({k}*x)", f"sin({k}*x)"]))
        return ["winding", "--loop", name, "--quad", "32"], ("integer", k)

    def _linking(self, rng, i, block):
        far = rng.random() < 0.5
        other = self.files["far"] if far else self.files["hopf2"]
        return (["linking", "--loop1", self.files["hopf1"], "--loop2", other, "--quad", "64"],
                ("integer", 0 if far else -1))

    def _degree(self, rng, i, block):
        k = rng.randint(1, 3)
        z = {1: "map(x, y) = x; y", 2: "map(x, y) = x^2 - y^2; 2*x*y",
             3: "map(x, y) = x^3 - 3*x*y^2; 3*x^2*y - y^3"}[k]
        circle = self._write("circle1", _chain(2, [[0.0, TWO_PI]], ["cos(x)", "sin(x)"]))
        return (["degree", f"--map={z}", "--domain", circle, "--codomain", circle,
                 "--form", "x*dy - y*dx", "--quad", "32"], ("integer", k))

    def _gauss_bonnet(self, rng, i, block):
        name = ("sphere", "torus")[block % 2]
        chi = 2 if name == "sphere" else 0
        return (["gauss-bonnet", "--surface", self.files[name], "--chi", str(chi),
                 "--quad", str(rng.choice((12, 16)))], ("gauss-bonnet",))

    def _cohomology(self, rng, i, block):
        if rng.random() < 0.5:
            n = rng.randint(1, 5)
            return ["cohomology", "--sphere", str(n)], ("betti", gen.sphere_betti(n))
        data, betti, _ = gen.nerve(rng)
        return ["cohomology", "--nerve", self._write(f"nerve{i}", data)], ("betti", betti)

    def _mv_solve(self, rng, i, block):
        n = rng.randint(1, 5)
        name = self._write(f"mv{n}", gen.sphere_sequence_json(n))
        return ["mv-solve", "--problem", name], ("mv", gen.sphere_sequence_answer(n))

    def _explain(self, rng, i, block):
        return ["explain"], ("explain",)

    # -- run and check ---------------------------------------------------------

    def execute(self, job):
        return subprocess.run([sys.executable, "-c", ENTRY, *job[1]], cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=30)

    def execute_in_process(self, job):
        """``cli.main(argv)`` in this process with stdout and stderr captured,
        so the traced run sees the library calls behind each verb."""
        from extcalc import cli

        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(job[1])
        except Exception:  # escapes main: a traceback, as the subprocess shows it
            code = 1
            err.write(traceback.format_exc())
        return subprocess.CompletedProcess(job[1], code, out.getvalue(), err.getvalue())

    def check(self, job, proc):
        kind, argv, expect = job
        err_lines = [ln for ln in proc.stderr.splitlines() if ln.strip()]
        if kind in ("hostile", "error"):
            ok = (proc.returncode in (1, 2) and len(err_lines) == 1
                  and err_lines[0].startswith("error:") and not proc.stdout.strip())
            shown = " ".join(a if len(a) < 40 else a[:20] + "..." for a in argv)
            return Outcome(ok, None, "" if ok else f"{kind} `{shown}`: exit {proc.returncode}, "
                           f"{(err_lines or ['no stderr'])[-1][:120]}")
        if proc.returncode != 0 or err_lines:
            return Outcome(False, None, f"{kind}: exit {proc.returncode} {(err_lines or [''])[-1][:120]}")
        try:
            return self._check_output(kind, argv, expect, proc.stdout)
        except Exception as err:  # a malformed output is a failed job
            return Outcome(False, None, f"{kind}: {type(err).__name__}: {err}")

    def _check_output(self, kind, argv, expect, out):
        ec = self.ec
        payload = _json_strict(out) if "--json" in argv else None
        if payload is not None:
            if payload.get("verb") != argv[0] or payload.get("provenance") != "computed":
                return Outcome(False, None, f"{kind}: bad JSON envelope")
        tag = expect[0]
        if tag == "form":
            _, n, build = expect
            text = payload["result"] if payload else out.strip()
            ok = (ec.parse_form(text, n) - build(ec)).is_zero()
            return Outcome(ok, None, "" if ok else f"{kind}: {text[:80]}")
        if tag == "primitive":
            _, n, a = expect
            if payload:
                prim, residual = payload["result"], payload["residual"]
            else:
                first, second = out.strip().splitlines()
                prim = first.removeprefix("primitive = ")
                residual = second.removeprefix("d(primitive) - form = ")
            ok = residual == "0" and (ec.parse_form(prim, n).d() - ec.parse_form(a, n)).is_zero()
            return Outcome(ok, None, "" if ok else f"primitive: {out[:80]}")
        if tag == "number":
            value = payload["result"] if payload else float(out.strip())
            return _numeric_outcome(float(value), expect[1], TOL, kind)
        if tag == "integer":
            if payload:
                value, integer = payload["result"]["value"], payload["result"]["integer"]
            else:
                head = out.split("(integer ")
                value, integer = float(head[0].split("=")[1]), int(head[1].split(",")[0])
            outcome = _numeric_outcome(float(value), float(expect[1]), TOL, kind)
            outcome.ok = outcome.ok and integer == expect[1]
            return outcome
        if tag in ("stokes", "gauss-bonnet"):
            if payload:
                res = payload["result"]
                lhs, rhs = (res["lhs"], res["rhs"]) if tag == "stokes" else (
                    res["curvature_integral"], res["two_pi_chi"])
                verdict = res["verdict"]
            else:
                lines = out.strip().splitlines()
                lhs, rhs = (float(ln.split("=")[1]) for ln in lines[:2])
                verdict = lines[2].split("(")[1].rstrip(")")
            outcome = _numeric_outcome(float(lhs), float(rhs), TOL, kind)
            outcome.ok = outcome.ok and verdict == "within tolerance"
            return outcome
        if tag == "betti":
            got = payload["result"] if payload else json.loads(out.strip().removeprefix("b = "))
            return Outcome(got == expect[1], None, f"cohomology: {got}")
        if tag == "mv":
            dims = payload["result"]["dims"] if payload else json.loads(out.strip().removeprefix("dims = "))
            ok = all(dims[i] == v for i, v in expect[1].items())
            return Outcome(ok, None, "" if ok else f"mv-solve: {dims}")
        ok = "sphere S^3: b = [1, 0, 0, 1]" in out
        return Outcome(ok, None, "" if ok else "explain: missing sphere table")

    def close(self):
        import shutil

        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {"exact": Exact, "quad_fine": QuadFine, "quad_coarse": QuadCoarse, "cli": Cli}
