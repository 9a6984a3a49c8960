"""Per-layer spans recorded from outside the library.

``Tracer.install()`` rebinds the public functions and methods listed in
``LAYERS`` to wrappers that record a span (id, parent, job, name, start,
end, error) around each call.  Module-level functions are rebound in every
``extcalc`` module namespace that holds them, so calls between modules
(``extcalc.integrate.pullback`` as well as ``extcalc.maps.pullback``) are
seen too.  ``src/`` is never edited.

A layer's self time is the time during which one of its spans is the
innermost open span: span time minus the time covered by child spans of
other layers.  Nested spans of the same layer add calls but no time twice.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# layer -> (module, names); "Class.method" names a method.
LAYERS = {
    "parsing": ("extcalc.parsing", ("parse_form", "parse_map", "parse_scalar")),
    "scalar": ("extcalc.scalar", (
        "ScalarExpr.differentiate", "ScalarExpr.substitute", "ScalarExpr.substitute_axis",
        "ScalarExpr.evaluate", "ScalarExpr.compiled", "integrate_polynomial")),
    "forms": ("extcalc.forms", (
        "DifferentialForm.d", "DifferentialForm.wedge", "DifferentialForm.is_closed",
        "interior_product", "lie_derivative")),
    "maps": ("extcalc.maps", ("pullback", "compose", "freeze_axis", "SmoothMap.jacobian_at")),
    "homotopy": ("extcalc.homotopy", ("primitive", "fiber_integral", "zero_section_pullback")),
    "cohomology": ("extcalc.cohomology", ("cech_betti", "rank_exact", "mv_solve")),
    "integrate": ("extcalc.integrate", ("integrate_cell", "integrate", "boundary", "stokes_check")),
    "geometry": ("extcalc.geometry", (
        "gauss_bonnet_check", "linking_number", "winding_number", "surface_area", "Loop.sample")),
    "cli": ("extcalc.cli", ("main",)),
}


def _q(spec):
    from extcalc.cells import quad_points

    return quad_points(spec)


def _arg(args, kwargs, i, name, default):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


# name -> (counter, f(args, kwargs) -> amount): work counts taken at the
# boundary, from the arguments of the call.
def _cell_nodes(args, kwargs):
    return _q(_arg(args, kwargs, 2, "spec", 16)) ** args[1].k


def _surface_nodes(args, kwargs):
    return _q(_arg(args, kwargs, 1, "spec", 24)) ** 2 * len(args[0].cells)


def _pair_nodes(args, kwargs):
    return _q(_arg(args, kwargs, 2, "spec", 32)) ** 2


def _rank_entries(args, kwargs):
    rows = args[0]
    return len(rows) * len(rows[0]) if rows else 0


COUNTERS = {
    "integrate_cell": ("integrate.nodes", _cell_nodes),
    "gauss_bonnet_check": ("geometry.nodes", _surface_nodes),
    "surface_area": ("geometry.nodes", _surface_nodes),
    "linking_number": ("geometry.nodes", _pair_nodes),
    "Loop.sample": ("geometry.nodes", lambda a, k: _arg(a, k, 1, "count", 0)),
    "rank_exact": ("cohomology.rank_entries", _rank_entries),
    "SmoothMap.jacobian_at": ("maps.jacobian_evals", lambda a, k: 1),
}


class Tracer:
    def __init__(self):
        self.layer_ids = {layer: i for i, layer in enumerate(LAYERS)}
        self.names = []  # span name id -> "layer.name"
        # flat records: id, parent, job, name id, start ns, end ns, error
        self.spans = array("q")
        self.stack = []  # (span id, layer id)
        self.last = 0
        self.next_id = 1
        self.job = 0
        n = len(LAYERS)
        self.calls = [0] * n
        self.errors = [0] * n
        self.self_ns = [0] * n
        self.counters = {}
        self.rank_ns = 0
        self.compile_calls = 0
        self.compile_ns = 0
        self._targets = None

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, layer, name):
        lid = self.layer_ids[layer]
        nid = len(self.names)
        self.names.append(f"{layer}.{name}")
        counter = COUNTERS.get(name)
        clock = time.perf_counter_ns
        tracer = self
        is_compile = name == "ScalarExpr.compiled"
        is_rank = name == "rank_exact"
        is_cli = layer == "cli"

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1][0] if stack else 0
            fresh = is_compile and args[0]._compiled is None
            start = clock()
            if stack:
                tracer.self_ns[stack[-1][1]] += start - tracer.last
            tracer.last = start
            stack.append((sid, lid))
            err = 1
            try:
                result = fn(*args, **kwargs)
                err = 1 if is_cli and result else 0
                return result
            finally:
                end = clock()
                tracer.self_ns[lid] += end - tracer.last
                tracer.last = end
                stack.pop()
                tracer.calls[lid] += 1
                tracer.errors[lid] += err
                tracer.spans.extend((sid, parent, tracer.job, nid, start, end, err))
                if counter is not None:
                    key, amount = counter
                    tracer.counters[key] = tracer.counters.get(key, 0) + amount(args, kwargs)
                if fresh:
                    tracer.compile_calls += 1
                    tracer.compile_ns += end - start
                elif is_rank:
                    tracer.rank_ns += end - start

        return functools.wraps(fn)(wrapper)

    def _find_targets(self):
        """(owner, attribute, original, wrapper) for every name to rebind."""
        import importlib

        targets = []
        # import every traced module first, so that names they import from
        # one another are all in place before the namespaces are scanned
        modules = {layer: importlib.import_module(modname) for layer, (modname, _) in LAYERS.items()}
        for layer, (_, names) in LAYERS.items():
            mod = modules[layer]
            for name in names:
                if "." in name:
                    cls_name, meth = name.split(".")
                    owners = [getattr(mod, cls_name)]
                    original = owners[0].__dict__[meth]
                else:
                    original = getattr(mod, name)
                    owners = [m for m in list(sys.modules.values())
                              if (getattr(m, "__name__", None) or "").split(".")[0] == "extcalc"]
                wrapper = self._wrap(original, layer, name)
                # every namespace holding the function, and aliases such as
                # ScalarExpr.diff = ScalarExpr.differentiate
                for owner in owners:
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            targets.append((owner, attr, original, wrapper))
        return targets

    def install(self):
        """Rebind every traced name; ``uninstall`` restores them."""
        if self._targets is None:
            self._targets = self._find_targets()
        for owner, attr, _, wrapper in self._targets:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._targets or ():
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def metrics(self):
        out = {}
        for layer, lid in self.layer_ids.items():
            out[f"{layer}.calls"] = (self.calls[lid], "count")
            out[f"{layer}.self_ms"] = (self.self_ns[lid] / 1e6, "ms")
            out[f"{layer}.errors"] = (self.errors[lid], "count")
        c = self.counters
        ms = {layer: self.self_ns[lid] / 1e6 for layer, lid in self.layer_ids.items()}
        jac = c.get("maps.jacobian_evals", 0)
        gnodes = c.get("geometry.nodes", 0)
        inodes = c.get("integrate.nodes", 0)
        entries = c.get("cohomology.rank_entries", 0)
        out["scalar.compile_calls"] = (self.compile_calls, "count")
        out["scalar.compile_ms"] = (self.compile_ns / 1e6, "ms")
        out["maps.jacobian_evals"] = (jac, "count")
        out["maps.jacobian_evals_per_node"] = (jac / gnodes if gnodes else 0.0, "count")
        out["cohomology.rank_entries"] = (entries, "count")
        out["cohomology.ns_per_entry"] = (self.rank_ns / entries if entries else 0.0, "ns")
        out["integrate.nodes"] = (inodes, "count")
        out["integrate.ns_per_node"] = (ms["integrate"] * 1e6 / inodes if inodes else 0.0, "ns")
        out["geometry.nodes"] = (gnodes, "count")
        out["geometry.ns_per_node"] = (ms["geometry"] * 1e6 / gnodes if gnodes else 0.0, "ns")
        return out

    def write(self, path):
        """Write the spans as tab-separated text, one span a line."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tjob\tname\tstart_ns\tend_ns\terror\n")
            s = self.spans
            for i in range(0, len(s), 7):
                fh.write(f"{s[i]}\t{s[i + 1]}\t{s[i + 2]}\t{self.names[s[i + 3]]}\t"
                         f"{s[i + 4]}\t{s[i + 5]}\t{s[i + 6]}\n")
        return len(s) // 7
