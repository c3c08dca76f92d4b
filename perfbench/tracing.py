"""In-memory span tracer that wraps the library's public functions from outside.

``Tracer.install`` replaces every public module-level function of the traced
modules, a few layer methods and three third-party entry points with a
wrapper that records one span per call: name, start, end, parent span,
instance id, the exception type if the call raised, and a few counts read
from the call's result.  Each wrapper is installed in *every* module of the
package that holds the original object, so calls made through a name
imported with ``from .x import f`` are traced too.  ``uninstall`` restores
the originals; an untraced run never calls ``install``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time

import numpy as np

PACKAGE = "chainscale"

#: modules whose public functions are traced, in layer order
MODULES = ("workload", "model", "clustering", "rates", "layout", "solver", "orfa", "rounding", "coa", "oracle", "cli")

#: class methods that do layer work; index helpers such as ``q_idx`` run once
#: per matrix entry, so wrapping them would measure the wrapper, not the layer
METHODS = {
    "layout.SlotLayout": (
        "capacity_rows", "demand_rows", "conservation_rows", "routing_cost", "run_cost", "unpack", "spread_evenly",
    ),
    "oracle.HorizonProgram": ("__init__", "unpack"),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "instance", "error", "extra")

    def __init__(self, name, start, parent, instance):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.instance = instance
        self.error = None
        self.extra = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans while installed; ``instance`` tags every new span."""

    def __init__(self):
        self.spans = []
        self.instance = None
        self._stack = []
        self._patches = []
        self._q_index = None  # count-variable columns of the latest horizon program

    # --- wrapping -------------------------------------------------------------
    def _wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.instance)
            index = len(tracer.spans)
            tracer.spans.append(span)
            tracer._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                hook(span, args, result)
            return result

        return wrapper

    def targets(self) -> list:
        """(owner, attribute, span name, original) for everything traced."""
        out = []
        for short in MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    out.append((mod, attr, f"{short}.{attr}", obj))
        for qual, methods in METHODS.items():
            short, cls_name = qual.split(".")
            cls = getattr(importlib.import_module(f"{PACKAGE}.{short}"), cls_name)
            for attr in methods:
                span_name = qual if attr == "__init__" else f"{qual}.{attr}"
                out.append((cls, attr, span_name, vars(cls)[attr]))
        solver = importlib.import_module(f"{PACKAGE}.solver")
        out.append((solver, "linprog", "solver.highs", solver.linprog))
        out.append((np.linalg, "cholesky", "numpy.linalg.cholesky", np.linalg.cholesky))
        out.append((np.linalg, "lstsq", "numpy.linalg.lstsq", np.linalg.lstsq))
        return out

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        pkg = importlib.import_module(PACKAGE)
        modules = [pkg] + [
            importlib.import_module(f"{PACKAGE}.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)
            if info.name != "__main__"
        ]
        hooks = self._hooks()
        wrappers = {}
        for owner, attr, name, original in self.targets():
            wrapper = self._wrap(name, original, hooks.get(name))
            wrappers[id(original)] = wrapper
            self._patch(owner, attr, wrapper)
        # names imported with ``from .x import f`` hold the original object too
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and obj is wrapper.__wrapped__:
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- result hooks: counts read where the work happens ------------------------
    def _hooks(self) -> dict:
        def entropy(span, args, result):
            stationarity = float(result.kkt.get("stationarity", np.nan))
            span.extra = {"iterations": int(result.iterations), "stationarity": stationarity}

        def subproblem(span, args, result):
            lp = result[0].lp
            span.extra = {"rows": int(lp.eq_matrix().shape[0] + lp.ub_matrix().shape[0])}

        def highs(span, args, result):
            span.extra = {"iterations": int(getattr(result, "nit", 0))}

        def horizon(span, args, result):
            prog = args[0]
            lp = prog.lp
            if self._inside(span, "oracle.solve_exact"):
                self._q_index = np.array([
                    prog.q_index(t, m, i)
                    for t in range(len(prog.slots))
                    for m in range(prog.inst.num_vnfs)
                    for i in range(prog.inst.num_datacenters)
                ])
            span.extra = {"n_vars": int(prog.n_vars), "nnz": int(lp.a_eq.nnz + lp.a_ub.nnz)}

        def node_lp(span, args, result):
            # an integral node solution inside branch-and-bound is an incumbent candidate
            if self._q_index is None or result.x is None or not self._inside(span, "oracle.solve_exact"):
                return
            q = result.x[self._q_index]
            if q.size and float(np.max(np.abs(q - np.round(q)))) <= 1e-6:
                span.extra = {"integral": True}

        def exact(span, args, result):
            span.extra = {
                "nodes": int(result.nodes),
                "nan_gap_zero": bool(np.isnan(result.objective) and result.gap == 0.0),
            }

        def certificate(span, args, result):
            span.extra = {"verified": bool(result.feasible)}

        def stars(span, args, result):
            span.extra = {"edges": int(sum(len(s.edges) for s in result))}

        def irr(span, args, result):
            span.extra = {"infeasible": result is None}

        return {
            "solver.solve_entropy": entropy,
            "orfa.build_subproblem": subproblem,
            "solver.highs": highs,
            "oracle.HorizonProgram": horizon,
            "solver.solve_lp": node_lp,
            "oracle.solve_exact": exact,
            "oracle.build_dual_certificate": certificate,
            "rounding.init_stars": stars,
            "cli.baseline_irr": irr,
        }

    def _inside(self, span: Span, name: str) -> bool:
        p = span.parent
        while p >= 0:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False

    # --- analysis ---------------------------------------------------------------
    def self_times(self) -> list:
        """Span duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child)]

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                    "instance": s.instance, "error": s.error, "extra": s.extra,
                }) + "\n")


def layer_metrics(tracer: Tracer, evaluations: int, slots: int) -> dict:
    """Per-layer figures from the spans of ``evaluations`` traced instance runs.

    Times and counts are per instance evaluation (totals divided by
    ``evaluations``); ``calls_per_slot`` divides by the ``slots`` those
    evaluations covered; maxima are over the whole run.
    """
    spans = tracer.spans
    selfs = tracer.self_times()
    ev = max(1, evaluations)
    total, own, calls = {}, {}, {}
    for s, st in zip(spans, selfs):
        total[s.name] = total.get(s.name, 0.0) + s.duration
        own[s.name] = own.get(s.name, 0.0) + st
        calls[s.name] = calls.get(s.name, 0) + 1

    def extras(name, key):
        return [s.extra[key] for s in spans if s.name == name and s.extra and key in s.extra]

    def per_ev(value):
        return value / ev

    in_entropy = [s for s in spans if s.name == "numpy.linalg.cholesky" and any(
        spans[p].name == "solver.solve_entropy" for p in _ancestors(spans, s))]
    fallbacks = sum(1 for s in in_entropy if s.error is not None)
    newton = sum(extras("solver.solve_entropy", "iterations"))
    rows = extras("orfa.build_subproblem", "rows")
    nodes = sum(extras("oracle.solve_exact", "nodes"))
    row_names = {f"layout.SlotLayout.{m}" for m in ("capacity_rows", "demand_rows", "conservation_rows")}
    max_rows = max(rows, default=0)
    return {
        "solver.solve_entropy.s": per_ev(total.get("solver.solve_entropy", 0.0)),
        "solver.solve_entropy.calls": per_ev(calls.get("solver.solve_entropy", 0)),
        "solver.solve_entropy.newton_iters": per_ev(newton),
        "solver.solve_entropy.schur_rows": max_rows,
        "solver.solve_entropy.schur_mb_computed": 8.0 * max_rows**2 / 1e6,
        "solver.solve_entropy.kkt_stationarity_max": max(extras("solver.solve_entropy", "stationarity"), default=0.0),
        "solver.solve_entropy.factor_fallbacks": per_ev(fallbacks),
        "solver.solve_entropy.fallback_share": fallbacks / newton if newton else 0.0,
        "solver.solve_lp.calls": per_ev(calls.get("solver.solve_lp", 0)),
        "solver.solve_lp.s": per_ev(total.get("solver.solve_lp", 0.0)),
        "solver.highs.s": per_ev(total.get("solver.highs", 0.0)),
        "solver.solve_lp.self_s": per_ev(own.get("solver.solve_lp", 0.0)),
        "solver.highs.iters": per_ev(sum(extras("solver.highs", "iterations"))),
        "orfa.build_subproblem.s": per_ev(total.get("orfa.build_subproblem", 0.0)),
        "orfa.orfa_step.self_s": per_ev(own.get("orfa.orfa_step", 0.0)),
        "layout.rows.s": per_ev(sum(total.get(n, 0.0) for n in row_names)),
        "layout.rows.calls_per_slot": sum(calls.get(n, 0) for n in row_names) / max(1, slots),
        "rates.slot_rates.calls_per_slot": calls.get("rates.slot_rates", 0) / max(1, slots),
        "rates.slot_rates.s": per_ev(total.get("rates.slot_rates", 0.0)),
        "rates.delay_coefficients.calls": per_ev(calls.get("rates.delay_coefficients", 0)),
        "rates.cost_of_plan.s": per_ev(total.get("rates.cost_of_plan", 0.0)),
        "rounding.init_stars.s": per_ev(total.get("rounding.init_stars", 0.0)),
        "rounding.owdr.s": per_ev(total.get("rounding.owdr", 0.0)),
        "rounding.edges": per_ev(sum(extras("rounding.init_stars", "edges"))),
        "coa.reroute.s": per_ev(total.get("coa.reroute", 0.0)),
        "coa.reroute.calls": per_ev(calls.get("coa.reroute", 0)),
        "coa.coa_step.self_s": per_ev(own.get("coa.coa_step", 0.0)),
        "coa.bound_ingredients.s": per_ev(total.get("coa.bound_ingredients", 0.0)),
        "clustering.cluster.s": per_ev(total.get("clustering.cluster", 0.0)),
        "clustering.cluster.calls": per_ev(calls.get("clustering.cluster", 0)),
        "workload.build_instance.s": per_ev(total.get("workload.build_instance", 0.0)),
        "model.validate_instance.s": per_ev(total.get("model.validate_instance", 0.0)),
        "oracle.HorizonProgram.s": per_ev(total.get("oracle.HorizonProgram", 0.0)),
        "oracle.HorizonProgram.n_vars": max(extras("oracle.HorizonProgram", "n_vars"), default=0),
        "oracle.HorizonProgram.nnz": max(extras("oracle.HorizonProgram", "nnz"), default=0),
        "oracle.solve_exact.nodes": per_ev(nodes),
        "oracle.solve_exact.s_per_node": total.get("oracle.solve_exact", 0.0) / nodes if nodes else 0.0,
        "oracle.solve_exact.incumbents": per_ev(len(extras("solver.solve_lp", "integral"))),
        "oracle.solve_exact.nan_gap_zero": per_ev(sum(extras("oracle.solve_exact", "nan_gap_zero"))),
        "oracle.build_dual_certificate.s": per_ev(total.get("oracle.build_dual_certificate", 0.0)),
        "oracle.check_certificate.s": per_ev(total.get("oracle.check_certificate", 0.0)),
        "oracle.certificate.verified": per_ev(sum(extras("oracle.build_dual_certificate", "verified"))),
        "cli.baseline_gr.s": per_ev(total.get("cli.baseline_gr", 0.0)),
        "cli.baseline_irr.s": per_ev(total.get("cli.baseline_irr", 0.0)),
        "cli.baseline_irr.infeasible": per_ev(sum(extras("cli.baseline_irr", "infeasible"))),
    }


def _ancestors(spans, span):
    p = span.parent
    while p >= 0:
        yield p
        p = spans[p].parent
