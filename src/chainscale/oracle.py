"""Offline ground truth: horizon LP, exact branch-and-bound, dual certificate.

Three independent reference points for judging the online algorithms:

* ``solve_relaxation`` — one LP over the whole horizon with fractional
  instance counts and explicit deployment variables coupling consecutive
  slots; its optimum lower-bounds every integer deployment.
* ``solve_exact`` — branch-and-bound on the instance-count variables at desk
  scale, giving the true integer optimum (or best-found plus gap under
  node/time limits).
* ``build_dual_certificate`` — a point of the horizon LP's dual assembled
  from the online subproblem multipliers, kept in each slot's row order.
  ``check_certificate`` verifies it slot by slot through the reduced costs
  of that slot's layout, so no horizon-wide program is built; once verified,
  its objective ``-sum_t b_eq,t . y_t`` lower-bounds the LP optimum.
"""

from __future__ import annotations

import csv
import heapq
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .layout import SlotLayout
from .model import ProblemInstance
from .orfa import FractionalPlan
from .rounding import IntegerPlan
from .solver import INFEASIBLE, OPTIMAL, LinearProgram, solve_lp

__all__ = [
    "HorizonProgram",
    "RelaxationResult",
    "ExactResult",
    "DualCertificate",
    "RatioReport",
    "solve_relaxation",
    "solve_exact",
    "build_dual_certificate",
    "check_certificate",
    "min_positive_deployment",
    "write_ratio_csv",
    "write_certificate_csv",
]


class HorizonProgram:
    """The full-horizon LP: per-slot routing blocks plus deployment coupling.

    Variable order: for each slot its (q, y, x) block, then one deployment
    block per slot.  Instance counts are capped only where their rent is
    zero (the cap is demand-based and never binds at an optimum otherwise);
    deployment variables are charged the deploy cost and forced above the
    count increase by coupling rows.
    """

    def __init__(self, inst: ProblemInstance, slots):
        self.inst = inst
        self.slots = list(slots)
        self.layouts = [SlotLayout(inst, s) for s in self.slots]
        self.offsets, n = [], 0
        for lay in self.layouts:
            self.offsets.append(n)
            n += lay.n_vars
        MI = inst.num_vnfs * inst.num_datacenters
        self.n_vars = n + len(self.layouts) * MI
        #: every count column, slot-major then m-major, as ``q_index`` numbers them
        self.q_cols = (np.array(self.offsets, dtype=int)[:, None] + np.arange(MI)).ravel()
        self.lp = self._assemble()

    def q_index(self, t: int, m: int, i: int) -> int:
        return self.offsets[t] + m * self.inst.num_datacenters + i

    def _assemble(self) -> LinearProgram:
        """Every slot's rows in one sparse matrix per kind.

        Equality rows per slot: demand, then conservation.  Inequality rows
        per slot: capacity, then deployment coupling.
        """
        inst = self.inst
        MI = inst.num_vnfs * inst.num_datacenters
        T = len(self.layouts)
        c = np.zeros(self.n_vars)
        ub = np.full(self.n_vars, np.inf)
        eq, ineq, b_eq = ([], [], []), ([], [], []), []  # (rows, cols, values) of the entries; rhs

        def add(blocks, mat, row0, col0):
            blocks[0].append(row0 + np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr)))
            blocks[1].append(col0 + mat.indices)
            blocks[2].append(mat.data)

        eq_r = 0
        for t, (lay, slot, off) in enumerate(zip(self.layouts, self.slots, self.offsets)):
            c[off : off + lay.n_vars] = lay.cost
            add(eq, lay.a_eq, eq_r, off)
            b_eq.append(lay.b_eq)
            eq_r += lay.b_eq.size
            add(ineq, lay.a_cap, 2 * MI * t, off)
            # keep zero-rent counts bounded
            cols, caps = lay.count_caps(slot.run_costs)
            ub[off + cols] = caps
        rho0 = self.n_vars - T * MI
        c[rho0:] = np.tile(inst.deploy_cost.reshape(-1), T)

        # deployment coupling: q_t - q_{t-1} - rho_t <= 0 (counts start at zero)
        rows = (2 * MI * np.arange(T)[:, None] + MI + np.arange(MI)).ravel()
        q_cols = self.q_cols
        later = rows[MI:]  # rows of slots t >= 1, which also hold -q_{t-1}
        ineq[0].extend([rows, later, rows])
        ineq[1].extend([q_cols, q_cols[: later.size], rho0 + np.arange(T * MI)])
        ineq[2].extend([np.ones(T * MI), -np.ones(later.size), -np.ones(T * MI)])

        def csr(blocks, n_rows):
            rows, cols, vals = (np.concatenate(part) for part in blocks)
            return sp.csr_matrix((vals, (rows, cols)), shape=(n_rows, self.n_vars))

        return LinearProgram(c=c, a_eq=csr(eq, eq_r), b_eq=np.concatenate(b_eq), a_ub=csr(ineq, 2 * MI * T),
                             b_ub=np.zeros(2 * MI * T), lb=np.zeros(self.n_vars), ub=ub)

    def unpack(self, x: np.ndarray, integral: bool = False):
        """Split a solution vector into per-slot plans.

        Solver dust (tiny negatives within feasibility tolerance) is clamped;
        anything materially negative aborts.
        """
        if float(x.min(initial=0.0)) < -1e-6:
            raise AssertionError(f"horizon solve returned negative value {x.min()}")
        x = np.maximum(x, 0.0)
        inst = self.inst
        M, I = inst.num_vnfs, inst.num_datacenters
        plans = []
        prev_q = np.zeros((M, I))
        for t, lay in enumerate(self.layouts):
            off = self.offsets[t]
            q, y, xx = lay.unpack(x[off : off + lay.n_vars])
            if integral:
                q_int = np.rint(q).astype(int)
                rho = np.maximum(0, q_int - np.rint(prev_q).astype(int))
                plans.append(IntegerPlan(t=self.slots[t].t, q=q_int, rho=rho, y=y, x=xx))
            else:
                rho = np.maximum(0.0, q - prev_q)
                plans.append(FractionalPlan(t=self.slots[t].t, q=q, rho=rho, y=y, x=xx))
            prev_q = q
        return plans


@dataclass(frozen=True)
class RelaxationResult:
    objective: float
    plans: tuple
    status: str


def solve_relaxation(inst: ProblemInstance, slots) -> RelaxationResult:
    """Optimum of the fractional horizon problem (requires the full horizon)."""
    prog = HorizonProgram(inst, slots)
    res = solve_lp(prog.lp)
    if res.status != OPTIMAL:
        return RelaxationResult(np.nan, (), res.status)
    return RelaxationResult(float(res.objective), tuple(prog.unpack(res.x)), OPTIMAL)


@dataclass(frozen=True)
class ExactResult:
    objective: float
    plans: tuple
    optimal: bool
    gap: float
    nodes: int
    runtime: float
    status: str = OPTIMAL


def solve_exact(
    inst: ProblemInstance,
    slots,
    time_limit: float = 60.0,
    node_limit: int = 100_000,
    int_tol: float = 1e-6,
) -> ExactResult:
    """Exact integer optimum by branch-and-bound on the instance counts.

    Explores nodes best-bound-first (ties broken depth-first, then by
    creation order, so runs are deterministic), branching on the most
    fractional count.  Deployment variables need no branching: at integral
    counts their LP-optimal values are the integral count increases.  When a
    limit is hit the incumbent is returned with its optimality gap.
    """
    prog = HorizonProgram(inst, slots)
    started = time.monotonic()

    def solve_node(extra_lb, extra_ub):
        lp = prog.lp
        lb = lp.lb.copy()
        ub = lp.ub.copy()
        for idx, v in extra_lb.items():
            lb[idx] = max(lb[idx], v)
        for idx, v in extra_ub.items():
            ub[idx] = min(ub[idx], v)
        if np.any(lb > ub):
            return None
        node_lp = LinearProgram(lp.c, lp.a_eq, lp.b_eq, lp.a_ub, lp.b_ub, lb, ub)
        res = solve_lp(node_lp)
        return res if res.status == OPTIMAL else None

    root = solve_node({}, {})
    if root is None:
        return ExactResult(np.nan, (), False, np.inf, 1, time.monotonic() - started, INFEASIBLE)

    counter = 0
    heap = [(root.objective, 0, counter, {}, {}, root)]
    best_obj, best_x = np.inf, None
    nodes = 1
    limit_hit = False
    while heap:
        bound, neg_depth, _, lbs, ubs, res = heapq.heappop(heap)
        if bound >= best_obj - 1e-9:
            continue
        if time.monotonic() - started > time_limit or nodes >= node_limit:
            limit_hit = True
            heapq.heappush(heap, (bound, neg_depth, counter, lbs, ubs, res))
            break
        q = res.x[prog.q_cols]
        dist = np.abs(q - np.round(q))
        if dist.max(initial=0.0) <= int_tol:
            if res.objective < best_obj - 1e-12:
                best_obj, best_x = res.objective, res.x
            continue
        j = int(np.argmax(dist))  # the first most fractional count
        frac_idx, frac_val = int(prog.q_cols[j]), q[j]
        floor = math.floor(frac_val)
        for child_lbs, child_ubs in (
            (lbs, {**ubs, frac_idx: float(floor)}),
            ({**lbs, frac_idx: float(floor + 1)}, ubs),
        ):
            child = solve_node(child_lbs, child_ubs)
            nodes += 1
            if child is not None and child.objective < best_obj - 1e-9:
                counter += 1
                heapq.heappush(heap, (child.objective, neg_depth - 1, counter, child_lbs, child_ubs, child))

    if best_x is None:  # no incumbent: nothing bounds the gap
        gap = np.inf
    elif not limit_hit and not heap:
        gap = 0.0
    else:
        lower = min(min([h[0] for h in heap], default=best_obj), best_obj)
        gap = max(0.0, (best_obj - lower) / max(1e-12, abs(best_obj)))
    plans = tuple(prog.unpack(best_x, integral=True)) if best_x is not None else ()
    objective = float(best_obj) if best_x is not None else np.nan
    return ExactResult(objective, plans, not limit_hit, float(gap), nodes, time.monotonic() - started)


# --- dual certificate -----------------------------------------------------------


@dataclass(frozen=True)
class DualCertificate:
    """Multipliers of the horizon LP dual, slot by slot, in the solver's sign convention.

    ``equality[t]`` holds slot t's equality multipliers in its layout's row
    order (demand rows, then conservation rows); ``capacity[t]`` and
    ``precedence[t]`` are the (M, I) multipliers of its capacity and
    deployment-coupling rows.  ``check_certificate`` fills in ``slot_bounds``,
    each slot's term ``-b_eq,t . y_t`` of the dual objective, and the
    ``violations``; the ``objective`` lower-bounds the horizon LP optimum
    whenever the certificate is ``feasible``.
    """

    capacity: np.ndarray  # (T, M, I)
    equality: tuple  # per slot: (demand rows + conservation rows,)
    precedence: np.ndarray  # (T, M, I)
    slot_bounds: np.ndarray = None  # (T,), set by check_certificate
    violations: tuple = ()

    @property
    def objective(self) -> float:
        return math.nan if self.slot_bounds is None else float(sum(self.slot_bounds))

    @property
    def feasible(self) -> bool:
        return self.slot_bounds is not None and not self.violations


def build_dual_certificate(inst: ProblemInstance, slots, plans, tol: float = 1e-6) -> DualCertificate:
    """Assemble and verify a dual-feasible lower bound from online multipliers.

    Capacity and equality multipliers are copied from each slot's subproblem;
    the precedence multiplier is the regularizer's remaining pull-down
    potential ``(deploy/eta) * ln((1 + shift) / (prev count + shift))``,
    which telescopes exactly through the subproblems' stationarity
    conditions.  The construction is guaranteed only while counts stay at or
    below one instance; the feasibility check is the arbiter either way, and
    any violations are reported in the result.
    """
    T = len(plans)
    M, I = inst.num_vnfs, inst.num_datacenters
    shift = inst.entropy_shift
    lam = np.zeros((T, M, I))
    nu = np.zeros((T, M, I))
    prev_q = np.zeros((M, I))
    for t, plan in enumerate(plans):
        if plan.duals is None:
            raise ValueError("dual certificate needs plans with recorded multipliers")
        lam[t] = plan.duals.capacity
        nu[t] = (inst.deploy_cost / inst.eta) * np.log((1.0 + shift) / (prev_q + shift))
        prev_q = plan.q
    cert = DualCertificate(lam, tuple(plan.duals.equality for plan in plans), nu)
    return check_certificate(inst, slots, cert, tol=tol)


def check_certificate(inst: ProblemInstance, slots, cert: DualCertificate, tol: float = 1e-6) -> DualCertificate:
    """Verify ``cert`` slot by slot; returns it with its bound terms and violations.

    Slot t's block of the horizon LP's reduced costs is ``run + routing +
    A_eq' y_t + A_cap' lam_t``, plus ``nu_t - nu_{t+1}`` on the count
    columns; each deployment column's reduced cost is ``deploy - nu_t``.
    Every reduced cost must be at least ``-tol`` (zero-rent count caps are
    not priced), as must ``lam`` and ``nu``.  Each violation is ``(t,
    family, worst value)``, one per slot and family.
    """
    if len(cert.equality) != len(slots):
        raise ValueError(f"certificate covers {len(cert.equality)} slots, not {len(slots)}")
    lam, nu = cert.capacity, cert.precedence
    nu_next = np.concatenate([nu[1:], np.zeros_like(nu[:1])])
    bounds, bad = [], []
    for t, (slot, y) in enumerate(zip(slots, cert.equality)):
        lay = SlotLayout(inst, slot)
        r = lay.cost + lay.a_eq.T @ y + lay.a_cap.T @ lam[t].reshape(-1)
        r[: lay.num_q] += (nu[t] - nu_next[t]).reshape(-1)
        for family, values in (
            ("count-stationarity", r[: lay.num_q]),
            ("routing-stationarity", r[lay.num_q :]),
            ("precedence-negative", nu[t]),
            ("precedence-above-deploy", inst.deploy_cost - nu[t]),
            ("capacity-dual-negative", lam[t]),
        ):
            worst = float(values.min(initial=np.inf))
            if worst < -tol:
                bad.append((t, family, worst))
        bounds.append(float(-lay.b_eq @ y))
    return replace(cert, slot_bounds=np.array(bounds), violations=tuple(bad))


def min_positive_deployment(plans, floor: float = 1e-9) -> float:
    """Smallest strictly positive instance count across a trajectory.

    Counts below ``floor`` are treated as zero so floating-point dust cannot
    blow up the reciprocal in the fractional ratio bound.  Returns nan when
    the trajectory never deploys anything.
    """
    smallest = np.inf
    for plan in plans:
        q = np.asarray(plan.q, dtype=float)
        positive = q[q >= floor]
        if positive.size:
            smallest = min(smallest, float(positive.min()))
    return smallest if np.isfinite(smallest) else np.nan


@dataclass(frozen=True)
class RatioReport:
    """Empirical competitive ratios against every available denominator.

    Ratios with an unavailable or zero denominator come out as nan.  Pass
    ``certificate`` only when it verified: it then lower-bounds every
    optimum, so the ratio against it upper-bounds the true ratio.
    """

    online_cost: float  # integer-chain total
    fractional_cost: float  # fractional-chain total
    relaxation: float = np.nan
    exact: float = np.nan
    exact_optimal: bool = False
    certificate: float = np.nan
    phi: float = np.nan  # smallest positive fractional count
    ingredients: dict = field(default_factory=dict)

    def _ratio(self, num: float, den: float) -> float:
        if not np.isfinite(den) or den <= 0:
            return np.nan
        return num / den

    @property
    def online_vs_exact(self) -> float:
        """Only a proven optimum is a denominator; an incumbent overstates it."""
        return self._ratio(self.online_cost, self.exact) if self.exact_optimal else np.nan

    @property
    def online_vs_relaxation(self) -> float:
        return self._ratio(self.online_cost, self.relaxation)

    @property
    def online_vs_certificate(self) -> float:
        return self._ratio(self.online_cost, self.certificate)

    @property
    def fractional_vs_relaxation(self) -> float:
        return self._ratio(self.fractional_cost, self.relaxation)

    @property
    def fractional_ratio_bound(self) -> float:
        """Guaranteed ceiling on the fractional ratio: eta + 1 + 1/phi."""
        eta = self.ingredients.get("eta", np.nan)
        if not np.isfinite(self.phi) or self.phi <= 0:
            return np.nan
        return eta + 1.0 + 1.0 / self.phi

    @property
    def integer_ratio_bound(self) -> float:
        return self.ingredients.get("integer_ratio_bound", np.nan)


def write_ratio_csv(path, reports: dict) -> None:
    """Dump named ratio reports, one row per report."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["name", "online_cost", "fractional_cost", "relaxation", "exact", "exact_optimal",
             "certificate", "online_vs_exact", "online_vs_relaxation", "online_vs_certificate",
             "fractional_vs_relaxation", "phi", "fractional_ratio_bound", "integer_ratio_bound"]
        )
        for name, r in reports.items():
            w.writerow(
                [name, r.online_cost, r.fractional_cost, r.relaxation, r.exact, r.exact_optimal,
                 r.certificate, r.online_vs_exact, r.online_vs_relaxation, r.online_vs_certificate,
                 r.fractional_vs_relaxation, r.phi, r.fractional_ratio_bound, r.integer_ratio_bound]
            )


def write_certificate_csv(path, cert: DualCertificate) -> None:
    """Audit dump: per-slot multiplier maxima and bound terms, the total, the violations."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "max_capacity_dual", "max_precedence", "objective_share"])
        for t, bound in enumerate(cert.slot_bounds):
            w.writerow([t, float(cert.capacity[t].max(initial=0.0)), float(cert.precedence[t].max(initial=0.0)), bound])
        w.writerow(["total", "", "", cert.objective])
        for t, family, value in cert.violations:
            w.writerow(["violation", f"{family} t={t}", value, ""])
