"""Offline ground truth: horizon LP, exact branch-and-bound, dual certificate.

Three independent reference points for judging the online algorithms:

* ``solve_relaxation`` — one LP over the whole horizon with fractional
  instance counts and explicit deployment variables coupling consecutive
  slots; its optimum lower-bounds every integer deployment.  It is solved by
  column generation: a master LP over every count and deployment column and
  a seed of routing columns (per slot, hop and sending datacenter, the
  cheapest receiver under price plus rent per unit of traffic), which grows
  by every column pricing below ``-PRICING_TOL`` (HiGHS's own dual
  feasibility tolerance, 1e-7) until none does.  The optimum is the full
  LP's, whatever the seed.
* ``solve_exact`` — branch-and-bound on the instance-count variables at desk
  scale, giving the true integer optimum (or best-found plus gap under
  node/time limits; the result's ``status`` and ``optimal`` say which).  The
  horizon LP stays in two HiGHS models for the whole search, and each node
  is a warm dual-simplex re-solve after its bound change.  Each branching's
  two children solve at once, the down child on the first model in the
  calling thread and the up child on the second in one worker thread, which
  lives only as long as the call.
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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .layout import SlotLayout, routing_columns
from .model import ProblemInstance
from .rates import slot_rates
from .solver import INFEASIBLE, ITERATION_LIMIT, OPTIMAL, LinearProgram, LpModel, solve_lp

__all__ = [
    "HorizonProgram",
    "MAX_HORIZON_COLUMNS",
    "horizon_columns",
    "RelaxationResult",
    "ExactResult",
    "DualCertificate",
    "solve_relaxation",
    "solve_exact",
    "build_dual_certificate",
    "check_certificate",
    "min_positive_deployment",
    "write_certificate_csv",
]

#: counts within this of an integer are integral to branch-and-bound
INT_TOL = 1e-6
#: reduced costs and multipliers down to ``-CERTIFICATE_TOL`` pass the certificate check
CERTIFICATE_TOL = 1e-6
#: a column whose reduced cost at the master's multipliers is below ``-PRICING_TOL`` joins the
#: relaxation's master: HiGHS's own dual feasibility tolerance
PRICING_TOL = 1e-7
#: instance counts below this are dust to ``min_positive_deployment``
DEPLOYMENT_FLOOR = 1e-9
#: largest horizon LP the CLI builds: at the measured 1.2 KB or so per column,
#: 2 million columns peak near 2.5 GB, which leaves an 8 GB machine room to spare.
#: ``solve_exact`` holds two HiGHS models and stays within that: at paper width
#: its peak grew by 1.01-1.07 KB per column (0.60-0.65 KB with one model) from
#: 153k to 863k columns, and the relaxation's by 0.88-0.92 KB
MAX_HORIZON_COLUMNS = 2_000_000


class HorizonProgram:
    """The full-horizon LP: per-slot routing blocks plus deployment coupling.

    Variable order: for each slot its (q, routing) block, then one deployment
    block per slot.  Instance counts have no upper bound: deployment
    variables are charged the deploy cost and forced above the count
    increase by coupling rows, which holds down even a count with zero rent.
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

        Equality rows per slot: demand, then balance.  Inequality rows
        per slot: capacity, then deployment coupling.
        """
        inst = self.inst
        MI = inst.num_vnfs * inst.num_datacenters
        T = len(self.layouts)
        c = np.zeros(self.n_vars)
        eq, ineq, b_eq = ([], [], []), ([], [], []), []  # (rows, cols, values) of the entries; rhs

        def add(blocks, mat, row0, col0):
            blocks[0].append(row0 + np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr)))
            blocks[1].append(col0 + mat.indices)
            blocks[2].append(mat.data)

        eq_r = 0
        for t, (lay, off) in enumerate(zip(self.layouts, self.offsets)):
            c[off : off + lay.n_vars] = lay.cost
            add(eq, lay.a_eq, eq_r, off)
            b_eq.append(lay.b_eq)
            eq_r += lay.b_eq.size
            add(ineq, lay.a_cap, 2 * MI * t, off)
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
                             b_ub=np.zeros(2 * MI * T), lb=np.zeros(self.n_vars), ub=np.full(self.n_vars, np.inf))

    def unpack(self, x: np.ndarray, integral: bool = False):
        """Split a solution vector into per-slot plans, with counts rounded to integers if ``integral``.

        Solver dust (tiny negatives within feasibility tolerance) is clamped;
        anything materially negative aborts.
        """
        if float(x.min(initial=0.0)) < -1e-6:
            raise AssertionError(f"horizon solve returned negative value {x.min()}")
        x = np.maximum(x, 0.0)
        plans = (lay.unpack(x[off : off + lay.n_vars]) for lay, off in zip(self.layouts, self.offsets))
        return [replace(p, q=np.rint(p.q).astype(int)) if integral else p for p in plans]


def horizon_columns(inst: ProblemInstance, slots) -> int:
    """Columns ``HorizonProgram(inst, slots)`` would have, counted without building a layout.

    Each slot has its layout's count and routing columns plus a deployment block.
    """
    MI = inst.num_vnfs * inst.num_datacenters
    columns = 0
    for slot in slots:
        chains = [inst.chain_of(k) for k in slot_rates(inst, slot).active]
        columns += 2 * MI + int(routing_columns(chains, inst.num_datacenters)[1].sum())
    return columns


@dataclass(frozen=True)
class RelaxationResult:
    objective: float
    plans: tuple
    status: str


def solve_relaxation(inst: ProblemInstance, slots) -> RelaxationResult:
    """Optimum of the fractional horizon problem (requires the full horizon), by column generation.

    The restricted master is ``HorizonProgram``'s LP over every count and
    deployment column and a working set of routing columns, solved with
    ``solve_lp``.  The working set starts from ``_seed_routes``: per slot,
    hop and sending datacenter, the column to the receiver cheapest under
    ``cost`` plus rent per unit of traffic.  After each master solve one
    product ``c + A_eq'y + A_ub'lam`` with the master's multipliers prices
    every column of the full program; each column that prices below
    ``-PRICING_TOL`` (-1e-7) joins the working set, in the full program's
    column order, and the master is solved again.  Once no column prices
    below it, the master's multipliers are dual feasible for the full LP
    within HiGHS's own tolerance, so the master's optimum is the full LP's
    (Lübbecke & Desrosiers, *Selected topics in column generation*, Oper.
    Res. 53(6), 2005).  The seed changes only how many rounds that takes,
    never the answer.  Whenever the full LP is feasible, the seed routes
    every flow through cells with positive capacity, whose counts are
    unbounded above; so an infeasible master means an infeasible program,
    and its status is returned as is.
    """
    prog = HorizonProgram(inst, slots)
    lp = prog.lp
    keep = np.ones(lp.n, dtype=bool)
    for lay, off in zip(prog.layouts, prog.offsets):
        keep[off + lay.num_q : off + lay.n_vars] = _seed_routes(lay)
    a_eq, a_ub = lp.a_eq.tocsc(), lp.a_ub.tocsc()
    while True:
        cols = np.flatnonzero(keep)
        res = solve_lp(LinearProgram(c=lp.c[cols], a_eq=a_eq[:, cols], b_eq=lp.b_eq, a_ub=a_ub[:, cols],
                                     b_ub=lp.b_ub, lb=lp.lb[cols], ub=lp.ub[cols]))
        if res.status != OPTIMAL:
            return RelaxationResult(np.nan, (), res.status)
        priced = lp.c + a_eq.T @ res.eq_duals + a_ub.T @ res.ub_duals < -PRICING_TOL
        if not np.any(priced & ~keep):
            break
        keep |= priced
    x = np.zeros(lp.n)
    x[cols] = res.x
    return RelaxationResult(float(res.objective), tuple(prog.unpack(x)), OPTIMAL)


def _seed_routes(lay: SlotLayout) -> np.ndarray:
    """The master's first routing columns of one slot, as a mask over the layout's routing columns.

    Every one-VNF flow's entry columns, and per hop and sending datacenter
    the column to the receiver that is cheapest under ``cost`` plus the rent
    per unit of traffic ``run_cost / capacity`` of the cells its traffic
    loads; a zero-capacity cell's rent is +inf, so a receiver that cannot
    process the traffic is chosen only when no receiver can.
    """
    inst, nq = lay.inst, lay.num_q
    with np.errstate(divide="ignore", invalid="ignore"):
        rent = np.where(inst.capacity > 0, lay.slot.run_costs / inst.capacity, np.inf).reshape(-1)
    price = lay.cost[nq:] + lay.a_cap[:, nq:].T @ rent
    hops = lay.x_cols - nq
    best = np.argmin(price[hops], axis=2)
    seed = np.zeros(lay.n_vars - nq, dtype=bool)
    seed[lay.y_cols - nq] = True
    seed[np.take_along_axis(hops, best[:, :, None], axis=2)] = True
    return seed


@dataclass(frozen=True)
class ExactResult:
    objective: float
    plans: tuple
    gap: float
    nodes: int
    status: str

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL


def solve_exact(
    inst: ProblemInstance,
    slots,
    time_limit: float = 60.0,
    node_limit: int = 100_000,
) -> ExactResult:
    """Exact integer optimum by branch-and-bound on the instance counts.

    Explores nodes best-bound-first (ties broken depth-first, then by
    creation order, so runs are deterministic), branching on the most
    fractional count.  Deployment variables need no branching: at integral
    counts their LP-optimal values are the integral count increases.  The
    result's ``status`` (which ``optimal`` reads) is ``INFEASIBLE`` for an
    infeasible root, ``OPTIMAL`` for a finished search and, when a limit is
    hit, ``ITERATION_LIMIT``, with the incumbent and its optimality gap.

    The horizon LP is held in two HiGHS models (``LpModel``) for the whole
    search.  The first solves the root; the second then takes the root's
    basis.  At each branching the down child re-solves on the first model
    in the calling thread while the up child re-solves on the second in one
    worker thread, and neither child is read before both have returned.
    Each node sets the bounds of every count column and re-solves from its
    model's previous basis with the dual simplex, so no bound of one node
    carries over to the next.  Each model sees a sequence of solves fixed by
    the search alone, so the result does not depend on thread timing.  The
    worker runs only node solves (``LpModel.solve``).  It starts at the first
    branching and is joined before the call returns, also when a solve
    raises; an exception in the worker reaches the caller.  A node LP with
    several optimal vertices may return another one than a single warm model
    would, so a search cut by a limit may take another tree and report
    another incumbent and gap; a finished search reaches the same optimum.
    ``time_limit`` must be positive (not NaN) and ``node_limit`` at least 1,
    or ``ValueError`` is raised.
    """
    if not time_limit > 0:
        raise ValueError(f"time_limit must be positive, got {time_limit}")
    if not node_limit >= 1:
        raise ValueError(f"node_limit must be at least 1, got {node_limit}")
    prog = HorizonProgram(inst, slots)
    started = time.monotonic()
    down_model, up_model = LpModel(prog.lp), None
    root_lb, root_ub = prog.lp.lb[prog.q_cols], prog.lp.ub[prog.q_cols]

    def solve_node(model, lb, ub):
        """The node LP on ``model``, its counts bounded by ``lb`` and ``ub``; None if infeasible."""
        res = model.solve(prog.q_cols, lb, ub)
        return res if res.status == OPTIMAL else None

    root = solve_node(down_model, root_lb, root_ub)
    if root is None:
        return ExactResult(np.nan, (), np.inf, 1, INFEASIBLE)

    # an open node: (LP bound, -depth, creation order, count lower bounds, count upper bounds, LP solution)
    counter = 0
    heap = [(root.objective, 0, counter, root_lb, root_ub, root.x)]
    best_obj, best_x = np.inf, None
    nodes = 1
    limit_hit = False
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="solve_exact") as worker:
        while heap:
            bound, neg_depth, _, lb, ub, x = heapq.heappop(heap)
            if bound >= best_obj - 1e-9:
                continue
            if time.monotonic() - started > time_limit or nodes >= node_limit:
                limit_hit = True
                heapq.heappush(heap, (bound, neg_depth, counter, lb, ub, x))
                break
            q = x[prog.q_cols]
            dist = np.abs(q - np.round(q))
            if dist.max(initial=0.0) <= INT_TOL:
                if bound < best_obj - 1e-12:
                    best_obj, best_x = bound, x
                continue
            j = int(np.argmax(dist))  # the first most fractional count
            floor = math.floor(q[j])
            down_ub, up_lb = ub.copy(), lb.copy()
            down_ub[j] = min(ub[j], floor)
            up_lb[j] = max(lb[j], floor + 1)
            if up_model is None:  # the first branching is the root's, so the first model still holds its basis
                up_model = LpModel(prog.lp)
                up_model.take_basis(down_model)
            up = worker.submit(solve_node, up_model, up_lb, ub)
            children = ((lb, down_ub, solve_node(down_model, lb, down_ub)), (up_lb, ub, up.result()))
            for child_lb, child_ub, child in children:
                nodes += 1
                if child is not None and child.objective < best_obj - 1e-9:
                    counter += 1
                    heapq.heappush(heap, (child.objective, neg_depth - 1, counter, child_lb, child_ub, child.x))

    if best_x is None:  # no incumbent: nothing bounds the gap
        gap = np.inf
    elif not limit_hit and not heap:
        gap = 0.0
    else:
        lower = min(min([h[0] for h in heap], default=best_obj), best_obj)
        gap = max(0.0, (best_obj - lower) / max(1e-12, abs(best_obj)))
    plans = tuple(prog.unpack(best_x, integral=True)) if best_x is not None else ()
    objective = float(best_obj) if best_x is not None else np.nan
    return ExactResult(objective, plans, float(gap), nodes, ITERATION_LIMIT if limit_hit else OPTIMAL)


# --- dual certificate -----------------------------------------------------------


@dataclass(frozen=True)
class DualCertificate:
    """Multipliers of the horizon LP dual, slot by slot, in the solver's sign convention.

    ``equality[t]`` holds slot t's equality multipliers in its layout's row
    order (demand rows, then balance rows); ``capacity[t]`` and
    ``precedence[t]`` are the (M, I) multipliers of its capacity and
    deployment-coupling rows.  ``check_certificate`` fills in ``slot_bounds``,
    each slot's term ``-b_eq,t . y_t`` of the dual objective, and the
    ``violations``; the ``objective`` lower-bounds the horizon LP optimum
    whenever the certificate is ``feasible``.
    """

    capacity: np.ndarray  # (T, M, I)
    equality: tuple  # per slot: (demand rows + balance rows,)
    precedence: np.ndarray  # (T, M, I)
    slot_bounds: np.ndarray = None  # (T,), set by check_certificate
    violations: tuple = ()

    @property
    def objective(self) -> float:
        return math.nan if self.slot_bounds is None else float(sum(self.slot_bounds))

    @property
    def feasible(self) -> bool:
        return self.slot_bounds is not None and not self.violations


def build_dual_certificate(inst: ProblemInstance, slots, plans) -> DualCertificate:
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
    return check_certificate(inst, slots, cert)


def check_certificate(inst: ProblemInstance, slots, cert: DualCertificate) -> DualCertificate:
    """Verify ``cert`` slot by slot; returns it with its bound terms and violations.

    Slot t's block of the horizon LP's reduced costs is ``run + routing +
    A_eq' y_t + A_cap' lam_t``, plus ``nu_t - nu_{t+1}`` on the count
    columns; each deployment column's reduced cost is ``deploy - nu_t``.
    Every reduced cost must be at least ``-CERTIFICATE_TOL``, as must
    ``lam`` and ``nu``.  Each violation is ``(t, family, worst value)``, one
    per slot and family.
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
            if worst < -CERTIFICATE_TOL:
                bad.append((t, family, worst))
        bounds.append(float(-lay.b_eq @ y))
    return replace(cert, slot_bounds=np.array(bounds), violations=tuple(bad))


def min_positive_deployment(plans) -> float:
    """Smallest strictly positive instance count across a trajectory.

    Counts below ``DEPLOYMENT_FLOOR`` are treated as zero so floating-point
    dust cannot blow up the reciprocal in the fractional ratio bound.
    Returns nan when the trajectory never deploys anything.
    """
    smallest = np.inf
    for plan in plans:
        q = np.asarray(plan.q, dtype=float)
        positive = q[q >= DEPLOYMENT_FLOOR]
        if positive.size:
            smallest = min(smallest, float(positive.min()))
    return smallest if np.isfinite(smallest) else np.nan


def write_certificate_csv(path, cert: DualCertificate) -> None:
    """Audit dump of a checked certificate: per-slot multiplier maxima and bound terms, the total, the violations."""
    if cert.slot_bounds is None:
        raise ValueError("certificate is unchecked: run check_certificate before writing it")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "max_capacity_dual", "max_precedence", "objective_share"])
        for t, bound in enumerate(cert.slot_bounds):
            w.writerow([t, float(cert.capacity[t].max(initial=0.0)), float(cert.precedence[t].max(initial=0.0)), bound])
        w.writerow(["total", "", "", cert.objective])
        for t, family, value in cert.violations:
            w.writerow(["violation", f"{family} t={t}", value, ""])
