"""Per-slot fractional planning via entropy regularization.

Instead of charging deployments directly (which couples consecutive slots),
each slot solves a convex subproblem whose objective adds, per VNF and
datacenter, a shifted relative-entropy penalty pulling the new instance count
toward the previous one.  The resulting per-slot optima, stitched together,
form a feasible fractional trajectory for the full horizon problem, and their
dual multipliers later feed the offline lower-bound certificate.

A slot step takes the slot's ``SlotLayout``, which holds the instance, the
slot and the slot's rows and prices; ``coa.run_online`` chains the steps
over the slot stream, one layout per slot.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .layout import SlotLayout, SlotPlan
from .solver import (
    OPTIMAL,
    EntropyRegularizedProgram,
    LinearProgram,
    solve_entropy,
)

__all__ = ["SlotDuals", "SolveError", "build_subproblem", "orfa_step", "write_plan_csv"]

#: counts below this, carrying below-this load, are interior-point dust
Q_FLOOR = 1e-7
#: solve tolerance of each slot subproblem
TOL = 1e-8


class SolveError(RuntimeError):
    """A slot subproblem the solver failed on; the message names the slot and the cause."""


@dataclass(frozen=True)
class SlotDuals:
    """Multipliers of one slot's subproblem, as the solver returns them.

    ``equality`` holds one multiplier per equality row in the layout's row
    order: the demand rows, then the balance rows.  ``capacity[m, i] >=
    0`` prices processing capacity.  Signs follow the solver's convention, so
    the offline dual reads them unchanged.
    """

    equality: np.ndarray
    capacity: np.ndarray


def build_subproblem(layout: SlotLayout, prev_q: np.ndarray):
    """Assemble the regularized subproblem of the layout's slot.

    Objective: rent + transfer + delay over this slot's routing, plus
    ``(deploy_cost / eta)`` times the shifted relative entropy between the new
    and previous instance counts (shift ``epsilon / (M*I)``).  Subject to
    capacity, arrival-rate and flow-balance constraints with everything
    nonnegative.  Instance counts have no natural upper bound; where the rent
    is zero, a cap from ``_count_caps``, one instance above the larger of the
    previous count and the count the slot's demand needs, keeps the program
    bounded without binding or touching any multiplier used downstream.

    Returns ``(program, start)``: ``start`` is a strictly interior point that
    spreads every flow evenly over generous instance counts.
    """
    inst = layout.inst
    cols, caps = _count_caps(layout, prev_q)
    a_caps = sp.csr_matrix((np.ones(cols.size), (np.arange(cols.size), cols)), shape=(cols.size, layout.n_vars))
    lp = LinearProgram(
        c=layout.cost,
        a_eq=layout.a_eq,
        b_eq=layout.b_eq,
        a_ub=sp.vstack([layout.a_cap, a_caps]),
        b_ub=np.concatenate([np.zeros(layout.num_q), caps]),
    )
    weight = np.zeros(layout.n_vars)
    reference = np.zeros(layout.n_vars)
    shift = np.ones(layout.n_vars)
    weight[: layout.num_q] = (inst.deploy_cost / inst.eta).reshape(-1)
    reference[: layout.num_q] = np.asarray(prev_q, dtype=float).reshape(-1)
    shift[: layout.num_q] = inst.entropy_shift
    return EntropyRegularizedProgram(lp, weight, reference, shift), _interior_start(layout)


def _count_caps(layout: SlotLayout, prev_q: np.ndarray):
    """The zero-rent counts' columns and caps; with zero deploy cost as well, nothing else bounds such a count."""
    free = np.flatnonzero(layout.cost[: layout.num_q] <= 0.0)
    caps = np.maximum(np.asarray(prev_q, dtype=float), layout.demand[:, None] / layout.inst.capacity) + 1.0
    return free, caps.reshape(-1)[free]


def _load(layout: SlotLayout, v: np.ndarray) -> np.ndarray:
    """Traffic each (VNF, datacenter) processes under ``v``, (M, I): its capacity row with the counts zeroed."""
    # each row's count entry comes first, so its routing entries sum as over the routing columns alone
    inst, routing = layout.inst, np.concatenate([np.zeros(layout.num_q), v[layout.num_q :]])
    return (layout.a_cap @ routing).reshape(inst.num_vnfs, inst.num_datacenters)


def _interior_start(layout: SlotLayout) -> np.ndarray:
    inst = layout.inst
    v = layout.spread_evenly()
    load = _load(layout, v)
    v[: layout.num_q] = (load / inst.capacity + 0.9).reshape(-1)
    return v


def orfa_step(layout: SlotLayout, prev_q: np.ndarray) -> SlotPlan:
    """Solve the regularized subproblem of the layout's slot.

    Returns the optimal fractional plan with the solve's multipliers,
    objective and KKT record.  A valid instance always admits a solution
    (instance counts are unbounded above), but rates near the floating-point
    range, however finite, can defeat the Newton solve: any status but
    optimal, and any error the solver raises, becomes ``SolveError``.
    """
    prog, start = build_subproblem(layout, prev_q)
    try:
        result = solve_entropy(prog, start, tol=TOL)
    except ValueError as exc:  # np.linalg.LinAlgError is one
        raise SolveError(f"slot {layout.slot.t}: subproblem solve failed: {type(exc).__name__}: {exc}") from exc
    if result.status != OPTIMAL:
        raise SolveError(f"slot {layout.slot.t}: subproblem solve failed with status {result.status}")
    plan = layout.unpack(result.x)
    # clear interior-point dust: counts carrying only dust-sized load are zero
    plan.q[(plan.q < Q_FLOOR) & (_load(layout, result.x) <= Q_FLOOR)] = 0.0
    duals = SlotDuals(result.eq_duals, result.ub_duals[: layout.num_q].reshape(plan.q.shape).copy())
    return replace(plan, duals=duals, objective=result.objective, kkt=result.kkt)


def write_plan_csv(path, plans) -> None:
    """Dump nonzero plan variables, one row per variable."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "kind", "flow", "vnf_pos", "from_dc", "to_dc", "value"])
        for plan in plans:
            for (m, i), val in np.ndenumerate(plan.q):
                if val > 0:
                    w.writerow([plan.t, "q", "", m, i, "", f"{val:.12g}"])
            for k, y in sorted(plan.y.items()):
                for (pos, i), val in np.ndenumerate(y):
                    if val > 0:
                        w.writerow([plan.t, "y", k, pos, i, "", f"{val:.12g}"])
            for k, x in sorted(plan.x.items()):
                for (hop, i, j), val in np.ndenumerate(x):
                    if val > 0:
                        w.writerow([plan.t, "x", k, hop, i, j, f"{val:.12g}"])
