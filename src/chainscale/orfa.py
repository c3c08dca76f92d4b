"""Per-slot fractional planning via entropy regularization.

Instead of charging deployments directly (which couples consecutive slots),
each slot solves a convex subproblem whose objective adds, per VNF and
datacenter, a shifted relative-entropy penalty pulling the new instance count
toward the previous one.  The resulting per-slot optima, stitched together,
form a feasible fractional trajectory for the full horizon problem, and their
dual multipliers later feed the offline lower-bound certificate.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .layout import SlotLayout
from .model import ProblemInstance, SlotInput
from .solver import (
    OPTIMAL,
    EntropyRegularizedProgram,
    LinearProgram,
    solve_entropy,
)

__all__ = ["FractionalPlan", "SlotDuals", "build_subproblem", "orfa_step", "run_orfa", "write_plan_csv"]

#: counts below this, carrying below-this load, are interior-point dust
Q_FLOOR = 1e-7
#: solve tolerance of each slot subproblem
TOL = 1e-8


@dataclass(frozen=True)
class SlotDuals:
    """Multipliers of one slot's subproblem, as the solver returns them.

    ``equality`` holds one multiplier per equality row in the layout's row
    order: the demand rows, then the conservation rows.  ``capacity[m, i] >=
    0`` prices processing capacity.  Signs follow the solver's convention, so
    the offline dual reads them unchanged.
    """

    equality: np.ndarray
    capacity: np.ndarray


@dataclass(frozen=True)
class FractionalPlan:
    """One slot's fractional decisions plus solver diagnostics."""

    t: int
    q: np.ndarray  # (M, I) instance counts
    rho: np.ndarray  # (M, I) newly deployed instances, max(0, q - prev_q)
    y: dict  # flow id -> (L, I) traffic entering each position
    x: dict  # flow id -> (L-1, I, I) hop traffic
    duals: SlotDuals = None
    objective: float = np.nan  # subproblem objective (includes the regularizer)
    kkt: dict = field(default_factory=dict)


def build_subproblem(
    inst: ProblemInstance,
    slot: SlotInput,
    prev_q: np.ndarray,
    layout: SlotLayout = None,
):
    """Assemble the regularized slot subproblem.

    Objective: rent + transfer + delay over this slot's routing, plus
    ``(deploy_cost / eta)`` times the shifted relative entropy between the new
    and previous instance counts (shift ``epsilon / (M*I)``).  Subject to
    capacity, arrival-rate and conservation constraints with everything
    nonnegative.  Instance counts have no natural upper bound; a demand-based
    cap is added only where the rent is zero, to keep the program bounded
    without touching any multiplier used downstream.

    Returns ``(program, layout)``; ``layout`` is built from the slot, which
    checks it, when not given.
    """
    if layout is None:
        layout = SlotLayout(inst, slot)
    cols, caps = layout.count_caps(slot.run_costs)
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
    return EntropyRegularizedProgram(lp, weight, reference, shift), layout


def _interior_start(layout: SlotLayout) -> np.ndarray:
    inst = layout.inst
    v = layout.spread_evenly()
    load = (layout.load @ v).reshape(inst.num_vnfs, inst.num_datacenters)
    v[: layout.num_q] = (load / inst.capacity + 0.9).reshape(-1)
    return v


def orfa_step(
    inst: ProblemInstance,
    slot: SlotInput,
    prev_q: np.ndarray,
    layout: SlotLayout = None,
) -> FractionalPlan:
    """Solve one slot's regularized subproblem.

    Returns the optimal fractional plan; newly deployed counts are the
    positive part of the change from ``prev_q``.  A valid instance always
    admits a solution (instance counts are unbounded above), so an infeasible
    status indicates corrupt input and raises.
    """
    prog, layout = build_subproblem(inst, slot, prev_q, layout)
    result = solve_entropy(prog, _interior_start(layout), tol=TOL)
    if result.status != OPTIMAL:
        raise RuntimeError(f"slot {slot.t}: subproblem solve failed with status {result.status}")
    q, y, x = layout.unpack(result.x)
    # clear interior-point dust: counts carrying only dust-sized load are zero
    load = (layout.load @ result.x).reshape(q.shape)
    q[(q < Q_FLOOR) & (load <= Q_FLOOR)] = 0.0
    rho = np.maximum(0.0, q - np.asarray(prev_q, dtype=float))
    return FractionalPlan(
        t=slot.t,
        q=q,
        rho=rho,
        y=y,
        x=x,
        duals=SlotDuals(result.eq_duals, result.ub_duals[: layout.num_q].reshape(q.shape).copy()),
        objective=result.objective,
        kkt=result.kkt,
    )


def run_orfa(inst: ProblemInstance, slots) -> list:
    """Process the slot stream online, chaining each slot's counts into the next.

    Slots are consumed strictly in order and nothing from a later slot can
    influence an earlier decision.
    """
    prev_q = np.zeros((inst.num_vnfs, inst.num_datacenters))
    plans = []
    for slot in slots:
        plan = orfa_step(inst, slot, prev_q)
        plans.append(plan)
        prev_q = plan.q
    return plans


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
