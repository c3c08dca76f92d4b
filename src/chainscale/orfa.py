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
from .rates import slot_rates
from .solver import (
    OPTIMAL,
    EntropyRegularizedProgram,
    LinearProgram,
    SolveResult,
    solve_entropy,
)

__all__ = ["FractionalPlan", "SlotDuals", "build_subproblem", "orfa_step", "run_orfa", "write_plan_csv"]

#: counts below this, carrying below-this load, are interior-point dust
Q_FLOOR = 1e-7


@dataclass(frozen=True)
class SlotDuals:
    """Multipliers of one slot's subproblem, oriented for the offline dual.

    ``capacity[m, i] >= 0`` prices processing capacity; ``demand[k][pos]``
    prices the arrival-rate constraint, stated only at the chain entry, so
    ``demand[k][pos >= 1]`` is 0; ``inbound[k][pos, i]`` /
    ``outbound[k][pos, i]`` price flow conservation (rows for the first /
    last position are unused and left at zero).
    """

    capacity: np.ndarray
    demand: dict
    inbound: dict
    outbound: dict


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

    Returns ``(program, layout)``; ``layout`` is built from the slot's rates
    when not given.
    """
    _check_slot(inst, slot)
    if layout is None:
        layout = SlotLayout(inst, slot_rates(inst, slot))
    a_cap, b_cap = layout.capacity_rows()
    a_dem, b_dem = layout.demand_rows()
    a_con, b_con = layout.conservation_rows()
    cols, caps = layout.count_caps(slot.run_costs)
    a_caps = sp.csr_matrix((np.ones(cols.size), (np.arange(cols.size), cols)), shape=(cols.size, layout.n_vars))
    lp = LinearProgram(
        c=layout.run_cost(slot) + layout.routing_cost(slot),
        a_eq=sp.vstack([a_dem, a_con]).tocsr(),
        b_eq=np.concatenate([b_dem, b_con]),
        a_ub=sp.vstack([a_cap, a_caps]).tocsr(),
        b_ub=np.concatenate([b_cap, caps]),
    )
    weight = np.zeros(layout.n_vars)
    reference = np.zeros(layout.n_vars)
    shift = np.ones(layout.n_vars)
    weight[: layout.num_q] = (inst.deploy_cost / inst.eta).reshape(-1)
    reference[: layout.num_q] = np.asarray(prev_q, dtype=float).reshape(-1)
    shift[: layout.num_q] = inst.entropy_shift
    return EntropyRegularizedProgram(lp, weight, reference, shift), layout


def _check_slot(inst: ProblemInstance, slot: SlotInput) -> None:
    if slot.rates.shape != (inst.num_flows,):
        raise ValueError("slot rates shape does not match flow count")
    if slot.run_costs.shape != (inst.num_vnfs, inst.num_datacenters):
        raise ValueError("slot run costs shape does not match (VNFs, datacenters)")
    for name, values in (("rates", slot.rates), ("delay weights", slot.delay_weights), ("run costs", slot.run_costs)):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"slot {slot.t}: {name} must be finite")
        if np.any(values < 0):
            raise ValueError(f"slot {slot.t}: {name} must be nonnegative")


def _interior_start(layout: SlotLayout) -> np.ndarray:
    inst = layout.inst
    v = layout.spread_evenly()
    load = (layout.load @ v).reshape(inst.num_vnfs, inst.num_datacenters)
    v[: layout.num_q] = (load / inst.capacity + 0.9).reshape(-1)
    return v


def _extract_duals(layout: SlotLayout, result: SolveResult) -> SlotDuals:
    """Map solver multipliers onto the capacity/demand/conservation families.

    The demand and inbound rows were written as "supply minus requirement",
    so their multipliers flip sign to price the requirement itself; outbound
    rows already carry the right orientation.  The equality rows are read in
    the order ``build_subproblem`` stacks them: one demand row per flow, then
    the inbound rows, then the outbound rows, each flow contributing (L-1)*I
    rows of either kind, flows in ``rates.active`` order.
    """
    inst = layout.inst
    I, M = inst.num_datacenters, inst.num_vnfs
    cap = result.ub_duals[: M * I].reshape(M, I).copy()
    eq = result.eq_duals
    lengths = [len(layout.chain[k]) for k in layout.rates.active]
    r_in = len(lengths)
    r_out = r_in + (sum(lengths) - len(lengths)) * I

    demand, inbound, outbound = {}, {}, {}
    for r_dem, (k, L) in enumerate(zip(layout.rates.active, lengths)):
        n_hop = (L - 1) * I
        demand[k] = np.concatenate(([-eq[r_dem]], np.zeros(L - 1)))
        inbound[k] = np.vstack([np.zeros(I), -eq[r_in : r_in + n_hop].reshape(L - 1, I)])
        outbound[k] = np.vstack([eq[r_out : r_out + n_hop].reshape(L - 1, I), np.zeros(I)])
        r_in, r_out = r_in + n_hop, r_out + n_hop
    return SlotDuals(cap, demand, inbound, outbound)


def orfa_step(
    inst: ProblemInstance,
    slot: SlotInput,
    prev_q: np.ndarray,
    layout: SlotLayout = None,
    tol: float = 1e-8,
) -> FractionalPlan:
    """Solve one slot's regularized subproblem.

    Returns the optimal fractional plan; newly deployed counts are the
    positive part of the change from ``prev_q``.  A valid instance always
    admits a solution (instance counts are unbounded above), so an infeasible
    status indicates corrupt input and raises.
    """
    prog, layout = build_subproblem(inst, slot, prev_q, layout)
    result = solve_entropy(prog, tol=tol, x0=_interior_start(layout))
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
        duals=_extract_duals(layout, result),
        objective=result.objective,
        kkt=result.kkt,
    )


def run_orfa(inst: ProblemInstance, slots, tol: float = 1e-8) -> list:
    """Process the slot stream online, chaining each slot's counts into the next.

    Slots are consumed strictly in order and nothing from a later slot can
    influence an earlier decision.
    """
    prev_q = np.zeros((inst.num_vnfs, inst.num_datacenters))
    plans = []
    for slot in slots:
        plan = orfa_step(inst, slot, prev_q, tol=tol)
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
