"""Complete online pipeline: fractional plan, rounding, flow redirection.

Per slot: solve the regularized fractional subproblem, round its counts to
integers with a rounding policy (OWDR over cluster stars by default; the GR
and IRR baselines differ only here), then re-optimize the routing with counts
fixed by solving a transfer-plus-delay LP.  Clustering runs once, up front.
The fractional chain and the integer chain evolve independently: the
subproblem references yesterday's fractional counts while deployment charges
reference yesterday's integer counts.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .clustering import ClusterSet, cluster
from .layout import SlotLayout
from .model import ProblemInstance, SlotInput
from .orfa import FractionalPlan, orfa_step
from .rates import CostBreakdown, cost_of_plan, sum_costs
from .rounding import IntegerPlan, round_owdr
from .solver import OPTIMAL, LinearProgram, solve_lp

__all__ = ["SlotRecord", "CoaResult", "reroute", "coa_step", "run_coa", "bound_ingredients", "write_trajectory_csv"]


def reroute(inst: ProblemInstance, slot: SlotInput, q_int: np.ndarray, layout: SlotLayout = None):
    """Optimal routing for fixed integer instance counts.

    Minimizes transfer plus delay cost subject to capacity, arrival-rate and
    conservation constraints, over the routing columns of the slot's layout
    (built from the slot when not given).  Feasible whenever every
    VNF's aggregate capacity covers its demand, which the rounding
    guarantees; a violation of that precondition aborts loudly.
    """
    if layout is None:
        layout = SlotLayout(inst, slot)
    if not layout.rates.active:
        return {}, {}
    q_int = np.asarray(q_int, dtype=float)
    demand = layout.demand
    supply = (q_int * inst.capacity).sum(axis=1)
    short = demand - supply
    if np.any(short > 1e-5 * np.maximum(1.0, demand)):
        m = int(np.argmax(short))
        raise AssertionError(
            f"slot {slot.t}: aggregate capacity {supply[m]:.6g} of VNF {m} cannot carry demand {demand[m]:.6g}"
        )
    nq = layout.num_q
    lp = LinearProgram(
        c=layout.cost[nq:],
        a_eq=layout.a_eq[:, nq:],
        b_eq=layout.b_eq,
        a_ub=layout.a_cap[:, nq:],
        b_ub=(q_int * inst.capacity).reshape(-1),
    )
    result = solve_lp(lp)
    if result.status != OPTIMAL:
        raise AssertionError(f"slot {slot.t}: redirection LP unexpectedly {result.status}")
    low = float(result.x.min(initial=0.0))
    if low < -1e-6:
        raise AssertionError(f"slot {slot.t}: redirection LP returned negative traffic {low}")
    _, y, x = layout.unpack(np.concatenate([q_int.reshape(-1), np.maximum(result.x, 0.0)]))
    return x, y


@dataclass(frozen=True)
class SlotRecord:
    """Everything produced for one slot of the online run."""

    t: int
    fractional: FractionalPlan
    integer: IntegerPlan
    cost_fractional: CostBreakdown
    cost_integer: CostBreakdown


@dataclass(frozen=True)
class CoaResult:
    records: tuple
    clusters: ClusterSet
    ingredients: dict  # ratio-bound ingredients measured over the run

    @property
    def total_fractional(self) -> CostBreakdown:
        return sum_costs(r.cost_fractional for r in self.records)

    @property
    def total_integer(self) -> CostBreakdown:
        return sum_costs(r.cost_integer for r in self.records)


def _integer_slot(inst, slot, layout, frac_q, prev_q_int, rounder, clusters, rng):
    """Round with ``rounder``, route, charge new deployments; None when the slot is unroutable."""
    q_int = rounder(inst, slot, layout, frac_q, prev_q_int, clusters, rng)
    if q_int is None:
        return None
    x, y = reroute(inst, slot, q_int, layout)
    rho = np.maximum(0, q_int - np.asarray(prev_q_int, dtype=int))
    return IntegerPlan(t=slot.t, q=q_int, rho=rho, y=y, x=x)


def coa_step(inst: ProblemInstance, slot: SlotInput, prev_q_frac: np.ndarray, prev_q_int: np.ndarray,
             clusters: ClusterSet, rng):
    """One slot of the full pipeline; returns (fractional, integer) plans."""
    layout = SlotLayout(inst, slot)
    frac = orfa_step(inst, slot, prev_q_frac, layout)
    return frac, _integer_slot(inst, slot, layout, frac.q, prev_q_int, round_owdr, clusters, rng)


def run_coa(inst: ProblemInstance, slots, seed: int, frac_plans=None, rounder=None):
    """Run the online pipeline over a slot stream.

    ``seed`` drives the rounding draws; one child generator is spawned per
    slot so a slot's randomness does not depend on how many draws earlier
    slots consumed.  ``frac_plans`` may supply precomputed fractional plans
    (e.g. to share one fractional run across several rounding policies).
    ``rounder`` is a rounding policy from ``rounding`` (OWDR when omitted);
    the result is None when it leaves some slot without a feasible routing.
    """
    rounder = rounder or round_owdr  # looked up per call, so wrappers put on the module name apply
    clusters = cluster(inst.dc_delays())
    root = np.random.default_rng(seed)
    slot_seeds = root.spawn(len(slots))
    prev_qf = np.zeros((inst.num_vnfs, inst.num_datacenters))
    prev_qi = np.zeros((inst.num_vnfs, inst.num_datacenters), dtype=int)
    records = []
    for idx, slot in enumerate(slots):
        layout = SlotLayout(inst, slot)
        frac = orfa_step(inst, slot, prev_qf, layout) if frac_plans is None else frac_plans[idx]
        integer = _integer_slot(inst, slot, layout, frac.q, prev_qi, rounder, clusters, slot_seeds[idx])
        if integer is None:
            return None
        records.append(
            SlotRecord(
                t=slot.t,
                fractional=frac,
                integer=integer,
                cost_fractional=cost_of_plan(inst, slot, frac, prev_qf),
                cost_integer=cost_of_plan(inst, slot, integer, prev_qi),
            )
        )
        prev_qf = frac.q
        prev_qi = integer.q
    ingredients = bound_ingredients(inst, slots, clusters)
    return CoaResult(tuple(records), clusters, ingredients)


def bound_ingredients(inst: ProblemInstance, slots, clusters: ClusterSet = None) -> dict:
    """Measured quantities entering the worst-case ratio guarantees.

    ``eta`` is the regularizer scale; ``phi1`` the worst deploy-to-rent
    ratio, ``phi2`` the worst transfer-to-rent ratio per unit capacity and
    ``phi3`` the worst delay-to-rent ratio relative to the cluster threshold.
    """
    if clusters is None:
        clusters = cluster(inst.dc_delays())
    phi1 = 0.0
    phi2 = 0.0
    phi3 = 0.0
    trans = inst.ingress_cost + inst.egress_cost  # (I,)
    l_max = float(np.max(inst.delay.values))
    for slot in slots:
        with np.errstate(divide="ignore"):
            inv_c = np.where(slot.run_costs > 0, 1.0 / slot.run_costs, np.inf)
        phi1 = max(phi1, float(np.max(inst.deploy_cost * inv_c)))
        phi2 = max(phi2, float(np.max(trans[None, :] * inst.capacity * inv_c)))
        a_max = float(np.max(slot.delay_weights, initial=0.0))
        phi3 = max(phi3, a_max * float(np.max(inst.capacity * inv_c)))
    phi3 *= inst.delay.alpha * l_max / clusters.threshold if clusters.threshold > 0 else np.inf
    eta = inst.eta
    return {
        "eta": eta,
        "phi1": phi1,
        "phi2": phi2,
        "phi3": phi3,
        "integer_ratio_bound": (eta + 2.0) * (2.0 + phi1 + phi2 + phi3),
        "threshold": clusters.threshold,
        "alpha": inst.delay.alpha,
    }


def write_trajectory_csv(path, result: CoaResult) -> None:
    """Per-slot costs (both chains), rounded counts and bound ingredients."""
    ing = result.ingredients
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["t", "frac_run", "frac_deploy", "frac_transfer", "frac_delay",
             "int_run", "int_deploy", "int_transfer", "int_delay",
             "q_int", "eta", "phi1", "phi2", "phi3"]
        )
        for r in result.records:
            cf, ci = r.cost_fractional, r.cost_integer
            q_dump = ";".join(str(v) for v in r.integer.q.reshape(-1))
            w.writerow(
                [r.t, cf.run, cf.deploy, cf.transfer, cf.delay,
                 ci.run, ci.deploy, ci.transfer, ci.delay,
                 q_dump, ing["eta"], ing["phi1"], ing["phi2"], ing["phi3"]]
            )
