"""Complete online pipeline: fractional plan, rounding, flow redirection.

Per slot: solve the regularized fractional subproblem, round its counts to
integers with a rounding policy (OWDR over cluster stars by default; the GR
and IRR baselines differ only here), then re-optimize the routing on the
layout's own program with the counts fixed by bounds, one ``LpModel`` solve
per slot.
``run_online`` walks the slots once for any number of policies, building
each slot's ``SlotLayout`` once for all three steps; clustering runs once,
up front.  The fractional chain and each policy's integer chain evolve
independently: the subproblem references yesterday's fractional counts while
deployment charges reference the policy's yesterday's integer counts.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .clustering import ClusterSet, cluster
from .layout import SlotLayout, SlotPlan
from .model import ProblemInstance, SlotInput
from .orfa import orfa_step
from .rates import CostBreakdown
from .rounding import round_owdr
from .solver import OPTIMAL, LinearProgram, LpModel

__all__ = ["SlotRecord", "CoaResult", "OnlineRun", "reroute", "coa_step", "run_online", "run_coa", "bound_ingredients",
           "write_trajectory_csv"]


def reroute(layout: SlotLayout, q_int: np.ndarray) -> SlotPlan:
    """The layout's slot with integer counts ``q_int``, optimally routed.

    Solves the layout's own program with the counts fixed at ``q_int`` by
    their column bounds: the routing then minimizes transfer plus delay.
    Feasible whenever every VNF's aggregate capacity covers its demand, which
    the rounding guarantees; a violation of that precondition aborts loudly.
    """
    inst, t = layout.inst, layout.slot.t
    q_int = np.asarray(q_int)
    if not layout.rates.active:
        return SlotPlan(t, q_int, {}, {})
    demand = layout.demand
    supply = (q_int * inst.capacity).sum(axis=1)
    short = demand - supply
    if np.any(short > 1e-5 * np.maximum(1.0, demand)):
        m = int(np.argmax(short))
        raise AssertionError(
            f"slot {t}: aggregate capacity {supply[m]:.6g} of VNF {m} cannot carry demand {demand[m]:.6g}"
        )
    lp = LinearProgram(c=layout.cost, a_eq=layout.a_eq, b_eq=layout.b_eq, a_ub=layout.a_cap, b_ub=np.zeros(layout.num_q))
    counts = q_int.reshape(-1).astype(float)
    result = LpModel(lp).solve(np.arange(layout.num_q), counts, counts)
    if result.status != OPTIMAL:
        raise AssertionError(f"slot {t}: redirection LP unexpectedly {result.status}")
    low = float(result.x.min(initial=0.0))
    if low < -1e-6:
        raise AssertionError(f"slot {t}: redirection LP returned negative traffic {low}")
    return replace(layout.unpack(np.maximum(result.x, 0.0)), q=q_int)


@dataclass(frozen=True)
class SlotRecord:
    """Everything produced for one slot of the online run."""

    t: int
    fractional: SlotPlan
    integer: SlotPlan
    cost_fractional: CostBreakdown
    cost_integer: CostBreakdown


@dataclass(frozen=True)
class CoaResult:
    records: tuple
    ingredients: dict  # ratio-bound ingredients measured over the run

    @property
    def total_fractional(self) -> CostBreakdown:
        return sum((r.cost_fractional for r in self.records), CostBreakdown())

    @property
    def total_integer(self) -> CostBreakdown:
        return sum((r.cost_integer for r in self.records), CostBreakdown())


@dataclass(frozen=True)
class OnlineRun:
    """One online pass: the fractional chain and each rounding policy's run on it."""

    fractional: tuple  # ORFA's SlotPlan per slot
    total_fractional: CostBreakdown
    runs: dict  # policy name -> CoaResult, or None when the policy left some slot unroutable
    ingredients: dict  # ratio-bound ingredients measured over the run


def _integer_slot(layout: SlotLayout, frac_q, rounder, clusters, rng):
    """Round with ``rounder`` and route; None when the slot is unroutable."""
    q_int = rounder(layout, frac_q, clusters, rng)
    return None if q_int is None else reroute(layout, q_int)


def coa_step(inst: ProblemInstance, slot: SlotInput, prev_q_frac: np.ndarray, prev_q_int: np.ndarray,
             clusters: ClusterSet, rng):
    """One slot of the full pipeline; returns (fractional, integer) plans.

    ``prev_q_int`` is not read: deployments are charged by ``SlotLayout.price``
    from consecutive counts.  The argument stays for positional callers.
    """
    layout = SlotLayout(inst, slot)
    frac = orfa_step(layout, prev_q_frac)
    return frac, _integer_slot(layout, frac.q, round_owdr, clusters, rng)


def run_online(inst: ProblemInstance, slots, seed: int, policies: dict) -> OnlineRun:
    """Run the online pipeline over a slot stream once, rounding with every policy.

    ``policies`` maps names to rounding policies from ``rounding``.  Each
    policy spawns one child generator per slot from ``seed``, so a slot's
    draws depend neither on earlier slots nor on the other policies.  A policy
    that leaves a slot unroutable (only IRR can) gets None in ``runs``.
    """
    clusters = cluster(inst.dc_delays())
    draws = {name: np.random.default_rng(seed).spawn(len(slots)) for name in policies}
    live = {name: [] for name in policies}  # each still-routable policy's records
    fractional, total_fractional = [], CostBreakdown()
    prev_qf = np.zeros((inst.num_vnfs, inst.num_datacenters))
    for idx, slot in enumerate(slots):
        layout = SlotLayout(inst, slot)
        frac = orfa_step(layout, prev_qf)
        cost_frac = layout.price(frac, prev_qf)
        for name, recs in list(live.items()):
            prev_qi = recs[-1].integer.q if recs else np.zeros(prev_qf.shape, dtype=int)
            integer = _integer_slot(layout, frac.q, policies[name], clusters, draws[name][idx])
            if integer is None:
                del live[name]
            else:
                recs.append(SlotRecord(slot.t, frac, integer, cost_frac, layout.price(integer, prev_qi)))
        del layout  # freed before the next slot's is built: one layout alive at a time
        fractional.append(frac)
        total_fractional = total_fractional + cost_frac
        prev_qf = frac.q
    ingredients = bound_ingredients(inst, slots, clusters)
    runs = {name: CoaResult(tuple(live[name]), ingredients) if name in live else None for name in policies}
    return OnlineRun(tuple(fractional), total_fractional, runs, ingredients)


def run_coa(inst: ProblemInstance, slots, seed: int) -> CoaResult:
    """``run_online`` with OWDR alone, looked up per call so wrappers put on ``round_owdr`` apply."""
    return run_online(inst, slots, seed, {"COA": round_owdr}).runs["COA"]


def bound_ingredients(inst: ProblemInstance, slots, clusters: ClusterSet) -> dict:
    """Measured quantities entering the worst-case ratio guarantees.

    ``eta`` is the regularizer scale; ``phi1`` the worst deploy-to-rent
    ratio, ``phi2`` the worst transfer-to-rent ratio per unit capacity and
    ``phi3`` the worst delay-to-rent ratio relative to the cluster threshold.
    """
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
