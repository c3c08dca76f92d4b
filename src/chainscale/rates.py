"""Flow rate propagation, delay-cost coefficients and plan costing.

Everything here is a pure function of immutable inputs; results are
reproducible bit for bit and safe to evaluate in parallel across slots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ProblemInstance, ServiceChain, SlotInput

__all__ = [
    "RateProfile",
    "DelayCoefficients",
    "CostBreakdown",
    "compute_beta_bar",
    "slot_rates",
    "delay_coefficients",
    "cost_of_plan",
    "plan_residuals",
    "vnf_demand",
    "sum_costs",
]

#: flows with a source rate below this are treated as absent for the slot
RATE_FLOOR = 1e-12


def compute_beta_bar(chain: ServiceChain) -> np.ndarray:
    """Cumulative rate-change ratio at each chain position.

    Position 0 carries ratio 1; each later position multiplies in the
    rate-change ratio of the VNF before it.  The chain must be a simple path
    (no repeated VNFs).
    """
    if len(set(chain.vnfs)) != len(chain.vnfs):
        raise ValueError(f"chain {chain.chain_id} repeats a VNF; hops do not form a simple path")
    if any(b <= 0 for b in chain.beta):
        raise ValueError(f"chain {chain.chain_id} has a non-positive rate-change ratio")
    out = np.ones(len(chain.vnfs))
    for j in range(1, len(chain.vnfs)):
        out[j] = out[j - 1] * chain.beta[j - 1]
    return out


@dataclass(frozen=True)
class RateProfile:
    """Per-slot arrival rates at every chain position of every active flow."""

    active: tuple  # flow ids with positive rate this slot
    beta_bar: dict  # flow id -> (L,) cumulative ratios
    f_hat: dict  # flow id -> (L,) aggregate arrival rate at each position


def slot_rates(inst: ProblemInstance, slot: SlotInput) -> RateProfile:
    """Aggregate arrival rates F_hat = source rate x cumulative ratio."""
    active, bars, hats = [], {}, {}
    for flow in inst.flows:
        rate = float(slot.rates[flow.flow_id])
        if rate <= RATE_FLOOR:
            continue
        chain = inst.chain_of(flow.flow_id)
        bar = compute_beta_bar(chain)
        active.append(flow.flow_id)
        bars[flow.flow_id] = bar
        hats[flow.flow_id] = rate * bar
    return RateProfile(tuple(active), bars, hats)


@dataclass(frozen=True)
class DelayCoefficients:
    """Linearized delay cost per unit of routed traffic.

    ``endpoint[k][pos, i]`` charges traffic of flow k entering position
    ``pos`` at datacenter i for the source-side leg (first position) and the
    destination-side leg (last position).  ``hop[k][h, i, j]`` charges traffic
    on real hop h moved from datacenter i to datacenter j.
    """

    endpoint: dict  # flow id -> (L, I)
    hop: dict  # flow id -> (L-1, I, I)


def delay_coefficients(inst: ProblemInstance, slot: SlotInput, rates: RateProfile) -> DelayCoefficients:
    """Per-unit delay-cost coefficients for every active flow.

    Only defined for flows with a positive rate (the per-unit normalization
    divides by the source rate); passing an absent flow is a contract
    violation and raises.
    """
    delays = inst.delay.values
    dc = inst.dc_nodes
    endpoint, hop = {}, {}
    for k in rates.active:
        flow = inst.flows[k]
        rate = float(slot.rates[k])
        if rate <= RATE_FLOOR:
            raise ValueError(f"flow {k} has zero rate; delay coefficients are undefined")
        chain = inst.chain_of(k)
        bar = rates.beta_bar[k]
        a_k = float(slot.delay_weights[k])
        L = len(chain)
        xi = np.zeros((L, inst.num_datacenters))
        xi[0] += a_k * delays[flow.source, dc] / rate
        xi[L - 1] += a_k * delays[dc, flow.destination] / (bar[L - 1] * rate)
        om = np.zeros((L - 1, inst.num_datacenters, inst.num_datacenters))
        for h in range(L - 1):
            # rate on hop h equals beta[h] * bar[h] * source rate
            om[h] = a_k * delays[np.ix_(dc, dc)] / (chain.beta[h] * bar[h] * rate)
        endpoint[k] = xi
        hop[k] = om
    return DelayCoefficients(endpoint, hop)


@dataclass(frozen=True)
class CostBreakdown:
    """The four per-slot cost components, all in abstract money units."""

    run: float = 0.0
    deploy: float = 0.0
    transfer: float = 0.0
    delay: float = 0.0

    @property
    def total(self) -> float:
        return self.run + self.deploy + self.transfer + self.delay

    def __add__(self, other: "CostBreakdown") -> "CostBreakdown":
        return CostBreakdown(
            self.run + other.run,
            self.deploy + other.deploy,
            self.transfer + other.transfer,
            self.delay + other.delay,
        )


def sum_costs(costs) -> CostBreakdown:
    total = CostBreakdown()
    for c in costs:
        total = total + c
    return total


def cost_of_plan(inst: ProblemInstance, slot: SlotInput, plan, prev_q) -> CostBreakdown:
    """Evaluate one slot's plan against the full cost model.

    ``plan`` needs attributes ``q`` (M, I), ``y`` (flow id -> (L, I)) and
    ``x`` (flow id -> (L-1, I, I)), as a ``layout.SlotPlan`` has, with
    fractional or integer counts.  Plans store no deployments: they are
    charged here, on the positive part of the instance-count increase
    relative to ``prev_q``.  The transfer charge uses the ingress+egress form
    with the intra-datacenter deduction: traffic that stays inside one
    datacenter on a hop moves for free.
    """
    q = np.asarray(plan.q, dtype=float)
    prev_q = np.asarray(prev_q, dtype=float)
    if np.any(q < -1e-12):
        raise ValueError("plan has negative instance counts")

    run = float(np.sum(slot.run_costs * q))
    deploy = float(np.sum(inst.deploy_cost * np.maximum(0.0, q - prev_q)))

    rates = slot_rates(inst, slot)
    per_unit = delay_coefficients(inst, slot, rates)
    d_in, d_out = inst.ingress_cost, inst.egress_cost

    transfer = 0.0
    delay = 0.0
    for k in rates.active:
        chain = inst.chain_of(k)
        y = np.asarray(plan.y[k], dtype=float)
        x = np.asarray(plan.x[k], dtype=float)
        if np.any(y < -1e-12) or np.any(x < -1e-12):
            raise ValueError(f"plan routes negative traffic for flow {k}")
        for pos in range(len(chain)):
            transfer += float(np.dot(d_in + d_out * chain.beta[pos], y[pos]))
        for h, _ in enumerate(chain.hops):
            transfer -= float(np.dot(d_in + d_out, np.diag(x[h])))
        delay += float(np.sum(per_unit.endpoint[k] * y))
        delay += float(np.sum(per_unit.hop[k] * x))
    return CostBreakdown(run, deploy, transfer, delay)


def vnf_demand(inst: ProblemInstance, rates: RateProfile) -> np.ndarray:
    """Total arrival rate that each VNF type must absorb this slot, (M,)."""
    demand = np.zeros(inst.num_vnfs)
    for k in rates.active:
        chain = inst.chain_of(k)
        for pos, m in enumerate(chain.vnfs):
            demand[m] += rates.f_hat[k][pos]
    return demand


def plan_residuals(inst: ProblemInstance, slot: SlotInput, plan, rates: RateProfile | None = None) -> dict:
    """Worst-case violation of each routing constraint family for one slot.

    Returns absolute residuals: ``capacity`` (processing overload),
    ``demand`` (arrival-rate mismatch), ``inbound`` / ``outbound`` (flow
    conservation at non-boundary positions) and ``nonneg``.
    """
    if rates is None:
        rates = slot_rates(inst, slot)
    q = np.asarray(plan.q, dtype=float)
    res = {"capacity": 0.0, "demand": 0.0, "inbound": 0.0, "outbound": 0.0, "nonneg": 0.0}
    res["nonneg"] = max(0.0, float(np.max(-q, initial=0.0)))

    load = np.zeros((inst.num_vnfs, inst.num_datacenters))
    for k in rates.active:
        chain = inst.chain_of(k)
        y = np.asarray(plan.y[k], dtype=float)
        x = np.asarray(plan.x[k], dtype=float)
        res["nonneg"] = max(res["nonneg"], float(np.max(-y, initial=0.0)), float(np.max(-x, initial=0.0)))
        for pos, m in enumerate(chain.vnfs):
            load[m] += y[pos]
            res["demand"] = max(res["demand"], abs(float(np.sum(y[pos])) - rates.f_hat[k][pos]))
        for pos in range(1, len(chain)):
            gap = y[pos] - x[pos - 1].sum(axis=0)
            res["inbound"] = max(res["inbound"], float(np.max(np.abs(gap))))
        for pos in range(len(chain) - 1):
            gap = chain.beta[pos] * y[pos] - x[pos].sum(axis=1)
            res["outbound"] = max(res["outbound"], float(np.max(np.abs(gap))))
    overload = load - q * inst.capacity
    if overload.size:
        res["capacity"] = max(0.0, float(np.max(overload)))
    return res
