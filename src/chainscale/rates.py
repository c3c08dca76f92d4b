"""Flow rate propagation, cost records and plan residuals.

Everything here is a pure function of immutable inputs; results are
reproducible bit for bit and safe to evaluate in parallel across slots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ProblemInstance, ServiceChain, SlotInput

__all__ = [
    "RateProfile",
    "CostBreakdown",
    "compute_beta_bar",
    "slot_rates",
    "cost_of_plan",
    "plan_residuals",
    "vnf_demand",
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


def cost_of_plan(inst: ProblemInstance, slot: SlotInput, plan, prev_q) -> CostBreakdown:
    """Evaluate one slot's plan against the full cost model: ``SlotLayout(inst, slot).price(plan, prev_q)``.

    For a caller that holds no layout of the slot; see ``SlotLayout.price``.
    """
    from .layout import SlotLayout  # layout imports this module

    return SlotLayout(inst, slot).price(plan, prev_q)


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
