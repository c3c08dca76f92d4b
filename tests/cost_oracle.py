"""The cost model written out by hand, used as an independent pricing oracle.

The package prices every plan through its slot layout's cost vector
(``SlotLayout.price``).  This module derives the same prices the long way,
flow by flow and hop by hop, straight from the instance, the slot and the
plan's ``(q, y, x)``, without a layout: per-unit delay coefficients, the
loop form of the plan coster, the loop form of the layout's cost vector and
an explicit per-direction transfer sum.  Slow but easy to check at test
scale.
"""

from dataclasses import dataclass

import numpy as np

from chainscale.rates import RATE_FLOOR, CostBreakdown, slot_rates


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


def delay_coefficients(inst, slot, rates) -> DelayCoefficients:
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


def cost_of_plan(inst, slot, plan, prev_q) -> CostBreakdown:
    """One slot's plan priced by per-flow, per-position and per-hop loops.

    ``plan`` needs ``q``, ``y`` and ``x``; every position's ``y`` is read.
    Deployments are the positive part of the count increase over
    ``prev_q``.  The transfer charge uses the ingress+egress form with the
    intra-datacenter deduction: traffic that stays inside one datacenter on a
    hop moves for free.
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


def prices_and_start(layout, slot):
    """A layout's cost vector and even spread, by per-flow and per-position loops over ``delay_coefficients``."""
    inst, rates = layout.inst, layout.rates
    per_unit = delay_coefficients(inst, slot, rates)
    I = inst.num_datacenters
    d_in, d_out = inst.ingress_cost, inst.egress_cost
    cost, start = np.zeros(layout.n_vars), np.zeros(layout.n_vars)
    cost[: layout.num_q] = slot.run_costs.reshape(-1)
    o = layout.num_q  # each active flow's block, in rates.active order
    for k in rates.active:
        chain, f_hat = inst.chain_of(k), rates.f_hat[k]
        enter = [d_in + d_out * chain.beta[pos] + per_unit.endpoint[k][pos] for pos in range(len(chain))]
        if len(chain) == 1:  # no hop: the entry columns y[0, i]
            cost[o : o + I] = enter[0]
            start[o : o + I] = f_hat[0] / I
            o += I
            continue
        for hop in range(len(chain) - 1):
            block = per_unit.hop[k][hop].copy()
            block[np.diag_indices(I)] -= d_in + d_out
            block += enter[hop + 1][None, :]  # what the hop delivers enters the next position
            if hop == 0:  # what the first hop sends out entered the chain, scaled by 1 / beta_0
                block += (enter[0] / chain.beta[0])[:, None]
            cost[o + hop * I * I : o + (hop + 1) * I * I] = block.reshape(-1)
            start[o + hop * I * I : o + (hop + 1) * I * I] = chain.beta[hop] * f_hat[hop] / (I * I)
        o += (len(chain) - 1) * I * I
    return cost, start


def transfer_cost_double_sum(inst, slot, plan):
    """The transfer charge as an explicit per-direction double sum.

    Inter-datacenter hop traffic pays egress at the sender and ingress at the
    receiver; the virtual ingress hop (from the source) pays ingress on all
    traffic entering the first position, and the virtual egress hop (to the
    destination) pays egress on all traffic leaving the last position.
    """
    rates = slot_rates(inst, slot)
    d_in, d_out = inst.ingress_cost, inst.egress_cost
    total = 0.0
    for k in rates.active:
        chain = inst.chain_of(k)
        y = np.asarray(plan.y[k], dtype=float)
        x = np.asarray(plan.x[k], dtype=float)
        total += float(np.dot(d_in, y[0]))  # source -> first position
        total += float(chain.beta[-1] * np.dot(d_out, y[-1]))  # last position -> destination
        for h in range(len(chain) - 1):
            for i in range(inst.num_datacenters):
                for j in range(inst.num_datacenters):
                    if i == j:
                        continue
                    total += (d_out[i] + d_in[j]) * x[h, i, j]
    return total
