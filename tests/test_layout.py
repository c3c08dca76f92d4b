import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from chainscale import layout as layout_module
from chainscale.layout import SlotLayout, SlotPlan
from chainscale.rates import cost_of_plan, delay_coefficients, plan_residuals
from conftest import pack_plan, random_desk_instance


def close(value):
    return pytest.approx(value, rel=1e-9, abs=1e-9)


def derived_y(inst, k, x):
    """What each position of flow k receives under hop traffic x: the first hop's outflow over beta_0, then inflows."""
    beta = inst.chain_of(k).beta
    return np.concatenate([x[:1].sum(axis=2) / beta[0], x.sum(axis=1)])


def random_plan(rng, layout):
    """Random nonnegative hop traffic (entry traffic for one-VNF flows) and counts, unrelated to any constraint.

    ``y`` is derived from ``x`` as the layout documents, so only the rows of
    ``a_eq`` and ``a_cap`` can be violated.
    """
    inst = layout.inst
    M, I = inst.num_vnfs, inst.num_datacenters
    plan = SlotPlan(layout.slot.t, rng.uniform(0.0, 3.0, size=(M, I)), {}, {})
    for k in layout.rates.active:
        L = len(inst.chain_of(k))
        plan.x[k] = rng.uniform(0.0, 5.0, size=(L - 1, I, I))
        plan.y[k] = rng.uniform(0.0, 20.0, size=(1, I)) if L == 1 else derived_y(inst, k, plan.x[k])
    return plan


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1))
def test_rows_and_prices_match_the_independent_derivations(seed):
    # the layout's rows and cost vectors against rates.plan_residuals and
    # rates.cost_of_plan, which derive the same quantities from (q, y, x)
    # without the layout
    rng = np.random.default_rng(seed)
    inst, slots = random_desk_instance(rng, max_vnfs=3, max_slots=1)
    slot = slots[0]
    layout = SlotLayout(inst, slot)
    plan = random_plan(rng, layout)
    v = pack_plan(layout, plan)

    res = plan_residuals(inst, slot, plan)
    gap = layout.a_eq @ v - layout.b_eq
    n_dem = len(layout.rates.active)
    # one arrival-rate row per flow, at its chain entry
    entry = max((abs(float(plan.y[k][0].sum()) - slot.rates[k]) for k in layout.rates.active), default=0.0)
    assert np.max(np.abs(gap[:n_dem]), initial=0.0) == close(entry)
    # y is what the hops deliver, so only the balance rows can miss: the
    # outbound residual of every intermediate position (at the entry it is
    # met by the derivation)
    assert res["inbound"] == 0.0
    assert np.max(np.abs(gap[n_dem:]), initial=0.0) == close(res["outbound"])
    assert max(0.0, float(np.max(layout.a_cap @ v))) == close(res["capacity"])
    # and row by row: each capacity row loads the y of the positions run there
    load = -plan.q * inst.capacity
    for k in layout.rates.active:
        for pos, m in enumerate(inst.chain_of(k).vnfs):
            load[m] += plan.y[k][pos]
    np.testing.assert_allclose(layout.a_cap @ v, load.reshape(-1), rtol=1e-12, atol=1e-9)

    # cost_of_plan prices through rates.delay_coefficients, which the layout does not use
    cost = cost_of_plan(inst, slot, plan, plan.q)
    price = layout.cost @ v
    assert price == close(cost.run + cost.transfer + cost.delay)

    unpacked = layout.unpack(v)
    assert unpacked.t == slot.t
    np.testing.assert_array_equal(unpacked.q, plan.q)
    for k in layout.rates.active:
        np.testing.assert_array_equal(unpacked.x[k], plan.x[k])
        np.testing.assert_array_equal(unpacked.y[k], plan.y[k])


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1))
def test_entry_rows_and_conservation_imply_every_arrival_rate(seed):
    # a routing built to meet only the entry rows and conservation meets the
    # arrival rate at every chain position, so the layout may leave those rows out
    rng = np.random.default_rng(seed)
    inst, slots = random_desk_instance(rng, max_vnfs=3, max_slots=1)
    slot = slots[0]
    layout = SlotLayout(inst, slot)
    I = inst.num_datacenters
    plan = SlotPlan(slot.t, np.zeros((inst.num_vnfs, I)), {}, {})
    for k in layout.rates.active:
        chain = inst.chain_of(k)
        split = rng.uniform(0.1, 1.0, size=I)
        y = [slot.rates[k] * split / split.sum()]
        x = []
        for h, beta in enumerate(chain.beta[:-1]):
            p = rng.uniform(0.1, 1.0, size=(I, I))
            x.append((beta * y[h])[:, None] * (p / p.sum(axis=1, keepdims=True)))
            y.append(x[h].sum(axis=0))
        plan.y[k], plan.x[k] = np.array(y), np.array(x).reshape(len(chain) - 1, I, I)

    res = plan_residuals(inst, slot, plan)
    f_max = max((float(f.max()) for f in layout.rates.f_hat.values()), default=0.0)
    assert res["demand"] <= 1e-9 * (1.0 + f_max)
    v = pack_plan(layout, plan)
    assert np.max(np.abs(layout.a_eq @ v - layout.b_eq), initial=0.0) <= 1e-9 * (1.0 + f_max)


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), silent=st.booleans())
def test_spread_evenly_meets_every_equality_row(seed, silent):
    # the interior start of every subproblem; a silent slot has no active flow
    rng = np.random.default_rng(seed)
    inst, slots = random_desk_instance(rng, max_vnfs=3, max_slots=1)
    slot = slots[0]
    if silent:
        slot = dataclasses.replace(slot, rates=np.zeros_like(slot.rates))
    layout = SlotLayout(inst, slot)
    v = layout.spread_evenly()
    f_max = max((float(f.max()) for f in layout.rates.f_hat.values()), default=0.0)
    assert np.max(np.abs(layout.a_eq @ v - layout.b_eq), initial=0.0) <= 1e-9 * (1.0 + f_max)
    assert np.all(v[layout.num_q :] > 0.0)
    if silent:
        assert layout.n_vars == layout.num_q and layout.b_eq.size == 0


def loop_prices_and_start(layout, slot):
    """The cost vector and the even spread, by per-flow and per-position loops over rates.delay_coefficients."""
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


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1))
def test_prices_and_start_match_the_per_flow_loops(seed):
    # the vectorized arithmetic is the loops' arithmetic, operation for operation
    rng = np.random.default_rng(seed)
    inst, slots = random_desk_instance(rng, max_vnfs=3, max_slots=1)
    layout = SlotLayout(inst, slots[0])
    cost, start = loop_prices_and_start(layout, slots[0])
    np.testing.assert_array_equal(layout.cost, cost)
    np.testing.assert_array_equal(layout.spread_evenly(), start)


def coo_csr(rows, cols, vals, shape):
    """A block through scipy's COO conversion, the reference for the layout's own CSR assembly."""
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=shape)


@settings(max_examples=20)
@given(seed=st.integers(0, 2**32 - 1))
def test_blocks_match_coo_assembly(seed):
    rng = np.random.default_rng(seed)
    inst, slots = random_desk_instance(rng, max_dc=5, max_vnfs=3, max_flows=4, max_slots=1)
    layout = SlotLayout(inst, slots[0])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(layout_module, "_csr", coo_csr)
        reference = SlotLayout(inst, slots[0])
    def blocks(lay):
        return [lay.a_cap, lay.a_eq]

    for got, want in zip(blocks(layout), blocks(reference)):
        assert got.has_canonical_format and got.shape == want.shape
        want.sum_duplicates()
        for part in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(got, part), getattr(want, part))
