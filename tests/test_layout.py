import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from chainscale import layout as layout_module
from chainscale.layout import SlotLayout
from chainscale.rates import cost_of_plan, delay_coefficients, plan_residuals
from conftest import pack_plan, random_desk_instance


def close(value):
    return pytest.approx(value, rel=1e-9, abs=1e-9)


def random_plan(rng, layout):
    """Nonnegative (q, y, x) of the layout's shapes, unrelated to any constraint."""
    M, I = layout.inst.num_vnfs, layout.inst.num_datacenters
    return SimpleNamespace(
        q=rng.uniform(0.0, 3.0, size=(M, I)),
        y={k: rng.uniform(0.0, 20.0, size=(len(c), I)) for k, c in layout.chain.items()},
        x={k: rng.uniform(0.0, 5.0, size=(len(c) - 1, I, I)) for k, c in layout.chain.items()},
    )


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_rows_and_prices_match_the_independent_derivations(seed):
    # the layout's rows and cost vectors against rates.plan_residuals and
    # rates.cost_of_plan, which derive the same quantities without the layout
    rng = np.random.default_rng(seed)
    inst, slots = random_desk_instance(rng, max_slots=1)
    slot = slots[0]
    layout = SlotLayout(inst, slot)
    plan = random_plan(rng, layout)
    v = pack_plan(layout, plan)

    res = plan_residuals(inst, slot, plan)
    gap = layout.a_eq @ v - layout.b_eq
    n_dem = len(layout.rates.active)
    inbound, outbound = np.split(gap[n_dem:], 2)
    # one arrival-rate row per flow, at its chain entry
    entry = max((abs(float(plan.y[k][0].sum()) - slot.rates[k]) for k in layout.rates.active), default=0.0)
    assert np.max(np.abs(gap[:n_dem]), initial=0.0) == close(entry)
    assert np.max(np.abs(inbound), initial=0.0) == close(res["inbound"])
    assert np.max(np.abs(outbound), initial=0.0) == close(res["outbound"])
    assert max(0.0, float(np.max(layout.a_cap @ v))) == close(res["capacity"])

    # cost_of_plan prices through rates.delay_coefficients, which the layout does not use
    cost = cost_of_plan(inst, slot, plan, plan.q)
    price = layout.cost @ v
    assert price == close(cost.run + cost.transfer + cost.delay)

    q, y, x = layout.unpack(v)
    np.testing.assert_array_equal(q, plan.q)
    for k in layout.chain:
        np.testing.assert_array_equal(y[k], plan.y[k])
        np.testing.assert_array_equal(x[k], plan.x[k])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_entry_rows_and_conservation_imply_every_arrival_rate(seed):
    # a routing built to meet only the entry rows and conservation meets the
    # arrival rate at every chain position, so the layout may leave those rows out
    rng = np.random.default_rng(seed)
    inst, slots = random_desk_instance(rng, max_slots=1)
    slot = slots[0]
    layout = SlotLayout(inst, slot)
    I = inst.num_datacenters
    plan = SimpleNamespace(q=np.zeros((inst.num_vnfs, I)), y={}, x={})
    for k, chain in layout.chain.items():
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


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), silent=st.booleans())
def test_spread_evenly_meets_every_equality_row(seed, silent):
    # the interior start of every subproblem; a silent slot has no active flow
    rng = np.random.default_rng(seed)
    inst, slots = random_desk_instance(rng, max_slots=1)
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
    for k, chain in layout.chain.items():
        o, ox, f_hat = layout.y_offset[k], layout.x_offset[k], rates.f_hat[k]
        for pos in range(len(chain)):
            cost[o + pos * I : o + (pos + 1) * I] = d_in + d_out * chain.beta[pos] + per_unit.endpoint[k][pos]
            start[o + pos * I : o + (pos + 1) * I] = f_hat[pos] / I
        for hop in range(len(chain) - 1):
            block = per_unit.hop[k][hop].copy()
            block[np.diag_indices(I)] -= d_in + d_out
            cost[ox + hop * I * I : ox + (hop + 1) * I * I] = block.reshape(-1)
            start[ox + hop * I * I : ox + (hop + 1) * I * I] = chain.beta[hop] * f_hat[hop] / (I * I)
    return cost, start


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_prices_and_start_match_the_per_flow_loops(seed):
    # the vectorized arithmetic is the loops' arithmetic, operation for operation
    rng = np.random.default_rng(seed)
    inst, slots = random_desk_instance(rng, max_slots=1)
    layout = SlotLayout(inst, slots[0])
    cost, start = loop_prices_and_start(layout, slots[0])
    np.testing.assert_array_equal(layout.cost, cost)
    np.testing.assert_array_equal(layout.spread_evenly(), start)


def coo_csr(rows, cols, vals, shape):
    """A block through scipy's COO conversion, the reference for the layout's own CSR assembly."""
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=shape)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_blocks_match_coo_assembly(seed):
    rng = np.random.default_rng(seed)
    inst, slots = random_desk_instance(rng, max_dc=5, max_vnfs=3, max_flows=4, max_slots=1)
    layout = SlotLayout(inst, slots[0])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(layout_module, "_csr", coo_csr)
        reference = SlotLayout(inst, slots[0])
    def blocks(lay):
        return [lay.load, lay.a_cap, lay.a_eq]

    for got, want in zip(blocks(layout), blocks(reference)):
        assert got.has_canonical_format and got.shape == want.shape
        want.sum_duplicates()
        for part in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(got, part), getattr(want, part))
