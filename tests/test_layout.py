import dataclasses
import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from chainscale import layout as layout_module
from chainscale.coa import run_online
from chainscale.layout import SlotLayout, SlotPlan
from chainscale.oracle import solve_relaxation
from chainscale.rates import cost_of_plan, plan_residuals
from chainscale.rounding import round_owdr, round_up
from chainscale.workload import WorkloadConfig, build_instance
from conftest import SHOCK_CFG, random_desk_instance
import cost_oracle


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
    # the layout's rows and prices against rates.plan_residuals and the
    # loop-form plan coster of tests/cost_oracle.py, which derive the same
    # quantities from (q, y, x) without the layout
    rng = np.random.default_rng(seed)
    inst, slots = random_desk_instance(rng, max_vnfs=3, max_slots=1)
    slot = slots[0]
    layout = SlotLayout(inst, slot)
    plan = random_plan(rng, layout)
    v = layout.pack(plan)

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

    # the oracle prices through its own delay coefficients, which the layout does not use
    cost = cost_oracle.cost_of_plan(inst, slot, plan, plan.q)
    assert layout.cost @ v == close(cost.run + cost.transfer + cost.delay)
    priced = layout.price(plan, plan.q)
    for part in ("run", "deploy", "transfer", "delay"):
        assert getattr(priced, part) == close(getattr(cost, part)), part

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
    v = layout.pack(plan)
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


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1))
def test_prices_and_start_match_the_per_flow_loops(seed):
    # the vectorized arithmetic is the loops' arithmetic, operation for operation
    rng = np.random.default_rng(seed)
    inst, slots = random_desk_instance(rng, max_vnfs=3, max_slots=1)
    layout = SlotLayout(inst, slots[0])
    cost, start = cost_oracle.prices_and_start(layout, slots[0])
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
        # a copy of the instance starts with an empty pattern store, so the reference builds its own blocks
        reference = SlotLayout(dataclasses.replace(inst), slots[0])
    def blocks(lay):
        return [lay.a_cap, lay.a_eq]

    for got, want in zip(blocks(layout), blocks(reference)):
        assert got.has_canonical_format and got.shape == want.shape
        want.sum_duplicates()
        for part in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(got, part), getattr(want, part))


@pytest.mark.parametrize("weights", [np.ones(6), np.ones(2), np.float64(1.0), np.ones((5, 3))],
                         ids=["one-too-many", "two", "scalar", "matrix"])
def test_malformed_delay_weights_are_rejected(weights):
    inst, slots = build_instance(SHOCK_CFG, 0)
    assert inst.num_datacenters == 4 and inst.num_flows == 5
    with pytest.raises(ValueError, match="delay weights shape"):
        SlotLayout(inst, dataclasses.replace(slots[0], delay_weights=weights))


def assert_same(got, want, where):
    """``got`` equals ``want`` bit for bit: arrays, sparse parts, containers and objects' attributes."""
    if sp.issparse(want):
        assert sp.issparse(got) and (got.format, got.shape) == (want.format, want.shape), where
        for part in ("indptr", "indices", "data"):
            assert_same(getattr(got, part), getattr(want, part), f"{where}.{part}")
    elif isinstance(want, np.ndarray):
        assert (got.dtype, got.shape) == (want.dtype, want.shape), where
        np.testing.assert_array_equal(got, want, err_msg=where)
    elif isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            assert_same(got[key], want[key], f"{where}[{key}]")
    elif isinstance(want, (tuple, list)):
        assert type(got) is type(want) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    elif hasattr(want, "__dict__"):
        assert type(got) is type(want), where
        assert_same(vars(got), vars(want), where)
    else:
        assert got == want, where


@pytest.mark.parametrize("cfg, seed, horizon", [(SHOCK_CFG, seed, None) for seed in range(8)] + [
    (WorkloadConfig(num_datacenters=10, num_chains=10, horizon=12), 3, None),
    (WorkloadConfig(), 0, 3),  # paper scale: its first three slots
], ids=[f"desk-{seed}" for seed in range(8)] + ["mid-3", "paper-0"])
def test_stored_patterns_give_the_layout_of_an_empty_store(cfg, seed, horizon):
    # every slot's layout, built on one instance whose store fills as the
    # slots arrive, equals the one built on a copy with an empty store
    inst, slots = build_instance(cfg, seed)
    slots = slots[:horizon]
    for slot in slots:
        got, want = SlotLayout(inst, slot), SlotLayout(dataclasses.replace(inst), slot)
        assert vars(got).keys() == vars(want).keys()
        assert got.inst is inst and got.slot is slot and want.slot is slot
        for name in vars(want).keys() - {"inst", "slot"}:
            assert_same(getattr(got, name), getattr(want, name), f"slot {slot.t}: {name}")
    assert len(inst._slot_patterns) < len(slots)  # some slot was served a stored pattern


def test_slots_with_the_same_active_flows_share_their_rows():
    inst, slots = build_instance(SHOCK_CFG, 0)
    slot = slots[0]
    first = SlotLayout(inst, slot)
    busier = SlotLayout(inst, dataclasses.replace(slot, t=1, rates=1.5 * slot.rates,
                                                  delay_weights=2 * slot.delay_weights))
    assert busier.rates.active == first.rates.active
    assert busier.a_eq is first.a_eq and busier.a_cap is first.a_cap and busier.x_cols is first.x_cols
    # the slot's own numbers are its own
    assert not np.array_equal(busier.b_eq, first.b_eq) and not np.array_equal(busier.cost, first.cost)
    rates = slot.rates.copy()
    rates[first.rates.active[0]] = 0.0
    fewer = SlotLayout(inst, dataclasses.replace(slot, rates=rates))
    assert fewer.rates.active == first.rates.active[1:]
    assert fewer.a_eq is not first.a_eq and fewer.a_cap is not first.a_cap
    assert len(inst._slot_patterns) == 2


def test_shared_arrays_are_read_only():
    inst, slots = build_instance(SHOCK_CFG, 0)
    layout = SlotLayout(inst, slots[0])
    for array in (layout.x_cols, layout.y_cols, layout.a_eq.data, layout.a_eq.indices, layout.a_cap.data,
                  layout.a_cap.indptr, layout.transfer):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), silent=st.booleans())
def test_pack_inverts_unpack(seed, silent):
    # any vector, negative entries included, survives the round trip bit for bit
    rng = np.random.default_rng(seed)
    inst, slots = random_desk_instance(rng, max_vnfs=3, max_slots=1)
    slot = slots[0]
    if silent:
        slot = dataclasses.replace(slot, rates=np.zeros_like(slot.rates))
    layout = SlotLayout(inst, slot)
    v = rng.uniform(-1.0, 5.0, size=layout.n_vars)
    assert layout.pack(layout.unpack(v)).tobytes() == v.tobytes()


def test_negative_traffic_is_rejected_and_names_its_flow():
    # one negative routing entry per flow in turn, in its first and in its last
    # column: a hop of a longer flow, the entry of a one-VNF flow
    rng = np.random.default_rng(11)
    kinds = set()
    for _ in range(6):
        inst, slots = random_desk_instance(rng, max_vnfs=3, max_slots=1)
        layout = SlotLayout(inst, slots[0])
        for k, end in itertools.product(layout.rates.active, (0, -1)):
            plan = layout.unpack(layout.spread_evenly())
            hops = plan.x[k].size > 0
            (plan.x[k][end, end] if hops else plan.y[k][0])[end] = -1e-9
            kinds.add(hops)
            for price in (lambda: layout.price(plan, plan.q), lambda: cost_of_plan(inst, slots[0], plan, plan.q)):
                with pytest.raises(ValueError, match=f"negative traffic for flow {k}$"):
                    price()
    assert kinds == {True, False}


@pytest.mark.parametrize("cfg, seed", [(dataclasses.replace(SHOCK_CFG, shock_level=100.0), seed) for seed in range(8)]
                         + [(WorkloadConfig(num_datacenters=10, num_chains=10, horizon=12), 3)],
                         ids=[f"desk-{seed}" for seed in range(8)] + ["mid-3"])
def test_price_matches_the_loop_oracle_on_pipeline_plans(cfg, seed):
    # every plan the pipeline and the relaxation make, priced through the
    # layout and by the hand-written loops of tests/cost_oracle.py
    inst, slots = build_instance(cfg, seed)
    online = run_online(inst, slots, seed, {"COA": round_owdr, "GR": round_up})
    chains = {
        "fractional": online.fractional,
        "relaxation": solve_relaxation(inst, slots).plans,
        **{name: [r.integer for r in run.records] for name, run in online.runs.items()},
    }
    for name, plans in chains.items():
        prev = np.zeros((inst.num_vnfs, inst.num_datacenters))
        for slot, plan in zip(slots, plans, strict=True):
            got = SlotLayout(inst, slot).price(plan, prev)
            want = cost_oracle.cost_of_plan(inst, slot, plan, prev)
            for part in ("run", "deploy", "transfer", "delay"):
                assert getattr(got, part) == pytest.approx(getattr(want, part), rel=1e-12, abs=0.0), (name, slot.t, part)
            prev = plan.q
