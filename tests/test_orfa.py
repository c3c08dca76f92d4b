import dataclasses

import numpy as np
import pytest

from chainscale.coa import run_online
from chainscale.layout import SlotLayout
from chainscale.model import SlotInput
from chainscale.oracle import HorizonProgram, min_positive_deployment, solve_exact, solve_relaxation
from chainscale.orfa import _interior_start, _load, build_subproblem, orfa_step, write_plan_csv
from chainscale.rates import CostBreakdown, cost_of_plan, plan_residuals, slot_rates
from chainscale.solver import entropy_value
from chainscale.workload import build_instance as build_workload
from conftest import (PIPELINE_CASES, PIPELINE_IDS, SHOCK_CFG, build_instance, make_slots, random_desk_instance,
                      single_vnf_instance)
import cost_oracle


def trajectory_cost(inst, slots, plans):
    prev = np.zeros((inst.num_vnfs, inst.num_datacenters))
    total = []
    for slot, plan in zip(slots, plans):
        total.append(cost_of_plan(inst, slot, plan, prev))
        prev = plan.q
    return sum(total, CostBreakdown()).total


def test_regularizer_scale_at_paper_size():
    # 4 VNF types across 50 datacenters with epsilon 0.1: ln(2001)
    caps = [[900.0] * 50] * 4
    deploys = [[1.0] * 50] * 4
    inst = build_instance(50, caps, deploys, chains=[((0,), (1.0,))], flows=[(0, 1, 0)], epsilon=0.1)
    assert inst.eta == pytest.approx(np.log(2001.0), abs=1e-9)
    assert inst.eta == pytest.approx(7.601, abs=1e-3)


def test_entropy_term_zero_when_counts_unchanged(rng):
    inst = single_vnf_instance(rng=rng)
    slots = make_slots(inst, [[8.0]])
    prev_q = np.array([[0.5, 0.25]])
    layout = SlotLayout(inst, slots[0])
    prog, _ = build_subproblem(layout, prev_q)
    v = np.zeros(layout.n_vars)
    v[: layout.num_q] = prev_q.reshape(-1)
    linear_only = float(prog.lp.c @ v)
    assert entropy_value(prog, v) == pytest.approx(linear_only, abs=1e-12)


def test_minimal_shape_single_flow_single_dc(rng):
    inst = single_vnf_instance(num_dc=1, num_sites=2, rng=rng)
    slots = make_slots(inst, [[7.0]])
    layout = SlotLayout(inst, slots[0])
    prog, _ = build_subproblem(layout, np.zeros((1, 1)))
    # exactly one count variable and one routing variable, no hop variables
    assert layout.n_vars == 2
    assert prog.lp.a_eq.shape[0] == 1  # arrival rate
    assert prog.lp.a_ub.shape[0] == 1  # capacity
    plan = orfa_step(layout, np.zeros((1, 1)))
    assert plan.y[0][0, 0] == pytest.approx(7.0, rel=1e-9)
    assert plan.q[0, 0] == pytest.approx(0.7, rel=1e-6)


def test_absent_flow_lets_counts_shrink(rng):
    inst = single_vnf_instance(rng=rng)
    slots = make_slots(inst, [[9.0], [0.0]])
    plans = run_online(inst, slots, 0, {}).fractional
    assert plans[0].q.max() > 0.5
    assert plans[1].q.max() < plans[0].q.max()  # rent pulls unused counts down
    assert not plans[1].y  # no routing for an absent flow
    assert np.all(plans[1].q <= plans[0].q + 1e-9)  # nothing newly deployed


def test_objective_invariant_under_datacenter_swap(rng):
    # two identical datacenters: swapping them cannot change the optimum value
    d = np.array([
        [0.0, 4.0, 3.0, 6.0],
        [4.0, 0.0, 3.0, 6.0],
        [3.0, 3.0, 0.0, 5.0],
        [6.0, 6.0, 5.0, 0.0],
    ])
    inst = build_instance(
        2, [[10.0, 10.0]], [[1.0, 1.0]], chains=[((0,), (1.0,))], flows=[(0, 1, 0)],
        d_in=0.01, d_out=0.02, delays=d,
    )
    slots = make_slots(inst, [[8.0]])
    plan = orfa_step(SlotLayout(inst, slots[0]), np.zeros((1, 2)))
    swapped = build_instance(
        2, [[10.0, 10.0]], [[1.0, 1.0]], chains=[((0,), (1.0,))], flows=[(0, 1, 0)],
        d_in=0.01, d_out=0.02, delays=d[np.ix_([1, 0, 2, 3], [1, 0, 2, 3])],
    )
    plan_s = orfa_step(SlotLayout(swapped, make_slots(swapped, [[8.0]])[0]), np.zeros((1, 2)))
    assert plan.objective == pytest.approx(plan_s.objective, rel=1e-9)
    np.testing.assert_allclose(np.sort(plan.q.ravel()), np.sort(plan_s.q.ravel()), rtol=1e-6)


def test_single_slot_close_to_offline_optimum(rng):
    # at one slot the offline problem charges deploy_cost * q, the subproblem its
    # entropy surrogate; the achieved costs differ at most by the surrogate error
    # evaluated at both optima
    for _ in range(5):
        inst, slots = random_desk_instance(rng, max_slots=1)
        plan = orfa_step(SlotLayout(inst, slots[0]), np.zeros((inst.num_vnfs, inst.num_datacenters)))
        online = trajectory_cost(inst, slots[:1], [plan])
        rel = solve_relaxation(inst, slots[:1])
        assert online >= rel.objective - 1e-7 * (1 + abs(rel.objective))

        s = inst.entropy_shift
        eta = inst.eta

        def surrogate_error(q):
            ent = (q + s) * np.log((q + s) / s) - q
            return float(np.sum(np.abs(inst.deploy_cost * q - inst.deploy_cost / eta * ent)))

        slack = surrogate_error(plan.q) + surrogate_error(rel.plans[0].q)
        assert online <= rel.objective + slack + 1e-6


def test_online_pass_single_slot_equals_step(rng):
    inst, slots = random_desk_instance(rng, max_slots=1)
    a = run_online(inst, slots, 0, {}).fractional[0]
    b = orfa_step(SlotLayout(inst, slots[0]), np.zeros((inst.num_vnfs, inst.num_datacenters)))
    np.testing.assert_array_equal(a.q, b.q)
    assert a.objective == b.objective


def test_constant_demand_stops_redeploying(rng):
    inst = single_vnf_instance(rng=rng)
    slots = make_slots(inst, [[10.0]] * 6)
    plans = run_online(inst, slots, 0, {}).fractional
    late_deploy = max(float(np.max(b.q - a.q)) for a, b in zip(plans, plans[1:]))
    assert late_deploy <= 1e-5
    assert plans[0].q.max() > 0.1  # the initial ramp-up does deploy


def test_feasibility_and_kkt_on_random_instances(rng):
    for _ in range(8):
        inst, slots = random_desk_instance(rng)
        plans = run_online(inst, slots, 0, {}).fractional
        for slot, plan in zip(slots, plans):
            res = plan_residuals(inst, slot, plan)
            assert max(res.values()) <= 1e-6, res
            assert plan.kkt["stationarity"] <= 1e-5
            assert plan.kkt["feasibility"] <= 1e-6


@pytest.mark.parametrize("seed", range(8))
def test_plans_meet_every_constraint_on_the_shock_config(seed):
    # the benchmark's desk config, where flows pass through several VNFs; an
    # optimal status means the solver's own KKT test passed
    inst, slots = build_workload(dataclasses.replace(SHOCK_CFG, shock_level=100.0), seed)
    for slot, plan in zip(slots, run_online(inst, slots, 0, {}).fractional):
        res = plan_residuals(inst, slot, plan)
        assert max(res.values()) <= 1e-6, (slot.t, res)
        scale = 1.0 + float(np.max(np.abs(SlotLayout(inst, slot).cost)))
        assert plan.kkt["stationarity"] <= 1e-7 * scale, (slot.t, plan.kkt)


def test_online_causality(rng):
    inst, slots = random_desk_instance(rng, max_slots=3)
    if len(slots) < 2:
        inst, slots = random_desk_instance(rng, max_slots=3)
    plans_a = run_online(inst, slots, 0, {}).fractional
    tampered = list(slots)
    last = tampered[-1]
    tampered[-1] = SlotInput(last.t, last.rates * 3.0 + 1.0, last.delay_weights, last.run_costs)
    plans_b = run_online(inst, tampered, 0, {}).fractional
    for pa, pb in zip(plans_a[:-1], plans_b[:-1]):
        np.testing.assert_array_equal(pa.q, pb.q)
        for k in pa.y:
            np.testing.assert_array_equal(pa.y[k], pb.y[k])


def test_fractional_ratio_bound_on_random_instances(rng):
    checked = 0
    for _ in range(6):
        inst, slots = random_desk_instance(rng)
        plans = run_online(inst, slots, 0, {}).fractional
        phi = min_positive_deployment(plans)
        if not np.isfinite(phi) or phi < 1e-4:
            continue
        rel = solve_relaxation(inst, slots)
        if rel.objective <= 1e-9:
            continue
        ratio = trajectory_cost(inst, slots, plans) / rel.objective
        assert ratio <= inst.eta + 1.0 + 1.0 / phi + 1e-6
        checked += 1
    assert checked >= 3


def test_plan_csv_dump(tmp_path, rng):
    inst, slots = random_desk_instance(rng, max_slots=2)
    plans = run_online(inst, slots, 0, {}).fractional
    path = tmp_path / "plans.csv"
    write_plan_csv(path, plans)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("t,kind,flow")
    assert len(lines) > 1


#: every consumer of a slot's observables, called on one slot
SLOT_ENTRY_POINTS = {
    "orfa_step": lambda inst, slot: orfa_step(SlotLayout(inst, slot), np.zeros((1, 2))),
    "solve_relaxation": lambda inst, slot: solve_relaxation(inst, [slot]),
    "solve_exact": lambda inst, slot: solve_exact(inst, [slot], node_limit=2),
    "HorizonProgram": lambda inst, slot: HorizonProgram(inst, [slot]),
}


@pytest.mark.parametrize(
    "entry, bad, field",
    [
        # the online step's cases carry no entry-point name in their ids
        pytest.param(entry, bad, field, id="-".join(([] if entry == "orfa_step" else [entry]) + [str(bad), field]))
        for entry in SLOT_ENTRY_POINTS
        for bad in (np.nan, np.inf, -1.0)
        for field in ("delay_weights", "rates", "run_costs")
    ],
)
def test_non_finite_observables_rejected(rng, entry, bad, field):
    inst = single_vnf_instance(rng=rng)
    slot = make_slots(inst, [[8.0]])[0]
    broken = dataclasses.replace(slot, **{field: np.full_like(getattr(slot, field), bad)})
    with pytest.raises(ValueError, match="finite|nonnegative"):
        SLOT_ENTRY_POINTS[entry](inst, broken)


def test_objective_is_layout_price_plus_regularizer(rng):
    # the subproblem prices plans through the layout's cost vector; the
    # loop-form plan coster of tests/cost_oracle.py derives the same prices independently
    for _ in range(4):
        inst, slots = random_desk_instance(rng)
        prev = np.zeros((inst.num_vnfs, inst.num_datacenters))
        for slot, plan in zip(slots, run_online(inst, slots, 0, {}).fractional):
            cost = cost_oracle.cost_of_plan(inst, slot, plan, prev)
            s = inst.entropy_shift
            regularizer = np.sum(
                inst.deploy_cost / inst.eta * ((plan.q + s) * np.log((plan.q + s) / (prev + s)) + prev - plan.q)
            )
            expected = cost.run + cost.transfer + cost.delay + regularizer
            assert plan.objective == pytest.approx(expected, rel=1e-6)
            prev = plan.q


@pytest.mark.parametrize("cfg, seed", PIPELINE_CASES, ids=PIPELINE_IDS)
def test_load_is_the_routing_block_of_the_capacity_rows(cfg, seed):
    # the full capacity rows with the counts zeroed give, bit for bit, the
    # product of their routing columns with the routing part of the vector
    inst, slots = build_workload(cfg, seed)
    for slot, plan in zip(slots, run_online(inst, slots, seed, {}).fractional, strict=True):
        lay = SlotLayout(inst, slot)
        nq = lay.num_q
        for v in (_interior_start(lay), lay.pack(plan)):
            want = (lay.a_cap[:, nq:] @ v[nq:]).reshape(inst.num_vnfs, inst.num_datacenters)
            assert _load(lay, v).tobytes() == want.tobytes(), slot.t
