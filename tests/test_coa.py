import weakref

import numpy as np
import pytest

from chainscale.cli import baseline_gr, baseline_irr
from chainscale.clustering import cluster
from chainscale.coa import bound_ingredients, coa_step, reroute, run_coa, run_online, write_trajectory_csv
from chainscale.layout import SlotLayout
from chainscale.orfa import build_subproblem, orfa_step
from chainscale.rates import CostBreakdown, cost_of_plan, plan_residuals
from chainscale.rounding import round_nearest, round_owdr, round_up
from chainscale.solver import OPTIMAL, LinearProgram, entropy_value, solve_lp
from chainscale.workload import build_instance as build_workload
from conftest import (PIPELINE_CASES, PIPELINE_IDS, SHOCK_CFG, build_instance, make_slots, random_desk_instance,
                      single_vnf_instance)


class TestReroute:
    def test_single_datacenter_concentrates_routing(self, rng):
        inst = single_vnf_instance(num_dc=2, cap=10.0, rng=rng)
        slots = make_slots(inst, [[7.0]])
        plan = reroute(SlotLayout(inst, slots[0]), np.array([[1, 0]]))
        assert plan.t == slots[0].t and plan.q.dtype.kind == "i"
        np.testing.assert_array_equal(plan.q, [[1, 0]])
        assert plan.y[0][0, 0] == pytest.approx(7.0, abs=1e-8)
        assert plan.y[0][0, 1] == pytest.approx(0.0, abs=1e-8)

    def test_cheaper_datacenter_fills_first(self):
        # delay-free world, datacenter 1 has zero transfer prices: everything
        # routes there until its capacity binds, the remainder spills to 0
        d = np.zeros((4, 4))  # all co-located: delays are irrelevant
        inst = build_instance(
            2,
            vnf_caps=[[10.0, 10.0]],
            deploy_costs=[[1.0, 1.0]],
            chains=[((0,), (1.0,))],
            flows=[(0, 1, 0)],
            d_in=[0.05, 0.0],
            d_out=[0.05, 0.0],
            delays=d,
        )
        slots = make_slots(inst, [[14.0]])
        y = reroute(SlotLayout(inst, slots[0]), np.array([[1, 1]])).y
        assert y[0][0, 1] == pytest.approx(10.0, abs=1e-7)
        assert y[0][0, 0] == pytest.approx(4.0, abs=1e-7)

    def test_tight_capacity_still_feasible(self, rng):
        inst = single_vnf_instance(num_dc=2, cap=10.0, beta=1.0, rng=rng)
        slots = make_slots(inst, [[20.0]])  # demand exactly equals 2 instances
        y = reroute(SlotLayout(inst, slots[0]), np.array([[1, 1]])).y
        assert float(y[0].sum()) == pytest.approx(20.0, abs=1e-7)
        np.testing.assert_allclose(y[0][0], [10.0, 10.0], atol=1e-6)

    def test_undersized_counts_abort(self, rng):
        inst = single_vnf_instance(num_dc=2, cap=10.0, beta=1.0, rng=rng)
        slots = make_slots(inst, [[25.0]])
        with pytest.raises(AssertionError):
            reroute(SlotLayout(inst, slots[0]), np.array([[1, 1]]))

    def test_optimal_for_owdr_and_gr_counts(self):
        # every slot's routing under the OWDR and the GR counts costs what a
        # separate solve_lp of the same redirection program says is optimal
        checked = 0
        for seed in range(8):
            inst, slots = build_workload(SHOCK_CFG, seed)
            runs = run_online(inst, slots, seed, {"COA": round_owdr, "GR": round_up}).runs
            for result in runs.values():
                for slot, rec in zip(slots, result.records):
                    lay = SlotLayout(inst, slot)
                    nq = lay.num_q
                    ref = solve_lp(LinearProgram(
                        c=lay.cost[nq:], a_eq=lay.a_eq[:, nq:], b_eq=lay.b_eq, a_ub=lay.a_cap[:, nq:],
                        b_ub=(rec.integer.q * inst.capacity).reshape(-1),
                    ))
                    assert ref.status == OPTIMAL
                    routed = rec.cost_integer.transfer + rec.cost_integer.delay
                    assert routed == pytest.approx(ref.objective, rel=1e-9)
                    scale = max(1.0, float(np.max(lay.demand, initial=0.0)))
                    assert max(plan_residuals(inst, slot, rec.integer).values()) <= 1e-6 * scale
                    checked += 1
        assert checked == 8 * 2 * SHOCK_CFG.horizon

    @pytest.mark.parametrize("cfg, seed", PIPELINE_CASES, ids=PIPELINE_IDS)
    def test_fixed_counts_route_as_the_routing_columns_lp(self, cfg, seed):
        # with its count columns fixed by bounds, the layout's full program
        # routes at the optimum of the LP over the routing columns alone,
        # whose capacity right-hand side is counts * capacity
        inst, slots = build_workload(cfg, seed)
        online = run_online(inst, slots, seed, {"COA": round_owdr})
        checked = {"COA": 0, "GR": 0, "IRR": 0}
        for t, (slot, frac) in enumerate(zip(slots, online.fractional)):
            lay = SlotLayout(inst, slot)
            counts = {"COA": online.runs["COA"].records[t].integer.q, "GR": round_up(lay, frac.q, None, None),
                      "IRR": round_nearest(lay, frac.q, None, None)}
            nq = lay.num_q
            for name, q_int in counts.items():
                if q_int is None:  # IRR left the slot unroutable
                    continue
                plan = reroute(lay, q_int)
                np.testing.assert_array_equal(plan.q, q_int)
                ref = solve_lp(LinearProgram(
                    c=lay.cost[nq:], a_eq=lay.a_eq[:, nq:], b_eq=lay.b_eq, a_ub=lay.a_cap[:, nq:],
                    b_ub=(q_int * inst.capacity).reshape(-1),
                ))
                assert ref.status == OPTIMAL
                cost = lay.price(plan, q_int)
                assert cost.transfer + cost.delay == pytest.approx(ref.objective, rel=1e-12, abs=0.0), (name, t)
                assert max(plan_residuals(inst, slot, plan).values()) <= 1e-9, (name, t)
                checked[name] += 1
        assert checked["COA"] == checked["GR"] == len(slots)


def subproblem_objective(inst, slot, prev_q, plan):
    """Evaluate a plan against the slot subproblem's regularized objective."""
    layout = SlotLayout(inst, slot)
    prog, _ = build_subproblem(layout, prev_q)
    return entropy_value(prog, layout.pack(plan))


class TestCoaStep:
    def test_rounding_cannot_beat_the_fractional_optimum(self, rng):
        for _ in range(4):
            inst, slots = random_desk_instance(rng, max_slots=1)
            clusters = cluster(inst.dc_delays())
            prev_f = np.zeros((inst.num_vnfs, inst.num_datacenters))
            prev_i = np.zeros((inst.num_vnfs, inst.num_datacenters), dtype=int)
            frac, integer = coa_step(inst, slots[0], prev_f, prev_i, clusters, np.random.default_rng(3))
            lo = subproblem_objective(inst, slots[0], prev_f, frac)
            hi = subproblem_objective(inst, slots[0], prev_f, integer)
            assert hi >= lo - 1e-6 * (1 + abs(lo))

    def test_one_layout_per_slot(self, rng, monkeypatch):
        # the subproblem, the rounding policy and the redirection LP share one layout
        built = []
        init = SlotLayout.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(SlotLayout, "__init__", counting)
        inst, slots = random_desk_instance(rng, max_slots=1)
        clusters = cluster(inst.dc_delays())
        prev_f = np.zeros((inst.num_vnfs, inst.num_datacenters))
        prev_i = np.zeros((inst.num_vnfs, inst.num_datacenters), dtype=int)
        coa_step(inst, slots[0], prev_f, prev_i, clusters, np.random.default_rng(5))
        assert len(built) == 1

        # the online pass builds one layout per slot, whatever its policies,
        # and prices every plan on it; each per-slot baseline call builds one
        inst, slots = build_workload(SHOCK_CFG, 0)
        for policies in ({}, {"COA": round_owdr}, {"GR": round_up, "IRR": round_nearest},
                         {"COA": round_owdr, "GR": round_up, "IRR": round_nearest}):
            built.clear()
            plans = run_online(inst, slots, 0, policies).fractional
            assert len(built) == len(slots)
        prev_i = np.zeros((inst.num_vnfs, inst.num_datacenters), dtype=int)
        for baseline in (baseline_gr, baseline_irr):
            built.clear()
            baseline(plans[0], inst, slots[0], prev_i)
            assert len(built) == 1

    def test_same_seed_reproduces(self, rng):
        inst, slots = random_desk_instance(rng, max_slots=1)
        clusters = cluster(inst.dc_delays())
        prev_f = np.zeros((inst.num_vnfs, inst.num_datacenters))
        prev_i = np.zeros((inst.num_vnfs, inst.num_datacenters), dtype=int)
        a = coa_step(inst, slots[0], prev_f, prev_i, clusters, np.random.default_rng(9))
        b = coa_step(inst, slots[0], prev_f, prev_i, clusters, np.random.default_rng(9))
        np.testing.assert_array_equal(a[1].q, b[1].q)

    def test_many_random_slots_always_feasible(self, rng):
        total_slots = 0
        trial = 0
        while total_slots < 250:
            trial += 1
            inst, slots = random_desk_instance(rng, max_dc=3, max_vnfs=2, max_flows=2, max_slots=5)
            result = run_coa(inst, slots, seed=trial)
            for slot, rec in zip(slots, result.records):
                res = plan_residuals(inst, slot, rec.integer)
                assert max(res.values()) <= 1e-6, (trial, res)
                assert rec.integer.q.dtype.kind == "i"
            total_slots += len(slots)


class TestRunCoa:
    def test_single_slot_matches_step(self, rng):
        inst, slots = random_desk_instance(rng, max_slots=1)
        result = run_coa(inst, slots, seed=21)
        clusters = cluster(inst.dc_delays())
        rng_step = np.random.default_rng(21).spawn(1)[0]
        prev_f = np.zeros((inst.num_vnfs, inst.num_datacenters))
        prev_i = np.zeros((inst.num_vnfs, inst.num_datacenters), dtype=int)
        frac, integer = coa_step(inst, slots[0], prev_f, prev_i, clusters, rng_step)
        np.testing.assert_array_equal(result.records[0].integer.q, integer.q)
        np.testing.assert_allclose(result.records[0].fractional.q, frac.q)

    def test_matches_a_coa_step_chain(self):
        # run_coa is coa_step over every slot, chained, with one spawned generator per slot
        for seed in range(3):
            inst, slots = build_workload(SHOCK_CFG, seed)
            result = run_coa(inst, slots, seed)
            clusters = cluster(inst.dc_delays())
            prev_f = np.zeros((inst.num_vnfs, inst.num_datacenters))
            prev_i = np.zeros((inst.num_vnfs, inst.num_datacenters), dtype=int)
            frac_costs, int_costs = [], []
            assert len(result.records) == len(slots)
            for slot, gen, rec in zip(slots, np.random.default_rng(seed).spawn(len(slots)), result.records):
                frac, integer = coa_step(inst, slot, prev_f, prev_i, clusters, gen)
                np.testing.assert_array_equal(rec.integer.q, integer.q)
                frac_costs.append(cost_of_plan(inst, slot, frac, prev_f))
                int_costs.append(cost_of_plan(inst, slot, integer, prev_i))
                prev_f, prev_i = frac.q, integer.q
            assert result.total_fractional == sum(frac_costs, CostBreakdown())
            assert result.total_integer == sum(int_costs, CostBreakdown())

    def test_causality_under_future_changes(self, rng):
        inst, slots = random_desk_instance(rng, max_slots=4)
        if len(slots) < 2:
            pytest.skip("drew a single-slot instance")
        full = run_coa(inst, slots, seed=33)
        prefix = run_coa(inst, slots[:-1], seed=33)
        for a, b in zip(prefix.records, full.records[:-1]):
            np.testing.assert_array_equal(a.integer.q, b.integer.q)
            np.testing.assert_array_equal(a.fractional.q, b.fractional.q)

    def test_integer_cost_bounded_by_guarantee(self, rng):
        from chainscale.oracle import solve_relaxation

        for seed in range(3):
            inst, slots = random_desk_instance(rng, max_slots=3)
            result = run_coa(inst, slots, seed=seed)
            rel = solve_relaxation(inst, slots)
            if rel.objective <= 1e-9:
                continue
            ratio = result.total_integer.total / rel.objective
            assert ratio <= result.ingredients["integer_ratio_bound"] + 1e-6

    def test_trajectory_csv(self, tmp_path, rng):
        inst, slots = random_desk_instance(rng, max_slots=2)
        result = run_coa(inst, slots, seed=1)
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(path, result)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + len(slots)


class TestRunOnline:
    def test_policies_do_not_disturb_each_other(self):
        # one pass with every policy gives each policy the run it gets alone;
        # a second OWDR entry would see other draws if policies shared generators
        policies = {"COA": round_owdr, "COA again": round_owdr, "GR": round_up, "IRR": round_nearest}
        for seed in range(3):
            inst, slots = build_workload(SHOCK_CFG, seed)
            together = run_online(inst, slots, seed, policies)
            for name, policy in policies.items():
                alone = run_online(inst, slots, seed, {name: policy})
                assert alone.total_fractional == together.total_fractional
                a, b = alone.runs[name], together.runs[name]
                assert (a is None) == (b is None)
                if a is not None:
                    assert a.total_integer == b.total_integer
                    for ra, rb in zip(a.records, b.records, strict=True):
                        np.testing.assert_array_equal(ra.integer.q, rb.integer.q)

    def test_fractional_chain_matches_an_orfa_step_chain(self):
        inst, slots = build_workload(SHOCK_CFG, 1)
        online = run_online(inst, slots, 1, {})
        assert online.runs == {}
        prev = np.zeros((inst.num_vnfs, inst.num_datacenters))
        costs = []
        for slot, ours in zip(slots, online.fractional, strict=True):
            theirs = orfa_step(SlotLayout(inst, slot), prev)
            np.testing.assert_array_equal(ours.q, theirs.q)
            costs.append(cost_of_plan(inst, slot, theirs, prev))
            prev = theirs.q
        assert online.total_fractional == sum(costs, CostBreakdown())
        assert online.ingredients == bound_ingredients(inst, slots, cluster(inst.dc_delays()))

    def test_one_layout_alive_at_a_time(self, monkeypatch):
        alive = []
        init = SlotLayout.__init__

        def tracking(self, *args, **kwargs):
            assert all(ref() is None for ref in alive), "an earlier slot's layout is still alive"
            alive.append(weakref.ref(self))
            init(self, *args, **kwargs)

        monkeypatch.setattr(SlotLayout, "__init__", tracking)
        inst, slots = build_workload(SHOCK_CFG, 0)
        run_online(inst, slots, 0, {"COA": round_owdr, "GR": round_up, "IRR": round_nearest})
        assert len(alive) == len(slots)


def baseline_chain(rounder, inst, slots, plans):
    """Cost of rolling a per-slot baseline over the slots; None once it breaks."""
    prev = np.zeros((inst.num_vnfs, inst.num_datacenters), dtype=int)
    costs = []
    for slot, frac in zip(slots, plans):
        plan = rounder(frac, inst, slot, prev)
        if plan is None:
            return None
        costs.append(cost_of_plan(inst, slot, plan, prev))
        prev = plan.q
    return sum(costs, CostBreakdown())


class TestRoundingPolicies:
    def test_gr_policy_matches_the_per_slot_baseline(self, rng):
        for seed in range(4):
            inst, slots = random_desk_instance(rng)
            plans = run_online(inst, slots, 0, {}).fractional
            piped = run_online(inst, slots, seed, {"GR": round_up}).runs["GR"]
            assert piped.total_integer == baseline_chain(baseline_gr, inst, slots, plans)

    def test_irr_policy_fails_exactly_when_a_baseline_slot_does(self, rng):
        outcomes = set()
        for seed in range(8):
            inst, slots = random_desk_instance(rng)
            plans = run_online(inst, slots, 0, {}).fractional
            piped = run_online(inst, slots, seed, {"IRR": round_nearest}).runs["IRR"]
            chained = baseline_chain(baseline_irr, inst, slots, plans)
            assert (piped is None) == (chained is None)
            if piped is not None:
                assert piped.total_integer == chained
            outcomes.add(piped is None)
        assert outcomes == {True, False}


def test_bound_ingredients_formulas(rng):
    inst = single_vnf_instance(num_dc=2, cap=10.0, deploy=2.0, rng=rng)
    slots = make_slots(inst, [[5.0]], run_costs=np.array([[4.0, 8.0]]))
    ing = bound_ingredients(inst, slots, cluster(inst.dc_delays()))
    assert ing["phi1"] == pytest.approx(2.0 / 4.0)
    trans = inst.ingress_cost + inst.egress_cost
    assert ing["phi2"] == pytest.approx(max(trans[0] * 10 / 4.0, trans[1] * 10 / 8.0))
    l_max = float(inst.delay.values.max())
    assert ing["phi3"] == pytest.approx(inst.delay.alpha * l_max / ing["threshold"] * (10 / 4.0))
    assert ing["integer_ratio_bound"] == pytest.approx(
        (inst.eta + 2) * (2 + ing["phi1"] + ing["phi2"] + ing["phi3"])
    )
