import csv
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chainscale.coa import reroute, run_coa
from chainscale.model import SlotInput
from chainscale.oracle import (
    DualCertificate,
    HorizonProgram,
    RatioReport,
    build_dual_certificate,
    check_certificate,
    min_positive_deployment,
    solve_exact,
    solve_relaxation,
    write_certificate_csv,
    write_ratio_csv,
)
from chainscale.orfa import run_orfa
from chainscale.rates import cost_of_plan, slot_rates, sum_costs, vnf_demand
from chainscale.solver import solve_lp
from conftest import build_instance, make_slots, pack_plan, random_desk_instance, single_vnf_instance
from simplex_oracle import oracle_solve_lp


def trajectory_cost(inst, slots, plans):
    prev = np.zeros((inst.num_vnfs, inst.num_datacenters))
    out = []
    for slot, plan in zip(slots, plans):
        out.append(cost_of_plan(inst, slot, plan, prev))
        prev = np.asarray(plan.q, dtype=float)
    return sum_costs(out).total


def enumerate_exact(inst, slots, q_max):
    """Brute-force integer optimum: try every count assignment, reroute, price.

    Completely bypasses the horizon LP and branch-and-bound: per-slot routing
    comes from the redirection LP and costs from the plan coster.
    """
    M, I = inst.num_vnfs, inst.num_datacenters
    T = len(slots)
    demands = [vnf_demand(inst, slot_rates(inst, s)) for s in slots]
    best = math.inf
    cells = M * I
    for combo in itertools.product(range(q_max + 1), repeat=cells * T):
        q_traj = np.array(combo, dtype=int).reshape(T, M, I)
        ok = all(
            np.all((q_traj[t] * inst.capacity).sum(axis=1) >= demands[t] - 1e-9) for t in range(T)
        )
        if not ok:
            continue
        total = 0.0
        prev = np.zeros((M, I), dtype=int)
        for t, slot in enumerate(slots):
            x, y = reroute(inst, slot, q_traj[t])
            plan = type("P", (), {"q": q_traj[t], "x": x, "y": y})()
            total += cost_of_plan(inst, slot, plan, prev).total
            prev = q_traj[t]
        best = min(best, total)
    return best


class TestRelaxation:
    def test_matches_simplex_oracle_on_two_datacenter_fixture(self, rng):
        inst = single_vnf_instance(num_dc=2, cap=10.0, rng=rng)
        slots = make_slots(inst, [[12.0]])
        prog = HorizonProgram(inst, slots)
        rel = solve_relaxation(inst, slots)
        status, x, obj = oracle_solve_lp(prog.lp)
        assert status == "optimal"
        assert rel.objective == pytest.approx(obj, rel=1e-6)

    def test_single_slot_deploys_exactly_the_counts(self, rng):
        # with no prior slot every deployed instance is newly deployed
        inst, slots = random_desk_instance(rng, max_slots=1)
        rel = solve_relaxation(inst, slots)
        np.testing.assert_allclose(rel.plans[0].rho, rel.plans[0].q, atol=1e-7)

    def test_lower_bounds_online_cost(self, rng):
        for _ in range(5):
            inst, slots = random_desk_instance(rng)
            plans = run_orfa(inst, slots)
            rel = solve_relaxation(inst, slots)
            assert rel.objective <= trajectory_cost(inst, slots, plans) + 1e-7


class TestExact:
    def test_integral_relaxation_needs_only_the_root(self, rng):
        # demand pins counts at an integer multiple of capacity, so the LP
        # relaxation is already integral and no branching happens
        inst = single_vnf_instance(num_dc=1, cap=10.0, beta=1.0, num_sites=2, rng=rng)
        slots = make_slots(inst, [[20.0]])
        ex = solve_exact(inst, slots)
        assert ex.optimal
        assert ex.nodes == 1
        assert ex.plans[0].q[0, 0] == 2

    @staticmethod
    def _roundup_fixture():
        # one datacenter, demand 1.5x capacity -> two instances; source and
        # destination co-located with the datacenter kill transfer-side delays
        d = np.zeros((3, 3))
        inst = build_instance(
            1,
            vnf_caps=[[10.0]],
            deploy_costs=[[0.7]],
            chains=[((0,), (1.0,))],
            flows=[(0, 1, 0)],
            d_in=[0.03],
            d_out=[0.04],
            delays=d,
        )
        return inst, make_slots(inst, [[15.0]], run_costs=np.array([[2.0]]))

    def test_forced_roundup_cost_by_hand(self):
        inst, slots = self._roundup_fixture()
        ex = solve_exact(inst, slots)
        assert ex.optimal
        assert ex.plans[0].q[0, 0] == 2
        # rent 2*2.0, deploy 2*0.7, ingress+egress 15*(0.03+0.04), no delay cost
        assert ex.objective == pytest.approx(2 * 2.0 + 2 * 0.7 + 15.0 * 0.07, abs=1e-6)

    def test_matches_exhaustive_enumeration(self, rng):
        for _ in range(3):
            inst, slots = random_desk_instance(rng, max_dc=2, max_vnfs=1, max_flows=1, max_slots=2)
            # cap rates so two instances always suffice and the grid stays tiny
            capped = []
            for s in slots:
                rates = np.minimum(s.rates, 1.5 * inst.capacity.min())
                capped.append(SlotInput(s.t, rates, s.delay_weights, s.run_costs))
            ex = solve_exact(inst, capped)
            brute = enumerate_exact(inst, capped, q_max=2)
            assert ex.optimal
            assert ex.objective == pytest.approx(brute, rel=1e-6, abs=1e-6)

    def test_no_incumbent_reports_unbounded_gap(self):
        # the root LP deploys 1.5 instances; one node leaves no integer incumbent
        inst, slots = self._roundup_fixture()
        ex = solve_exact(inst, slots, node_limit=1)
        assert not ex.optimal
        assert math.isnan(ex.objective)
        assert ex.gap == math.inf

    def test_limits_reported(self, rng):
        inst, slots = random_desk_instance(rng, max_dc=3, max_vnfs=2, max_slots=3)
        ex = solve_exact(inst, slots, node_limit=2)
        if not ex.optimal:
            assert ex.gap >= 0.0


class TestCertificate:
    def _small_rate_fixture(self, rng):
        inst, slots = random_desk_instance(rng, small_rates=True)
        return inst, slots

    def test_feasible_and_bounds_chain(self, rng):
        hits = 0
        for _ in range(4):
            inst, slots = self._small_rate_fixture(rng)
            plans = run_orfa(inst, slots)
            if max(float(p.q.max()) for p in plans) > 1.0:
                continue  # construction is guaranteed only in the small-count regime
            cert = build_dual_certificate(inst, slots, plans)
            assert cert.feasible, cert.violations
            assert np.all(cert.precedence >= -1e-9)
            assert np.all(cert.precedence <= inst.deploy_cost[None] + 1e-9)
            rel = solve_relaxation(inst, slots)
            ex = solve_exact(inst, slots)
            assert cert.objective <= rel.objective + 1e-6 * (1 + abs(rel.objective))
            assert rel.objective <= ex.objective + 1e-6 * (1 + abs(ex.objective))
            hits += 1
        assert hits >= 2

    def test_zero_demand_gives_zero_bound(self, rng):
        inst = single_vnf_instance(rng=rng)
        slots = make_slots(inst, [[0.0], [0.0]])
        plans = run_orfa(inst, slots)
        cert = build_dual_certificate(inst, slots, plans)
        assert cert.objective == 0.0
        assert cert.feasible

    def test_violations_reported_not_hidden(self, rng):
        # large counts break the precedence-multiplier construction; the result
        # must say so rather than claim a bound
        inst = single_vnf_instance(rng=rng)
        slots = make_slots(inst, [[5.0], [25.0], [25.0]])
        plans = run_orfa(inst, slots)
        assert max(float(p.q.max()) for p in plans) > 1.0
        cert = build_dual_certificate(inst, slots, plans)
        assert not cert.feasible
        assert cert.violations

    def test_certificate_csv(self, tmp_path, rng):
        inst, slots = self._small_rate_fixture(rng)
        plans = run_orfa(inst, slots)
        cert = build_dual_certificate(inst, slots, plans)
        path = tmp_path / "cert.csv"
        write_certificate_csv(path, cert)
        assert path.read_text().startswith("t,max_capacity_dual")

    def test_certificate_csv_slot_shares_sum_to_the_total(self, tmp_path, rng):
        # each slot row holds that slot's term of the bound, so the rows add up
        # to the total row of a verified certificate
        inst, slots = self._small_rate_fixture(rng)
        plans = run_orfa(inst, slots)
        cert = build_dual_certificate(inst, slots, plans)
        assert cert.feasible and cert.objective > 0
        path = tmp_path / "cert.csv"
        write_certificate_csv(path, cert)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        shares = [float(r["objective_share"]) for r in rows if r["t"].isdigit()]
        (total,) = [float(r["objective_share"]) for r in rows if r["t"] == "total"]
        assert len(shares) == len(slots)
        assert total == pytest.approx(cert.objective, rel=1e-12)
        assert sum(shares) == pytest.approx(total, rel=1e-12)

    @staticmethod
    def _horizon_certificate(inst, slots):
        """The horizon LP's own optimal multipliers, packed slot by slot."""
        prog = HorizonProgram(inst, slots)
        res = solve_lp(prog.lp)
        assert res.status == "optimal"
        M, I = inst.num_vnfs, inst.num_datacenters
        rows = [lay.demand_rows()[1].size + lay.conservation_rows()[1].size for lay in prog.layouts]
        equality = tuple(np.split(res.eq_duals, np.cumsum(rows)[:-1]))
        # inequality rows per slot: capacity, then deployment coupling
        ub = res.ub_duals.reshape(len(slots), 2, M, I)
        return prog, res, DualCertificate(ub[:, 0].copy(), equality, ub[:, 1].copy())

    def test_horizon_optimum_verifies(self, rng):
        for _ in range(3):
            inst, slots = random_desk_instance(rng)
            _, res, packed = self._horizon_certificate(inst, slots)
            cert = check_certificate(inst, slots, packed)
            assert cert.feasible, cert.violations
            rel = solve_relaxation(inst, slots)
            assert cert.objective == pytest.approx(rel.objective, rel=1e-6)

    def test_negated_routing_multiplier_is_a_routing_violation(self, rng):
        # a two-VNF chain, so every slot has conservation rows
        inst = build_instance(
            3, vnf_caps=[[10.0] * 3, [8.0] * 3], deploy_costs=[[1.0] * 3, [0.5] * 3],
            chains=[((0, 1), (1.0, 0.9))], flows=[(0, 1, 0), (1, 0, 0)], rng=rng,
        )
        slots = make_slots(inst, [[6.0, 9.0], [14.0, 3.0]], run_costs=rng.uniform(0.5, 2.0, size=(2, 2, 3)))
        prog, res, packed = self._horizon_certificate(inst, slots)
        t = len(slots) - 1
        lay, off = prog.layouts[t], prog.offsets[t]
        a_con = lay.conservation_rows()[0]
        # a conservation row that carries traffic prices columns with zero reduced cost
        busy = abs(a_con) @ res.x[off : off + lay.n_vars] > 1e-6
        n_dem = lay.demand_rows()[1].size
        y_con = packed.equality[t][n_dem:]
        row = int(np.argmax(np.where(busy, np.abs(y_con), 0.0)))
        assert busy[row] and abs(y_con[row]) > 1e-3
        equality = list(packed.equality)
        equality[t] = equality[t].copy()
        equality[t][n_dem + row] *= -1.0
        cert = check_certificate(inst, slots, replace(packed, equality=tuple(equality)))
        assert not cert.feasible
        assert (t, "routing-stationarity") in {v[:2] for v in cert.violations}


class TestRatios:
    def test_identical_costs_give_ratio_one(self):
        rep = RatioReport(10.0, 10.0, relaxation=10.0, exact=10.0, exact_optimal=True, certificate=10.0)
        assert rep.online_vs_exact == pytest.approx(1.0)
        assert rep.online_vs_relaxation == pytest.approx(1.0)

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_denominator_ordering(self, seed):
        # verified certificate <= relaxation <= proven-optimal exact, so the
        # ratios against them come in the reverse order
        inst, slots = random_desk_instance(np.random.default_rng(seed), small_rates=True, max_slots=2)
        rel = solve_relaxation(inst, slots)
        assume(rel.objective > 1e-9)
        plans = run_orfa(inst, slots)
        ex = solve_exact(inst, slots)
        cert = build_dual_certificate(inst, slots, plans)
        online = trajectory_cost(inst, slots, plans)
        rep = RatioReport(online, online, rel.objective, ex.objective, ex.optimal,
                          cert.objective if cert.feasible else np.nan)
        assert ex.optimal
        assert rep.online_vs_relaxation >= rep.online_vs_exact - 1e-9
        if cert.feasible:  # an unverified certificate is no bound
            assert rep.online_vs_certificate >= rep.online_vs_relaxation - 1e-9

    def test_zero_denominator_is_nan(self):
        rep = RatioReport(5.0, 5.0, relaxation=0.0)
        assert math.isnan(rep.online_vs_relaxation)

    def test_unproven_exact_is_no_denominator(self):
        # an incumbent found under a node or time limit upper-bounds the optimum
        rep = RatioReport(5.0, 5.0, exact=4.0, exact_optimal=False)
        assert math.isnan(rep.online_vs_exact)
        assert RatioReport(5.0, 5.0, exact=4.0, exact_optimal=True).online_vs_exact == pytest.approx(1.25)

    def test_fractional_bound_formula(self):
        rep = RatioReport(5.0, 5.0, relaxation=4.0, phi=0.5, ingredients={"eta": 3.0})
        assert rep.fractional_ratio_bound == pytest.approx(3.0 + 1.0 + 2.0)

    def test_ratio_csv(self, tmp_path):
        rep = RatioReport(5.0, 4.5, relaxation=4.0, phi=0.5, ingredients={"eta": 3.0})
        path = tmp_path / "ratios.csv"
        write_ratio_csv(path, {"demo": rep})
        assert "demo" in path.read_text()


def test_best_integer_regularized_cost_within_guarantee(rng):
    # tiny instance: enumerate integer count trajectories, evaluate the
    # regularized objective (routing re-optimized per slot), and compare the
    # best value against (eta + 2) times the exact offline optimum
    from chainscale.orfa import build_subproblem
    from chainscale.solver import entropy_value

    inst = single_vnf_instance(num_dc=2, cap=10.0, deploy=1.0, beta=1.0, rng=rng)
    slots = make_slots(inst, [[8.0], [14.0]], run_costs=np.array([[1.0, 1.2]]))
    demands = [vnf_demand(inst, slot_rates(inst, s)) for s in slots]

    best = math.inf
    for combo in itertools.product(range(3), repeat=4):
        q_traj = np.array(combo, dtype=int).reshape(2, 1, 2)
        if any(np.any((q_traj[t] * inst.capacity).sum(axis=1) < demands[t] - 1e-9) for t in range(2)):
            continue
        total, prev = 0.0, np.zeros((1, 2))
        for t, slot in enumerate(slots):
            x, y = reroute(inst, slot, q_traj[t])
            prog, layout = build_subproblem(inst, slot, prev)
            plan = type("P", (), {"q": q_traj[t], "x": x, "y": y})()
            total += entropy_value(prog, pack_plan(layout, plan))
            prev = q_traj[t].astype(float)
        best = min(best, total)

    ex = solve_exact(inst, slots)
    assert ex.optimal
    assert best <= (inst.eta + 2.0) * ex.objective + 1e-9


def test_min_positive_deployment_floor():
    class P:
        def __init__(self, q):
            self.q = q

    plans = [P(np.array([[0.0, 5e-10]])), P(np.array([[0.4, 2.0]]))]
    assert min_positive_deployment(plans) == pytest.approx(0.4)
    assert math.isnan(min_positive_deployment([P(np.zeros((1, 2)))]))
