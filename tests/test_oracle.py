import csv
import itertools
import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chainscale import cli, oracle
from chainscale.cli import ExperimentSpec, _ratio, run_single
from chainscale.coa import reroute, run_coa
from chainscale.layout import SlotLayout
from chainscale.model import SlotInput
from chainscale.oracle import (
    DualCertificate,
    ExactResult,
    HorizonProgram,
    build_dual_certificate,
    horizon_columns,
    check_certificate,
    min_positive_deployment,
    solve_exact,
    solve_relaxation,
    write_certificate_csv,
)
from chainscale.coa import run_online
from chainscale.rates import CostBreakdown, cost_of_plan, slot_rates, vnf_demand
from chainscale.solver import INFEASIBLE, ITERATION_LIMIT, OPTIMAL, LpModel, solve_lp
from chainscale.workload import WorkloadConfig
from chainscale.workload import build_instance as build_workload
from conftest import (PIPELINE_CASES, PIPELINE_IDS, SHOCK_CFG, build_instance, make_slots, random_desk_instance,
                      single_vnf_instance)
from simplex_oracle import oracle_solve_lp


def trajectory_cost(inst, slots, plans):
    prev = np.zeros((inst.num_vnfs, inst.num_datacenters))
    out = []
    for slot, plan in zip(slots, plans):
        out.append(cost_of_plan(inst, slot, plan, prev))
        prev = np.asarray(plan.q, dtype=float)
    return sum(out, CostBreakdown()).total


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
            total += cost_of_plan(inst, slot, reroute(SlotLayout(inst, slot), q_traj[t]), prev).total
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

    def test_column_count_matches_the_program(self, rng):
        # counted from the instance and the slots, without a layout
        for _ in range(6):
            inst, slots = random_desk_instance(rng)
            assert horizon_columns(inst, slots) == HorizonProgram(inst, slots).n_vars

    def test_single_slot_deploys_exactly_the_counts(self, rng):
        # with no prior slot every instance is newly deployed: the LP's
        # deployment columns cost exactly what pricing the counts charges
        inst, slots = random_desk_instance(rng, max_slots=1)
        rel = solve_relaxation(inst, slots)
        cost = cost_of_plan(inst, slots[0], rel.plans[0], np.zeros_like(rel.plans[0].q))
        assert cost.deploy == pytest.approx(float(np.sum(inst.deploy_cost * rel.plans[0].q)), rel=1e-12)
        assert rel.objective == pytest.approx(cost.total, rel=1e-7)

    def test_lower_bounds_online_cost(self, rng):
        for _ in range(5):
            inst, slots = random_desk_instance(rng)
            plans = run_online(inst, slots, 0, {}).fractional
            rel = solve_relaxation(inst, slots)
            assert rel.objective <= trajectory_cost(inst, slots, plans) + 1e-7

    @pytest.mark.parametrize("case", range(len(PIPELINE_CASES) + 20),
                             ids=PIPELINE_IDS + [f"random-{k}" for k in range(20)])
    def test_matches_the_full_lp(self, case):
        if case < len(PIPELINE_CASES):
            inst, slots = build_workload(*PIPELINE_CASES[case])
        else:
            inst, slots = random_desk_instance(np.random.default_rng(case))
        rel = solve_relaxation(inst, slots)
        full = solve_lp(HorizonProgram(inst, slots).lp)
        assert rel.status == full.status == OPTIMAL
        assert rel.objective == pytest.approx(full.objective, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("cfg, seed", PIPELINE_CASES, ids=PIPELINE_IDS)
    def test_last_master_prices_every_column(self, cfg, seed, monkeypatch):
        # the last master's multipliers are dual feasible for the whole
        # horizon LP, within the pricing tolerance, so its optimum is the LP's
        masters = []

        def recording(lp):
            res = solve_lp(lp)
            masters.append((lp.n, res))
            return res

        monkeypatch.setattr(oracle, "solve_lp", recording)
        inst, slots = build_workload(cfg, seed)
        rel = solve_relaxation(inst, slots)
        n, last = masters[-1]
        assert rel.objective == last.objective
        lp = HorizonProgram(inst, slots).lp
        assert n < lp.n
        reduced = lp.c + lp.a_eq.T @ last.eq_duals + lp.a_ub.T @ last.ub_duals
        assert float(reduced.min()) >= -oracle.PRICING_TOL

    @staticmethod
    def _two_hop(vnf_caps):
        """A two-VNF chain on two datacenters; datacenter 0 is the cheaper receiver in transfer, delay and rent."""
        delays = np.array([[0.0, 8.0, 5.0, 0.0], [8.0, 0.0, 5.0, 8.0], [5.0, 5.0, 0.0, 5.0], [0.0, 8.0, 5.0, 0.0]])
        inst = build_instance(2, vnf_caps=vnf_caps, deploy_costs=[[1.0, 1.0], [1.0, 1.0]],
                              chains=[((0, 1), (1.0, 1.0))], flows=[(0, 1, 0)], delays=delays,
                              d_in=[0.0, 0.05], d_out=[0.0, 0.05], horizon=2)
        return inst, make_slots(inst, [[12.0], [7.0]], run_costs=np.array([[1.0, 1.0], [0.1, 1.0]]))

    def test_zero_capacity_cell_is_never_the_only_route(self):
        # VNF 1 cannot run on datacenter 0, its cheapest receiver on every
        # other count: the master must route through datacenter 1
        inst, slots = self._two_hop([[10.0, 10.0], [0.0, 10.0]])
        rel = solve_relaxation(inst, slots)
        full = solve_lp(HorizonProgram(inst, slots).lp)
        assert rel.status == full.status == OPTIMAL
        assert rel.objective == pytest.approx(full.objective, rel=1e-9, abs=0.0)
        assert all(plan.q[1, 0] == 0.0 for plan in rel.plans)

    def test_a_vnf_with_no_capacity_is_infeasible_as_in_the_full_lp(self):
        inst, slots = self._two_hop([[10.0, 10.0], [0.0, 0.0]])
        rel = solve_relaxation(inst, slots)
        assert rel.status == solve_lp(HorizonProgram(inst, slots).lp).status == INFEASIBLE
        assert math.isnan(rel.objective) and rel.plans == ()


def zero_rent(deploy):
    """Demand 100 / 0 / 100 on capacity-10 instances that pay no rent."""
    inst = single_vnf_instance(num_dc=2, cap=10.0, deploy=deploy, beta=1.0, horizon=3)
    return inst, make_slots(inst, [[100.0], [0.0], [100.0]], run_costs=np.zeros((1, 2)))


def test_zero_rent_counts_need_no_cap():
    # keeping all 10 through the idle slot saves 10 redeployments, which a
    # demand-based cap in the idle slot would force back
    inst, slots = zero_rent(deploy=1.0)
    kept = np.array([[10, 0]])
    total, prev = 0.0, np.zeros((1, 2))
    for slot in slots:
        total += cost_of_plan(inst, slot, reroute(SlotLayout(inst, slot), kept), prev).total
        prev = kept
    assert total == pytest.approx(128.86752326701455, rel=1e-9)
    assert solve_relaxation(inst, slots).objective <= total * (1 + 1e-9)
    ex = solve_exact(inst, slots)
    assert ex.optimal
    assert ex.objective == pytest.approx(total, rel=1e-9)

    # with zero deploy cost too, nothing prices the counts; the horizon LP
    # stays bounded all the same: raising a count that costs nothing lowers no objective
    inst, slots = zero_rent(deploy=0.0)
    rel = solve_relaxation(inst, slots)
    ex = solve_exact(inst, slots)
    assert rel.status == OPTIMAL and ex.optimal
    assert ex.objective == pytest.approx(rel.objective, rel=1e-9)


def test_orfa_keeps_zero_rent_counts_through_the_idle_slot():
    # ORFA's own cap on a zero-rent count must not bind either: the
    # regularizer keeps the 10 instances through the idle slot, so nothing is
    # redeployed when demand returns (a cap at demand / capacity + 1 forced
    # the count to 1 in slot 2 and redeployed 9 in slot 3)
    inst, slots = zero_rent(deploy=1.0)
    plans = run_online(inst, slots, 0, {}).fractional
    for plan in plans:
        assert plan.q[0, 0] == pytest.approx(10.0, abs=1e-3)
    for before, plan in zip(plans, plans[1:]):
        assert np.maximum(0.0, plan.q - before.q).sum() <= 1e-3  # nothing redeployed


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
    def _roundup_fixture(cap=10.0):
        # one datacenter, demand 1.5x capacity -> two instances; source and
        # destination co-located with the datacenter kill transfer-side delays
        d = np.zeros((3, 3))
        inst = build_instance(
            1,
            vnf_caps=[[cap]],
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

    @settings(max_examples=20)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_exhaustive_enumeration(self, seed):
        inst, slots = random_desk_instance(np.random.default_rng(seed), max_dc=2, max_vnfs=1, max_flows=1, max_slots=2)
        # cap rates so two instances always suffice and the grid stays tiny
        capped = []
        for s in slots:
            rates = np.minimum(s.rates, 1.5 * inst.capacity.min())
            capped.append(SlotInput(s.t, rates, s.delay_weights, s.run_costs))
        ex = solve_exact(inst, capped)
        brute = enumerate_exact(inst, capped, q_max=2)
        assert ex.optimal and ex.gap == 0.0 and ex.status == OPTIMAL
        assert ex.objective == pytest.approx(brute, rel=1e-6, abs=1e-6)
        assert solve_relaxation(inst, capped).objective <= ex.objective + 1e-9 * (1 + abs(ex.objective))

    def test_no_incumbent_reports_unbounded_gap(self):
        # the root LP deploys 1.5 instances; one node leaves no integer incumbent
        inst, slots = self._roundup_fixture()
        ex = solve_exact(inst, slots, node_limit=1)
        assert not ex.optimal
        assert math.isnan(ex.objective)
        assert ex.gap == math.inf

    @pytest.mark.parametrize(
        "limits, name",
        [
            ({"time_limit": math.nan}, "time_limit"),
            ({"time_limit": 0.0}, "time_limit"),
            ({"time_limit": -1.0}, "time_limit"),
            ({"node_limit": 0}, "node_limit"),
        ],
        ids=["nan-time", "zero-time", "negative-time", "zero-nodes"],
    )
    def test_bad_limits_rejected(self, limits, name):
        # a NaN time limit would never stop the search: elapsed > nan is False
        inst, slots = self._roundup_fixture()
        with pytest.raises(ValueError, match=name):
            solve_exact(inst, slots, **limits)

    def test_node_limit_reports_iteration_limit(self):
        # the desk config stops at two nodes without proving optimality
        cfg = WorkloadConfig(num_datacenters=4, num_chains=3, horizon=4, num_endpoint_sites=8)
        inst, slots = build_workload(cfg, 0)
        ex = solve_exact(inst, slots, node_limit=2)
        assert not ex.optimal and ex.gap == math.inf
        assert ex.status == ITERATION_LIMIT

    @pytest.mark.parametrize("cap, node_limit, status", [
        (0.0, 100_000, INFEASIBLE),  # no capacity carries the demand, so the root LP has no solution
        (10.0, 1, ITERATION_LIMIT),  # the root deploys 1.5 instances and the limit stops there
        (10.0, 100_000, OPTIMAL),
    ], ids=["infeasible-root", "node-limited", "finished"])
    def test_optimal_reads_the_status(self, cap, node_limit, status):
        ex = solve_exact(*self._roundup_fixture(cap), node_limit=node_limit)
        assert ex.status == status
        assert ex.optimal is (status == OPTIMAL)

    def test_limits_reported(self, rng):
        inst, slots = random_desk_instance(rng, max_dc=3, max_vnfs=2, max_slots=3)
        ex = solve_exact(inst, slots, node_limit=2)
        if not ex.optimal:
            assert ex.gap >= 0.0


def exact_cases():
    """(id, instance, slots, node limit): TestExact's fixtures and desk SHOCK_CFG at shock 100 under a node limit."""
    rng = np.random.default_rng(20240817)
    single = single_vnf_instance(num_dc=1, cap=10.0, beta=1.0, num_sites=2, rng=rng)
    cases = [
        ("integral-root", single, make_slots(single, [[20.0]]), 100_000),
        ("roundup", *TestExact._roundup_fixture(), 100_000),
        ("roundup-one-node", *TestExact._roundup_fixture(), 1),
        ("desk-small", *build_workload(WorkloadConfig(num_datacenters=4, num_chains=3, horizon=4,
                                                      num_endpoint_sites=8), 0), 2),
        ("random-desk", *random_desk_instance(rng, max_dc=3, max_vnfs=2, max_slots=3), 100_000),
    ]
    shock = replace(SHOCK_CFG, shock_level=100.0)
    return cases + [(f"shock-100-seed-{seed}", *build_workload(shock, seed), 30) for seed in range(3)]


EXACT_CASES = exact_cases()


class TestExactTwoModels:
    """Branch-and-bound solves each branching's children on two models at once, one in a worker thread."""

    @staticmethod
    def assert_same_search(first, second):
        assert (first.nodes, first.status, first.optimal) == (second.nodes, second.status, second.optimal)
        for a, b in ((first.gap, second.gap), (first.objective, second.objective)):
            assert a == b or (math.isnan(a) and math.isnan(b))
        assert len(first.plans) == len(second.plans)
        for p, r in zip(first.plans, second.plans):
            np.testing.assert_array_equal(p.q, r.q)
            for part in ("y", "x"):
                assert getattr(p, part).keys() == getattr(r, part).keys()
                for k, v in getattr(p, part).items():
                    np.testing.assert_array_equal(v, getattr(r, part)[k])

    @pytest.mark.parametrize("case", EXACT_CASES, ids=[c[0] for c in EXACT_CASES])
    def test_repeated_calls_agree(self, case):
        _, inst, slots, node_limit = case
        self.assert_same_search(*(solve_exact(inst, slots, node_limit=node_limit) for _ in range(2)))

    def test_thread_switching_changes_nothing(self, monkeypatch):
        # the threads hand the interpreter back and forth every microsecond, so
        # the two children's solves interleave at many more points; each
        # thread's node LPs must still come out the same, bit for bit
        node_lps = {True: [], False: []}  # by whether the calling thread solved them
        solve = LpModel.solve

        def recording(self, *args, **kwargs):
            res = solve(self, *args, **kwargs)
            node_lps[threading.current_thread() is threading.main_thread()].append((res.status, res.objective))
            return res

        def search():
            for lps in node_lps.values():
                lps.clear()
            ex = solve_exact(inst, slots, node_limit=node_limit)
            return ex, {main: list(lps) for main, lps in node_lps.items()}

        monkeypatch.setattr(LpModel, "solve", recording)
        _, inst, slots, node_limit = EXACT_CASES[-1]
        want, want_lps = search()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [search() for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        for ex, lps in got:
            self.assert_same_search(want, ex)
            assert lps == want_lps

    def test_up_children_solve_in_the_worker(self, monkeypatch):
        threads = []
        solve = LpModel.solve

        def recording(self, *args, **kwargs):
            threads.append(threading.current_thread() is threading.main_thread())
            return solve(self, *args, **kwargs)

        monkeypatch.setattr(LpModel, "solve", recording)
        _, inst, slots, node_limit = EXACT_CASES[-1]
        ex = solve_exact(inst, slots, node_limit=node_limit)
        branchings = (ex.nodes - 1) // 2
        assert branchings > 0
        assert (threads.count(True), threads.count(False)) == (1 + branchings, branchings)

    @pytest.mark.parametrize("where", ["worker", "caller"])
    def test_a_failing_node_solve_reaches_the_caller(self, monkeypatch, where):
        # the first up child fails in the worker, or the first down child in
        # the calling thread while its sibling runs in the worker
        calls = []
        solve = LpModel.solve

        def fails_here(main):
            if where == "worker":
                return not main
            return main and calls.count(True) == 2  # the root was the first solve in the calling thread

        def failing(self, *args, **kwargs):
            main = threading.current_thread() is threading.main_thread()
            calls.append(main)
            if fails_here(main):
                raise RuntimeError("node solve failed")
            return solve(self, *args, **kwargs)

        monkeypatch.setattr(LpModel, "solve", failing)
        _, inst, slots, node_limit = EXACT_CASES[-1]
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="node solve failed"):
            solve_exact(inst, slots, node_limit=node_limit)
        assert threading.active_count() == before
        assert calls.count(False) == 1


class TestCertificate:
    def _small_rate_fixture(self, rng):
        inst, slots = random_desk_instance(rng, small_rates=True)
        return inst, slots

    def test_feasible_and_bounds_chain(self, rng):
        hits = 0
        for _ in range(4):
            inst, slots = self._small_rate_fixture(rng)
            plans = run_online(inst, slots, 0, {}).fractional
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
        plans = run_online(inst, slots, 0, {}).fractional
        cert = build_dual_certificate(inst, slots, plans)
        assert cert.objective == 0.0
        assert cert.feasible

    def test_violations_reported_not_hidden(self, rng):
        # large counts break the precedence-multiplier construction; the result
        # must say so rather than claim a bound
        inst = single_vnf_instance(rng=rng)
        slots = make_slots(inst, [[5.0], [25.0], [25.0]])
        plans = run_online(inst, slots, 0, {}).fractional
        assert max(float(p.q.max()) for p in plans) > 1.0
        cert = build_dual_certificate(inst, slots, plans)
        assert not cert.feasible
        assert cert.violations

    def test_certificate_csv(self, tmp_path, rng):
        inst, slots = self._small_rate_fixture(rng)
        plans = run_online(inst, slots, 0, {}).fractional
        cert = build_dual_certificate(inst, slots, plans)
        path = tmp_path / "cert.csv"
        write_certificate_csv(path, cert)
        assert path.read_text().startswith("t,max_capacity_dual")

    def test_unchecked_certificate_csv_is_refused(self, tmp_path, rng):
        # an unchecked certificate has no bound terms to write
        inst, slots = self._small_rate_fixture(rng)
        cert = replace(build_dual_certificate(inst, slots, run_online(inst, slots, 0, {}).fractional),
                       slot_bounds=None, violations=())
        path = tmp_path / "cert.csv"
        with pytest.raises(ValueError, match="unchecked"):
            write_certificate_csv(path, cert)
        assert not path.exists()

    def test_certificate_csv_slot_shares_sum_to_the_total(self, tmp_path, rng):
        # each slot row holds that slot's term of the bound, so the rows add up
        # to the total row of a verified certificate
        inst, slots = self._small_rate_fixture(rng)
        plans = run_online(inst, slots, 0, {}).fractional
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
        # a three-VNF chain, so every slot has balance rows at its middle position
        inst = build_instance(
            3, vnf_caps=[[10.0] * 3, [8.0] * 3, [9.0] * 3], deploy_costs=[[1.0] * 3, [0.5] * 3, [0.8] * 3],
            chains=[((0, 1, 2), (1.0, 0.9, 1.1))], flows=[(0, 1, 0), (1, 0, 0)], rng=rng,
        )
        slots = make_slots(inst, [[6.0, 9.0], [14.0, 3.0]], run_costs=rng.uniform(0.5, 2.0, size=(2, 3, 3)))
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


def tiny_spec(tmp_path, **kw):
    """A one-seed, one-algorithm CLI run on a two-datacenter instance."""
    cfg = WorkloadConfig(num_datacenters=2, num_chains=1, horizon=2, num_endpoint_sites=2, num_population_centers=2)
    return ExperimentSpec(algorithms=("ORFA",), sweep="none", values=(), seeds=(0,), out_dir=str(tmp_path),
                          workload=cfg, **kw)


class TestRatios:
    """Ratios as the CLI divides them: only by a finite, positive, valid lower bound."""

    def test_identical_costs_give_ratio_one(self):
        assert _ratio(10.0, 10.0) == 1.0

    @settings(max_examples=20)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_denominator_ordering(self, seed):
        # verified certificate <= relaxation <= proven-optimal exact, so the
        # ratios against them come in the reverse order
        inst, slots = random_desk_instance(np.random.default_rng(seed), small_rates=True, max_slots=2)
        rel = solve_relaxation(inst, slots)
        assume(rel.objective > 1e-9)
        plans = run_online(inst, slots, 0, {}).fractional
        ex = solve_exact(inst, slots)
        cert = build_dual_certificate(inst, slots, plans)
        online = trajectory_cost(inst, slots, plans)
        assert ex.optimal
        assert online / rel.objective >= online / ex.objective - 1e-9
        if cert.feasible:  # an unverified certificate is no bound
            assert online / cert.objective >= online / rel.objective - 1e-9

    def test_zero_denominator_is_nan(self):
        for bound in (0.0, -1.0, math.inf, math.nan):
            assert math.isnan(_ratio(5.0, bound))

    def test_unproven_exact_is_no_denominator(self, tmp_path, monkeypatch):
        # an incumbent found under a node or time limit upper-bounds the optimum
        for optimal in (False, True):
            incumbent = ExactResult(4.0, (), 0.0 if optimal else 0.05, 40, OPTIMAL if optimal else ITERATION_LIMIT)
            monkeypatch.setattr(cli, "solve_exact", lambda *args, **kwargs: incumbent)
            (row,) = run_single(tiny_spec(tmp_path, oracles=("exact",)), None, 0)
            assert row["exact"] == 4.0 and row["exact_optimal"] is optimal
            expected = row["cost_total"] / 4.0 if optimal else math.nan
            assert row["ratio_vs_exact"] == pytest.approx(expected, nan_ok=True)

    def test_fractional_bound_formula(self, tmp_path, monkeypatch):
        # eta + 1 + 1/phi, and no bound without a positive phi
        spec = tiny_spec(tmp_path, oracles=("relaxation",))
        (row,) = run_single(spec, None, 0)
        assert row["phi"] > 0
        assert row["bound_fractional"] == row["eta"] + 1.0 + 1.0 / row["phi"]
        monkeypatch.setattr(cli, "min_positive_deployment", lambda plans: math.nan)
        (row,) = run_single(spec, None, 0)
        assert math.isnan(row["bound_fractional"])


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
            layout = SlotLayout(inst, slot)
            prog, _ = build_subproblem(layout, prev)
            total += entropy_value(prog, layout.pack(reroute(layout, q_traj[t])))
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
