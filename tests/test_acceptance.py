"""Acceptance gate: every release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print.  The randomized batches are fully seeded; reruns are identical.
"""

import functools
import itertools
import math
import time

import numpy as np
import pytest

from chainscale.clustering import cluster
from chainscale.coa import bound_ingredients, reroute, run_coa, run_online
from chainscale.model import SlotInput
from chainscale.oracle import (
    build_dual_certificate,
    min_positive_deployment,
    solve_exact,
    solve_relaxation,
)
from chainscale.rates import (
    CostBreakdown,
    cost_of_plan,
    plan_residuals,
    slot_rates,
    vnf_demand,
)
from chainscale.rounding import init_stars, owdr, resolve_probabilities, round_nearest, round_owdr, round_up
from chainscale.solver import (
    OPTIMAL,
    EntropyRegularizedProgram,
    LinearProgram,
    entropy_gradient,
    entropy_value,
    solve_lp,
)
from chainscale.workload import build_instance
from conftest import build_instance as build_fixture
from conftest import SHOCK_CFG, make_slots, random_desk_instance
from simplex_oracle import oracle_solve_lp


def criterion(name):
    """Print one PASS/FAIL line per criterion, keeping pytest's failure detail."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs) or ""
            except BaseException as exc:
                print(f"\n[ACCEPTANCE] {name}: FAIL ({type(exc).__name__})")
                raise
            print(f"\n[ACCEPTANCE] {name}: PASS {detail}")

        return wrapper

    return deco


def trajectory_cost(inst, slots, plans) -> float:
    prev = np.zeros((inst.num_vnfs, inst.num_datacenters))
    total = CostBreakdown()
    for slot, plan in zip(slots, plans):
        total = total + cost_of_plan(inst, slot, plan, prev)
        prev = np.asarray(plan.q, dtype=float)
    return total.total


@pytest.fixture(scope="module")
def desk_batch():
    """200 random desk-scale instances with their online runs and timings."""
    rng = np.random.default_rng(7041)
    batch = []
    for _ in range(200):
        max_dc = int(rng.choice([2, 3, 4, 6], p=[0.45, 0.3, 0.15, 0.1]))
        max_vnfs = int(rng.choice([1, 2, 3], p=[0.5, 0.3, 0.2]))
        max_flows = int(rng.choice([1, 2, 5], p=[0.4, 0.4, 0.2]))
        max_slots = int(rng.choice([2, 4, 10], p=[0.5, 0.35, 0.15]))
        inst, slots = random_desk_instance(
            rng, max_dc=max_dc, max_vnfs=max_vnfs, max_flows=max_flows, max_slots=max_slots
        )
        # CPU time: a busy neighbour on the host cannot push it over the bound
        started = time.process_time()
        plans = run_online(inst, slots, 0, {}).fractional
        elapsed = time.process_time() - started
        batch.append((inst, slots, plans, elapsed))
    return batch


@criterion("criterion 1: online fractional feasibility at tolerance 1e-6, < 5 s per instance")
def test_criterion_1_fractional_feasibility(desk_batch):
    worst = 0.0
    slowest = 0.0
    for inst, slots, plans, elapsed in desk_batch:
        assert elapsed < 5.0, f"instance took {elapsed:.2f} s of CPU time"
        slowest = max(slowest, elapsed)
        for slot, plan in zip(slots, plans):
            res = plan_residuals(inst, slot, plan)
            worst = max(worst, max(res.values()))
            assert max(res.values()) <= 1e-6, (slot.t, res)
            assert plan.kkt["stationarity"] <= 1e-5
    return f"(200 instances, worst residual {worst:.2e}, slowest {slowest:.2f} s)"


@criterion("criterion 2: fractional ratio within eta + 1 + 1/phi on every usable instance")
def test_criterion_2_fractional_ratio_bound(desk_batch):
    checked = excluded = 0
    worst_margin = math.inf
    for idx, (inst, slots, plans, _) in enumerate(desk_batch):
        phi = min_positive_deployment(plans)
        if not np.isfinite(phi) or phi < 1e-4:
            excluded += 1
            print(f"  [criterion 2] instance {idx} excluded (phi={phi})")
            continue
        rel = solve_relaxation(inst, slots)
        if not np.isfinite(rel.objective) or rel.objective <= 1e-9:
            excluded += 1
            continue
        ratio = trajectory_cost(inst, slots, plans) / rel.objective
        bound = inst.eta + 1.0 + 1.0 / phi
        assert ratio <= bound + 1e-6, (idx, ratio, bound)
        worst_margin = min(worst_margin, bound - ratio)
        checked += 1
    assert checked >= 150, f"too many exclusions: {excluded}"
    return f"({checked} checked, {excluded} excluded, smallest bound margin {worst_margin:.3f})"


@pytest.fixture(scope="module")
def certificate_fixtures():
    """Exact-solvable fixtures in the small-count regime, with all oracles."""
    rng = np.random.default_rng(5150)
    out = []
    while len(out) < 6:
        inst, slots = random_desk_instance(
            rng, max_dc=3, max_vnfs=2, max_flows=2, max_slots=3, small_rates=True
        )
        plans = run_online(inst, slots, 0, {}).fractional
        if max(float(p.q.max()) for p in plans) > 1.0:
            continue
        rel = solve_relaxation(inst, slots)
        ex = solve_exact(inst, slots)
        if not ex.optimal:
            continue
        out.append((inst, slots, plans, rel, ex))
    return out


@criterion("criterion 3: dual certificate feasible, multiplier bounds respected, bound chain holds")
def test_criterion_3_dual_certificate(certificate_fixtures):
    for inst, slots, plans, rel, ex in certificate_fixtures:
        cert = build_dual_certificate(inst, slots, plans)
        assert cert.feasible, cert.violations
        assert np.all(cert.precedence >= -1e-9)
        assert np.all(cert.precedence <= inst.deploy_cost[None, :, :] + 1e-9)
        assert cert.objective <= rel.objective + 1e-6 * (1 + abs(rel.objective))
        assert rel.objective <= ex.objective + 1e-6 * (1 + abs(ex.objective))
    return f"({len(certificate_fixtures)} exact-solvable fixtures)"


@pytest.fixture(scope="module")
def rounding_fixtures():
    """20 star fixtures with hand-placed fractional parts in [0.05, 0.95]."""
    rng = np.random.default_rng(909)
    fixtures = []
    for fid in range(20):
        I = int(rng.integers(2, 6))
        caps = rng.choice([6.0, 9.0, 12.0], size=(1, I))
        inst = build_fixture(
            I,
            vnf_caps=caps.tolist(),
            deploy_costs=[[1.0] * I],
            chains=[((0,), (1.0,))],
            flows=[(0, 1, 0)],
            rng=rng,
        )
        clusters = cluster(inst.dc_delays())
        run_costs = rng.uniform(0.5, 2.0, size=(1, I))
        slot = make_slots(inst, [[1.0]], run_costs=run_costs)[0]
        whole = rng.integers(0, 3, size=(1, I)).astype(float)
        frac = rng.uniform(0.05, 0.95, size=(1, I))
        keep = rng.random(size=(1, I)) < 0.75
        q = whole + np.where(keep, frac, 0.0)
        stars = init_stars(inst, slot, q, clusters)
        if not any(star.edges for star in stars):
            q[0, 0] += 0.5 - (q[0, 0] - math.floor(q[0, 0]))  # force one fractional edge
            stars = init_stars(inst, slot, q, clusters)
        fixtures.append((inst, q, stars))
    return fixtures


TRIALS = 10_000


@pytest.fixture(scope="module")
def rounding_trials(rounding_fixtures):
    """10,000 seeded trials per fixture: per-edge up-counts, checks, timing."""
    results = []
    started = time.monotonic()
    for fid, (inst, q, stars) in enumerate(rounding_fixtures):
        edges = [(star, j, star.edges[j]) for star in stars for j in range(len(star.edges))]
        ups = np.zeros(len(edges))
        expected_buffers = {
            star.buffer: math.ceil(q[star.vnf, star.buffer] + star.degree - 1e-9) for star in stars
        }
        frac_cap = float((q * inst.capacity).sum())
        min_cap = math.inf
        root = np.random.default_rng(3000 + fid)
        buffers_exact = True
        for child in root.spawn(TRIALS):
            q_int = owdr(stars, q, child)
            for e, (star, j, dc) in enumerate(edges):
                ups[e] += q_int[star.vnf, dc] == math.floor(q[star.vnf, dc]) + 1
            for buf, want in expected_buffers.items():
                if q_int[0, buf] != want:
                    buffers_exact = False
            min_cap = min(min_cap, float((q_int * inst.capacity).sum()))
        results.append(
            {
                "edges": edges,
                "ups": ups,
                "q": q,
                "buffers_exact": buffers_exact,
                "frac_cap": frac_cap,
                "min_cap": min_cap,
            }
        )
    return results, time.monotonic() - started


@criterion("criterion 4: rounding marginals within 3 binomial SEs over 10k trials x 20 fixtures, < 30 s")
def test_criterion_4_marginal_distribution(rounding_trials):
    results, elapsed = rounding_trials
    assert elapsed < 30.0, f"trials took {elapsed:.1f} s"
    worst_sigma = 0.0
    n_edges = 0
    for res in results:
        for e, (star, j, dc) in enumerate(res["edges"]):
            frac = star.p[j]
            phat = res["ups"][e] / TRIALS
            se = math.sqrt(frac * (1.0 - frac) / TRIALS)
            assert abs(phat - frac) <= 3.0 * se, (dc, frac, phat)
            worst_sigma = max(worst_sigma, abs(phat - frac) / se)
            n_edges += 1
    return f"({n_edges} rounded variables, worst deviation {worst_sigma:.2f} sigma, {elapsed:.1f} s)"


@criterion("criterion 5: weighted degree preserved each iteration; buffer count exact in all trials")
def test_criterion_5_degree_preservation(rounding_fixtures, rounding_trials):
    results, _ = rounding_trials
    for res in results:
        assert res["buffers_exact"]
    worst_drift = 0.0
    for fid, (inst, q, stars) in enumerate(rounding_fixtures):
        for star in stars:
            if len(star.edges) < 2:
                continue
            root = np.random.default_rng(60_000 + fid)
            for child in root.spawn(200):
                log = []
                resolve_probabilities(list(star.p), list(star.w), child, degree_log=log)
                prev = star.degree
                for d in log:
                    worst_drift = max(worst_drift, abs(d - prev))
                    prev = d
    assert worst_drift <= 1e-9
    return f"(max per-iteration drift {worst_drift:.2e}, buffers exact in all {TRIALS} trials x 20 fixtures)"


@criterion("criterion 6: rounded capacity >= fractional capacity >= demand, every VNF, every trial")
def test_criterion_6_capacity_chain(rounding_trials):
    results, _ = rounding_trials
    for res in results:
        assert res["min_cap"] >= res["frac_cap"] - 1e-9
    # end-to-end chain including real demand, per VNF
    rng = np.random.default_rng(424)
    checked = 0
    for _ in range(12):
        inst, slots = random_desk_instance(rng, max_dc=4, max_vnfs=2, max_slots=1)
        plans = run_online(inst, slots, 0, {}).fractional
        clusters = cluster(inst.dc_delays())
        rates = slot_rates(inst, slots[0])
        demand = vnf_demand(inst, rates)
        stars = init_stars(inst, slots[0], plans[0].q, clusters)
        frac_cap = (plans[0].q * inst.capacity).sum(axis=1)
        assert np.all(frac_cap >= demand - 1e-6)
        root = np.random.default_rng(999)
        for child in root.spawn(100):
            q_bar = owdr(stars, plans[0].q, child)
            got = (q_bar * inst.capacity).sum(axis=1)
            assert np.all(got >= frac_cap - 1e-9)
            assert np.all(got >= demand - 1e-6)
            checked += 1
    return f"(20 star fixtures x {TRIALS} trials + {checked} demand-backed trials)"


@pytest.fixture(scope="module")
def coa_fixtures(certificate_fixtures):
    """Exact-solvable fixtures with full online integer runs, several seeds."""
    out = []
    for inst, slots, plans, rel, ex in certificate_fixtures[:4]:
        for seed in range(3):
            result = run_online(inst, slots, seed, {"COA": round_owdr}).runs["COA"]
            out.append((inst, slots, result, rel, ex))
    return out


@criterion("criterion 7: integer trajectory feasible; online-to-offline ratio within the guarantee")
def test_criterion_7_integer_feasibility_and_bound(coa_fixtures):
    worst_ratio = 0.0
    for inst, slots, result, rel, ex in coa_fixtures:
        for slot, rec in zip(slots, result.records):
            res = plan_residuals(inst, slot, rec.integer)
            assert max(res.values()) <= 1e-6
            assert rec.integer.q.dtype.kind == "i" and np.all(rec.integer.q >= 0)
        if ex.objective > 1e-9:
            ratio = result.total_integer.total / ex.objective
            bound = result.ingredients["integer_ratio_bound"]
            assert ratio <= bound + 1e-6, (ratio, bound)
            worst_ratio = max(worst_ratio, ratio)
    return f"({len(coa_fixtures)} runs, worst observed ratio {worst_ratio:.3f})"


@criterion("criterion 8: shock sweep echo - near-optimal at shock 1, nondecreasing, within the guarantee")
def test_criterion_8_shock_sweep():
    import dataclasses

    seeds = range(10)
    means = {}
    for shock in (1.0, 10.0, 100.0):
        cfg = dataclasses.replace(SHOCK_CFG, shock_level=shock)
        ratios = []
        for seed in seeds:
            inst, slots = build_instance(cfg, seed)
            result = run_coa(inst, slots, seed)
            rel = solve_relaxation(inst, slots)
            assert rel.status == OPTIMAL and rel.objective > 0
            ratio = result.total_integer.total / rel.objective
            assert ratio <= result.ingredients["integer_ratio_bound"] + 1e-6
            ratios.append(ratio)
        means[shock] = float(np.mean(ratios))
    assert 1.0 <= means[1.0] <= 1.5, means
    assert means[10.0] >= means[1.0] - 0.05, means
    assert means[100.0] >= means[10.0] - 0.05, means
    return f"(mean ratios {means[1.0]:.3f} / {means[10.0]:.3f} / {means[100.0]:.3f} at shocks 1/10/100)"


@criterion("criterion 9: dependent rounding beats greedy round-up on average; IRR infeasibility reported")
def test_criterion_9_baseline_dominance():
    coa_ratios, gr_ratios = [], []
    irr_infeasible = irr_total = 0
    import dataclasses

    cfg = dataclasses.replace(SHOCK_CFG, shock_level=5.0)
    for seed in range(20):
        inst, slots = build_instance(cfg, 1000 + seed)
        rel = solve_relaxation(inst, slots)
        if rel.objective <= 1e-9:
            continue
        runs = run_online(inst, slots, seed, {"COA": round_owdr, "GR": round_up, "IRR": round_nearest}).runs
        coa = runs["COA"]
        coa_ratios.append(coa.total_integer.total / rel.objective)

        gr = runs["GR"]
        assert gr is not None  # round-up is always feasible
        gr_ratios.append(gr.total_integer.total / rel.objective)
        irr_total += 1
        irr_infeasible += runs["IRR"] is None
    mean_coa, mean_gr = float(np.mean(coa_ratios)), float(np.mean(gr_ratios))
    assert mean_coa <= mean_gr + 1e-9, (mean_coa, mean_gr)
    rate = irr_infeasible / max(1, irr_total)
    return f"(mean ratio COA {mean_coa:.3f} <= GR {mean_gr:.3f}; IRR infeasible {irr_infeasible}/{irr_total} = {rate:.0%})"


@criterion("criterion 10: LP solves match the simplex oracle; gradients match finite differences; search matches enumeration")
def test_criterion_10_solver_correctness():
    rng = np.random.default_rng(31337)
    # 50 random LPs against the textbook simplex
    from test_solver import random_lp

    for _ in range(50):
        lp = random_lp(rng)
        mine = solve_lp(lp)
        status, _, obj = oracle_solve_lp(lp)
        assert mine.status == status == OPTIMAL
        assert mine.objective == pytest.approx(obj, rel=1e-6, abs=1e-8)

    # entropy gradients against central differences
    n = 6
    lp = LinearProgram(c=rng.normal(size=n))
    prog = EntropyRegularizedProgram(
        lp,
        rng.uniform(0.1, 2.0, size=n),
        rng.uniform(0.0, 3.0, size=n),
        rng.uniform(0.05, 1.0, size=n),
    )
    for _ in range(100):
        v = rng.uniform(0.05, 4.0, size=n)
        g = entropy_gradient(prog, v)
        h = 1e-6
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            fd = (entropy_value(prog, v + e) - entropy_value(prog, v - e)) / (2 * h)
            assert g[j] == pytest.approx(fd, rel=1e-6, abs=1e-6)

    # branch-and-bound against exhaustive enumeration on tiny fixtures
    from test_oracle import enumerate_exact

    matched = 0
    for _ in range(3):
        inst, slots = random_desk_instance(rng, max_dc=2, max_vnfs=1, max_flows=1, max_slots=2)
        capped = []
        for s in slots:
            rates = np.minimum(s.rates, 1.5 * inst.capacity.min())
            capped.append(SlotInput(s.t, rates, s.delay_weights, s.run_costs))
        ex = solve_exact(inst, capped)
        brute = enumerate_exact(inst, capped, q_max=2)
        assert ex.optimal
        assert ex.objective == pytest.approx(brute, rel=1e-6, abs=1e-6)
        matched += 1
    return f"(50 LPs, 600 gradient checks, {matched} enumeration matches)"
