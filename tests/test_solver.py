import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from chainscale import orfa, solver, workload
from chainscale.oracle import HorizonProgram
from chainscale.coa import run_online
from chainscale.layout import SlotLayout
from chainscale.orfa import build_subproblem
from chainscale.rates import plan_residuals
from chainscale.solver import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    EntropyRegularizedProgram,
    LinearProgram,
    LpModel,
    entropy_gradient,
    entropy_value,
    solve_entropy,
    solve_lp,
)
from chainscale.solver import _ArrowSystem, _dual_bound, _kkt_residuals, _reduced_costs, _slack_rows
from conftest import SHOCK_CFG, random_desk_instance
from simplex_oracle import oracle_solve_lp


def random_lp_and_point(rng, n=None):
    """Random bounded LP and a known point strictly inside its inequality rows and bounds.

    The point also satisfies the equality rows, so the LP is never infeasible.
    """
    n = n or int(rng.integers(2, 8))
    m_eq = int(rng.integers(0, max(1, n // 2) + 1))
    m_ub = int(rng.integers(1, n + 2))
    x0 = rng.uniform(0.5, 2.0, size=n)
    a_eq = rng.normal(size=(m_eq, n)) if m_eq else None
    b_eq = a_eq @ x0 if m_eq else None
    a_ub = rng.normal(size=(m_ub, n))
    b_ub = a_ub @ x0 + rng.uniform(0.1, 2.0, size=m_ub)
    c = rng.normal(size=n)
    ub = rng.uniform(3.0, 8.0, size=n)  # box keeps everything bounded
    return LinearProgram(c=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub, ub=ub), x0


def random_lp(rng, n=None):
    """Random bounded LP with a known feasible point (so it is never infeasible)."""
    return random_lp_and_point(rng, n)[0]


# duplicate equality rows: rank-deficient but consistent
REDUNDANT_A_EQ = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [2.0, 2.0, 0.0]])
REDUNDANT_B_EQ = np.array([4.0, 4.0, 8.0])


def one_shot(lp):
    """One ``LpModel`` solve that changes no bounds."""
    return LpModel(lp).solve()


class TestSolveLp:
    """The LP entry points: ``solve_lp`` here, a one-shot ``LpModel`` in the subclass."""

    solve = staticmethod(solve_lp)

    def test_one_dimensional_bound(self):
        res = self.solve(LinearProgram(c=[1.0], a_ub=[[-1.0]], b_ub=[-3.0]))
        assert res.status == OPTIMAL
        assert res.x[0] == pytest.approx(3.0)
        assert res.ub_duals[0] == pytest.approx(1.0)

    def test_degenerate_redundant_equalities(self, rng):
        lp = LinearProgram(c=[1.0, 2.0, 0.5], a_eq=REDUNDANT_A_EQ, b_eq=REDUNDANT_B_EQ, ub=[10.0, 10.0, 10.0])
        res = self.solve(lp)
        assert res.status == OPTIMAL
        status, x, obj = oracle_solve_lp(lp)
        assert status == OPTIMAL
        assert res.objective == pytest.approx(obj, rel=1e-9)

    def test_infeasible(self):
        res = self.solve(LinearProgram(c=[1.0], a_ub=[[1.0], [-1.0]], b_ub=[0.0, -1.0]))
        assert res.status == INFEASIBLE

    def test_unbounded(self):
        res = self.solve(LinearProgram(c=[-1.0, 0.0], a_ub=[[0.0, 1.0]], b_ub=[1.0]))
        assert res.status == UNBOUNDED

    def test_matches_simplex_oracle_on_random_lps(self, rng):
        for _ in range(25):
            lp = random_lp(rng)
            res = self.solve(lp)
            status, x, obj = oracle_solve_lp(lp)
            assert res.status == status == OPTIMAL
            assert res.objective == pytest.approx(obj, rel=1e-6, abs=1e-8)

    def test_weak_duality_and_gap(self, rng):
        for _ in range(10):
            lp = random_lp(rng)
            res = self.solve(lp)
            assert res.status == OPTIMAL
            assert res.dual_objective <= res.objective + 1e-7 * (1 + abs(res.objective))
            assert res.objective - res.dual_objective <= 1e-6 * (1 + abs(res.objective))
            assert res.kkt["stationarity"] <= 1e-6
            assert res.kkt["feasibility"] <= 1e-7
            assert res.kkt["complementarity"] <= 1e-6 * (1 + abs(res.objective))


class TestLpModelOneShot(TestSolveLp):
    solve = staticmethod(one_shot)

    def test_empty_program_is_optimal(self):
        # HiGHS reports a model with no columns as empty, not as solved
        res = self.solve(LinearProgram(c=np.zeros(0)))
        assert res.status == OPTIMAL
        assert res.x.shape == res.eq_duals.shape == res.ub_duals.shape == (0,)
        assert res.objective == res.dual_objective == 0.0

    def test_empty_program_with_violated_row_is_infeasible(self):
        res = self.solve(LinearProgram(c=np.zeros(0), a_ub=np.zeros((1, 0)), b_ub=[-1.0]))
        assert res.status == INFEASIBLE


def random_entropy_program(rng, n=None):
    """Random entropy program and a strictly interior start point for it."""
    lp, x0 = random_lp_and_point(rng, n=n)
    n = lp.n
    lp.ub = np.full(n, np.inf)  # upper bounds go through a_ub rows for the barrier path
    weight = np.where(rng.random(n) < 0.6, rng.uniform(0.1, 3.0, size=n), 0.0)
    reference = rng.uniform(0.0, 3.0, size=n)
    shift = rng.uniform(0.01, 1.0, size=n)
    return EntropyRegularizedProgram(lp, weight, reference, shift), x0


class TestSolveEntropy:
    def test_reduces_to_lp_when_no_entropy_terms(self, rng):
        for _ in range(8):
            lp, x0 = random_lp_and_point(rng)
            lp.ub = np.full(lp.n, np.inf)
            prog = EntropyRegularizedProgram(lp, np.zeros(lp.n), np.zeros(lp.n), np.ones(lp.n))
            a = solve_lp(lp)
            if a.status == UNBOUNDED:
                continue  # random box removal can unbound the LP; skip those draws
            b = solve_entropy(prog, x0)
            assert b.status == OPTIMAL
            assert b.objective == pytest.approx(a.objective, rel=1e-6, abs=1e-6)

    def test_minimized_at_reference_when_unconstrained(self):
        prog = EntropyRegularizedProgram(LinearProgram(c=[0.0]), [1.0], [2.0], [1.0])
        res = solve_entropy(prog, np.array([1.0]))
        assert res.status == OPTIMAL
        assert res.x[0] == pytest.approx(2.0, abs=1e-6)
        assert res.objective == pytest.approx(0.0, abs=1e-9)

    def test_matches_golden_section_oracle_in_one_dimension(self, rng):
        for _ in range(10):
            c = float(rng.normal())
            w = float(rng.uniform(0.2, 3.0))
            r = float(rng.uniform(0.0, 3.0))
            s = float(rng.uniform(0.05, 1.0))
            hi = float(rng.uniform(1.0, 6.0))
            prog = EntropyRegularizedProgram(
                LinearProgram(c=[c], a_ub=[[1.0]], b_ub=[hi]), [w], [r], [s]
            )
            res = solve_entropy(prog, np.array([0.5 * hi]))
            assert res.status == OPTIMAL

            def f(v):
                return c * v + w * ((v + s) * np.log((v + s) / (r + s)) + r - v)

            lo, up = 0.0, hi
            golden = (np.sqrt(5.0) - 1.0) / 2.0
            a, b = lo, up
            x1, x2 = b - golden * (b - a), a + golden * (b - a)
            for _ in range(200):
                if f(x1) < f(x2):
                    b, x2 = x2, x1
                    x1 = b - golden * (b - a)
                else:
                    a, x1 = x1, x2
                    x2 = a + golden * (b - a)
            v_star = 0.5 * (a + b)
            assert res.objective == pytest.approx(f(v_star), rel=1e-6, abs=1e-6)
            assert res.x[0] == pytest.approx(v_star, abs=1e-5)

    def test_entropy_gradient_matches_finite_differences(self, rng):
        prog, _ = random_entropy_program(rng, n=6)
        for _ in range(100):
            v = rng.uniform(0.05, 4.0, size=6)
            g = entropy_gradient(prog, v)
            h = 1e-6
            for j in range(6):
                e = np.zeros(6)
                e[j] = h
                fd = (entropy_value(prog, v + e) - entropy_value(prog, v - e)) / (2 * h)
                assert g[j] == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_weak_duality_and_kkt(self, rng):
        for _ in range(10):
            prog, x0 = random_entropy_program(rng)
            res = solve_entropy(prog, x0)
            if res.status != OPTIMAL:
                continue
            assert res.dual_objective <= res.objective + 1e-8 * (1 + abs(res.objective))
            assert res.objective - res.dual_objective <= 1e-5 * (1 + abs(res.objective))
            assert res.kkt["stationarity"] <= 1e-7 * (1 + np.abs(prog.lp.c).max())
            assert res.kkt["feasibility"] <= 1e-7

    def test_deterministic_bit_identical(self, rng):
        inst, slots = workload.build_instance(dataclasses.replace(SHOCK_CFG, shock_level=100.0), 0)
        desk = build_subproblem(SlotLayout(inst, slots[0]), np.zeros((inst.num_vnfs, inst.num_datacenters)))
        assert len(_ArrowSystem(_slack_rows(desk[0].lp)[0], desk[0].lp.b_eq.size).rows) >= 3
        for prog, x0 in (random_entropy_program(rng), desk):
            r1 = solve_entropy(prog, x0)
            r2 = solve_entropy(prog, x0)
            np.testing.assert_array_equal(r1.x, r2.x)
            assert r1.objective == r2.objective
            np.testing.assert_array_equal(r1.eq_duals, r2.eq_duals)
            np.testing.assert_array_equal(r1.ub_duals, r2.ub_duals)

    def test_rank_deficient_equalities_raise(self):
        # the Newton step needs full row rank; nothing falls back to least squares
        lp = LinearProgram(c=[1.0, 2.0, 0.5], a_eq=REDUNDANT_A_EQ, b_eq=REDUNDANT_B_EQ, a_ub=np.eye(3),
                           b_ub=[10.0, 10.0, 10.0])
        prog = EntropyRegularizedProgram(lp, np.ones(3), np.ones(3), np.ones(3))
        with pytest.raises(np.linalg.LinAlgError):
            solve_entropy(prog, np.array([2.0, 2.0, 1.0]))

    def test_rejects_infinite_lower_bounds(self):
        lp = LinearProgram(c=[1.0], lb=[-np.inf])
        prog = EntropyRegularizedProgram(lp, [0.0], [0.0], [1.0])
        with pytest.raises(ValueError):
            solve_entropy(prog, np.array([0.0]))

    @pytest.mark.parametrize(
        "x0",
        [[0.0, 0.5], [0.5, 0.0], [1.5, 1.0], [1.0, 1.0]],
        ids=["on-lower-bound", "on-other-lower-bound", "violates-row", "on-row"],
    )
    def test_rejects_start_point_not_strictly_interior(self, x0):
        # the start point is the only way in: it must sit strictly inside every bound and row
        prog = EntropyRegularizedProgram(LinearProgram(c=[1.0, -1.0], a_ub=[[1.0, 1.0]], b_ub=[2.0]),
                                         [1.0, 0.0], [0.5, 0.0], [0.1, 1.0])
        with pytest.raises(ValueError, match="strictly interior"):
            solve_entropy(prog, np.array(x0))
        assert solve_entropy(prog, np.array([0.5, 0.5])).status == OPTIMAL


def dense_direction(a, d, rhs):
    """The Newton direction from the dense system matrix, the reference for the block-arrow solve."""
    a = a.toarray()
    return np.linalg.solve(a @ np.diag(d) @ a.T, rhs)


def assert_arrow_matches_dense(a, m_eq, rng):
    # one factorization serves several right-hand sides, as the predictor and corrector share it
    d = np.exp(rng.uniform(-3.0, 3.0, size=a.shape[1]))
    factor = _ArrowSystem(a, m_eq).factor(d)
    for rhs in rng.normal(size=(2, a.shape[0])):
        got = factor.solve(rhs)
        want = dense_direction(a, d, rhs)
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-9 * np.max(np.abs(want), initial=1.0)


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1))
def test_block_arrow_direction_matches_dense_solve(seed):
    # slot subproblems, some with zero-rent counts whose caps join the border
    rng = np.random.default_rng(seed)
    inst, slots = random_desk_instance(rng, max_dc=4, max_vnfs=3, max_flows=4, max_slots=1)
    free = rng.random(size=slots[0].run_costs.shape) < 0.3
    slot = dataclasses.replace(slots[0], run_costs=np.where(free, 0.0, slots[0].run_costs))
    prev_q = rng.uniform(0.0, 3.0, size=(inst.num_vnfs, inst.num_datacenters))
    prog, _ = build_subproblem(SlotLayout(inst, slot), prev_q)
    a, _ = _slack_rows(prog.lp)
    assert_arrow_matches_dense(a, prog.lp.b_eq.size, rng)


EDGE_SHAPES = [
    (np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 2.0, 1.0]]), 2),  # two blocks, no border
    (np.array([[1.0, 1.0, 0.0, 1.0], [0.0, 1.0, 2.0, 0.0]]), 0),  # border only
    (np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 1.0, 2.0, 0.0], [1.0, 0.0, 1.0, 1.0]]), 2),  # one block
]


@pytest.mark.parametrize("a, m_eq", EDGE_SHAPES, ids=["empty-border", "no-equality-rows", "single-component"])
def test_block_arrow_edge_cases(a, m_eq, rng):
    a = sp.csr_matrix(a)
    arrow = _ArrowSystem(a, m_eq)
    assert sum(rows.size for rows in arrow.rows) == m_eq and arrow.border.size == a.shape[0] - m_eq
    assert_arrow_matches_dense(a, m_eq, rng)


def reference_slack_rows(lp):
    """``[A_eq 0; A_ub I]`` stacked block by block."""
    m_eq, m_ub = lp.a_eq.shape[0], lp.a_ub.shape[0]
    return sp.vstack([sp.hstack([lp.a_eq, sp.csr_matrix((m_eq, m_ub))]), sp.hstack([lp.a_ub, sp.identity(m_ub)])]).tocsr()


def test_slack_rows_match_the_stacked_blocks():
    # a desk subproblem, and the edge shapes split into equality and inequality rows
    inst, slots = workload.build_instance(dataclasses.replace(SHOCK_CFG, shock_level=100.0), 0)
    lps = [build_subproblem(SlotLayout(inst, slots[0]), np.zeros((inst.num_vnfs, inst.num_datacenters)))[0].lp]
    for a, m_eq in EDGE_SHAPES:
        m_ub = a.shape[0] - m_eq
        lps.append(LinearProgram(c=np.zeros(a.shape[1]), a_eq=a[:m_eq] if m_eq else None,
                                 b_eq=np.zeros(m_eq), a_ub=a[m_eq:] if m_ub else None, b_ub=np.zeros(m_ub)))
    for lp in lps:
        got, b = _slack_rows(lp)
        want = reference_slack_rows(lp)
        assert got.shape == want.shape
        for part in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(got, part), getattr(want, part))
        np.testing.assert_array_equal(b, np.concatenate([lp.b_eq, lp.b_ub]))


def test_block_arrow_structure_on_the_mid_slot():
    # one block per active flow: a layout change that couples flows would
    # collapse the arrow into one dense block without failing anything else
    inst, slots = workload.build_instance(workload.WorkloadConfig(num_datacenters=10, num_chains=10, horizon=12), 3)
    layout = SlotLayout(inst, slots[1])
    prog, _ = build_subproblem(layout, np.zeros((inst.num_vnfs, inst.num_datacenters)))
    a, _ = _slack_rows(prog.lp)
    arrow = _ArrowSystem(a, prog.lp.b_eq.size)
    I = inst.num_datacenters
    # its arrival-rate row and one balance row per intermediate position and datacenter
    sizes = sorted(1 + max(len(inst.chain_of(k)) - 2, 0) * I for k in layout.rates.active)
    assert len(layout.rates.active) > 1 and max(sizes) > 1
    assert sorted(rows.size for rows in arrow.rows) == sizes
    caps, _ = orfa._count_caps(layout, np.zeros((inst.num_vnfs, I)))
    assert arrow.border.size == inst.num_vnfs * I + caps.size


def test_cold_large_slot():
    # a cold 30 x 30 slot (seed 3, slot 0): flow blocks of 1, 31 and 61 rows,
    # solved from the even spread in a bounded number of Newton steps
    inst, slots = workload.build_instance(workload.WorkloadConfig(num_datacenters=30, num_chains=30, horizon=2), 3)
    layout = SlotLayout(inst, slots[0])
    I = inst.num_datacenters
    prog, start = build_subproblem(layout, np.zeros((inst.num_vnfs, I)))
    a, _ = _slack_rows(prog.lp)
    arrow = _ArrowSystem(a, prog.lp.b_eq.size)
    sizes = sorted(1 + max(len(inst.chain_of(k)) - 2, 0) * I for k in layout.rates.active)
    assert sorted(rows.size for rows in arrow.rows) == sizes and max(sizes) > I

    result = solve_entropy(prog, start, tol=orfa.TOL)
    assert result.status == OPTIMAL and result.iterations <= 25
    residuals = plan_residuals(inst, slots[0], layout.unpack(result.x), layout.rates)
    scale = 1.0 + float(slots[0].rates.max())
    assert max(residuals.values()) <= 1e-6 * scale, residuals


def counted_newton_steps(monkeypatch):
    """A list that gains each ``orfa`` subproblem solve's Newton step count."""
    steps = []

    def counted(prog, x0, **kwargs):
        result = solve_entropy(prog, x0, **kwargs)
        steps.append(result.iterations)
        return result

    monkeypatch.setattr(orfa, "solve_entropy", counted)
    return steps


def test_newton_steps_over_the_mid_horizon(monkeypatch):
    # a step count, not a wall time: the 12 mid subproblems, each started
    # from the counts the slot before it chose
    steps = counted_newton_steps(monkeypatch)
    inst, slots = workload.build_instance(workload.WorkloadConfig(num_datacenters=10, num_chains=10, horizon=12), 3)
    run_online(inst, slots, 0, {})
    assert len(steps) == 12
    assert sum(steps) <= 160, steps


def test_newton_steps_over_the_desk_horizons(monkeypatch):
    # the desk twin: 96 small subproblems, 12 slots for each of 8 seeds
    steps = counted_newton_steps(monkeypatch)
    for seed in range(8):
        inst, slots = workload.build_instance(dataclasses.replace(SHOCK_CFG, shock_level=100.0), seed)
        run_online(inst, slots, 0, {})
    assert len(steps) == 96
    assert sum(steps) <= 1400 and max(steps) <= 20, steps


def test_warm_resolves_match_cold_solves():
    # one model replays a branch-and-bound walk over the count columns: branch
    # down, branch up, an infeasible node (no instance may run in the first
    # slot), then the root again; a bound left over from an earlier node
    # would change the last objective
    inst, slots = workload.build_instance(dataclasses.replace(SHOCK_CFG, shock_level=100.0), 0)
    prog = HorizonProgram(inst, slots)
    cols = prog.q_cols
    root_lb, root_ub = prog.lp.lb[cols], prog.lp.ub[cols]
    model = LpModel(prog.lp)
    root = model.solve(cols, root_lb, root_ub)
    assert root.status == OPTIMAL
    q = root.x[cols]
    j = int(np.argmax(np.abs(q - np.round(q))))
    assert abs(q[j] - np.round(q[j])) > 1e-6
    down_ub, up_lb, empty_ub = root_ub.copy(), root_lb.copy(), root_ub.copy()
    down_ub[j], up_lb[j] = np.floor(q[j]), np.floor(q[j]) + 1
    empty_ub[: inst.num_vnfs * inst.num_datacenters] = 0.0
    steps = [(root_lb, down_ub), (up_lb, root_ub), (root_lb, empty_ub), (root_lb, root_ub)]
    statuses = []
    for lower, upper in steps:
        warm = model.solve(cols, lower, upper)
        lb, ub = prog.lp.lb.copy(), prog.lp.ub.copy()
        lb[cols], ub[cols] = lower, upper
        cold = solve_lp(dataclasses.replace(prog.lp, lb=lb, ub=ub))
        statuses.append(warm.status)
        assert warm.status == cold.status
        if warm.status == OPTIMAL:
            assert warm.objective == pytest.approx(cold.objective, rel=1e-9)
            # the duals are optimal: their bound meets the objective, up to rounding in the dual sum
            assert abs(warm.dual_objective - warm.objective) <= 1e-9 * (1 + abs(warm.objective))
    assert statuses == [OPTIMAL, OPTIMAL, INFEASIBLE, OPTIMAL]
    assert warm.objective == pytest.approx(root.objective, rel=1e-9)


def reference_dual_bound(lp, weight, reference, shift, y, lam):
    """The Lagrangian dual value minimized one coordinate at a time."""
    ct = lp.c + lp.eq_matrix().T @ y + lp.ub_matrix().T @ lam
    total = 0.0
    for j in range(lp.n):
        lo, hi = lp.lb[j], lp.ub[j]
        if weight[j] > 0:
            w, r, s = weight[j], reference[j], shift[j]
            v = min(max((r + s) * np.exp(-ct[j] / w) - s, lo), hi)
            total += ct[j] * v + w * ((v + s) * np.log((v + s) / (r + s)) + r - v)
        elif abs(ct[j]) > 1e-11:
            bound = lo if ct[j] > 0 else hi
            if not np.isfinite(bound):
                return -np.inf
            total += ct[j] * bound
    return total - y @ lp.b_eq - lam @ lp.b_ub


def test_dual_bound_matches_coordinatewise_reference(rng):
    from chainscale.solver import _dual_bound

    unbounded = 0
    for _ in range(40):
        prog, _ = random_entropy_program(rng)
        lp = prog.lp
        if rng.random() < 0.5:  # finite upper bounds on some coordinates
            lp.ub = np.where(rng.random(lp.n) < 0.5, rng.uniform(3.0, 8.0, size=lp.n), np.inf)
        y = rng.normal(size=lp.b_eq.size)
        lam = rng.uniform(0.0, 1.0, size=lp.b_ub.size)
        got = _dual_bound(lp, prog.weight, prog.reference, prog.shift, y, lam)
        want = reference_dual_bound(lp, prog.weight, prog.reference, prog.shift, y, lam)
        unbounded += want == -np.inf
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        # reduced costs passed in change nothing, also where lam has negative entries to clip
        for lam_k in (lam, lam - 0.5):
            ct = lp.c + lp.a_eq.T @ y + lp.a_ub.T @ lam_k
            assert _dual_bound(lp, prog.weight, prog.reference, prog.shift, y, lam_k, ct) == _dual_bound(
                lp, prog.weight, prog.reference, prog.shift, y, lam_k
            )
    assert 0 < unbounded < 40


def test_solve_lp_deterministic(rng):
    lp = random_lp(rng)
    for solve in (solve_lp, one_shot):
        a, b = solve(lp), solve(lp)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.eq_duals, b.eq_duals)
        assert a.objective == b.objective


def test_entropy_shift_must_be_positive_where_weighted():
    with pytest.raises(ValueError):
        EntropyRegularizedProgram(LinearProgram(c=[0.0]), [1.0], [0.0], [0.0])


def test_newton_structure_reuse_matches_cold_solves(monkeypatch):
    # solve_entropy keeps the symbolic analysis of the last rows it factored:
    # a solve served that analysis gives the bits of a fresh one, and rows
    # with the same pattern but other values are analysed afresh
    analyses = []

    class CountedArrowSystem(_ArrowSystem):
        def __init__(self, a, m_eq):
            analyses.append(m_eq)
            super().__init__(a, m_eq)

    monkeypatch.setattr(solver, "_ArrowSystem", CountedArrowSystem)
    inst, slots = workload.build_instance(dataclasses.replace(SHOCK_CFG, shock_level=100.0), 0)
    zeros = np.zeros((inst.num_vnfs, inst.num_datacenters))
    layouts = [SlotLayout(inst, s) for s in slots]
    other = next(lay for lay in layouts if lay.rates.active != layouts[0].rates.active)
    prog_a, start_a = build_subproblem(layouts[0], zeros)
    lp = prog_a.lp
    scaled = dataclasses.replace(prog_a, lp=dataclasses.replace(lp, a_eq=2.0 * lp.a_eq, b_eq=2.0 * lp.b_eq))
    for part in ("indptr", "indices"):
        np.testing.assert_array_equal(getattr(scaled.lp.a_eq, part), getattr(lp.a_eq, part))
    programs = {"a": (prog_a, start_a), "b": build_subproblem(other, zeros), "scaled": (scaled, start_a)}

    def solve(name):
        return solve_entropy(*programs[name], tol=orfa.TOL)

    cold = {}
    for name in programs:
        monkeypatch.setattr(solver, "_last_rows", None)
        cold[name] = solve(name)
    monkeypatch.setattr(solver, "_last_rows", None)
    analyses.clear()
    counts = []
    for name in ("a", "a", "b", "a", "scaled", "a", "a"):
        got, want = solve(name), cold[name]
        counts.append(len(analyses))
        assert got.status == want.status == OPTIMAL
        for part in ("x", "eq_duals", "ub_duals"):
            np.testing.assert_array_equal(getattr(got, part), getattr(want, part))
        assert (got.iterations, got.objective, got.kkt) == (want.iterations, want.objective, want.kkt)
    assert counts == [1, 1, 2, 3, 4, 5, 5]


class TestDiagnosticsOnRead:
    """An LP result's multipliers, dual bound and KKT record, built on first read, equal the eager ones bit for bit."""

    @pytest.fixture
    def eager(self, monkeypatch):
        """Every LP result of the test, paired with its multipliers and diagnostics computed eagerly at its solve.

        The eager computation converts HiGHS's row and column duals at once,
        then runs ``_reduced_costs``, ``_dual_bound`` and ``_kkt_residuals``
        on a copy of the bounds the solve had.
        """
        seen = []
        lazy = solver._lp_solution

        def recording(lp, x, objective, solution, iterations):
            res = lazy(lp, x, objective, solution, iterations)
            solved = dataclasses.replace(lp, lb=lp.lb.copy(), ub=lp.ub.copy())
            row_dual = np.asarray(solution.row_dual, dtype=float)
            col_dual = np.asarray(solution.col_dual, dtype=float)
            m_ub = lp.a_ub.shape[0]
            y, lam = -row_dual[m_ub:], -row_dual[:m_ub]
            ct = _reduced_costs(solved, solved.c, y, lam)
            z_lo, z_hi = np.maximum(col_dual, 0.0), np.maximum(-col_dual, 0.0)
            kkt = _kkt_residuals(solved, ct, np.asarray(x, dtype=float), lam, z_lo, z_hi)
            seen.append((res, y, lam, _dual_bound(solved, None, None, None, y, lam, ct), kkt))
            return res

        monkeypatch.setattr(solver, "_lp_solution", recording)
        return seen

    @staticmethod
    def assert_bit_identical(seen):
        assert seen
        for res, y, lam, dual, kkt in seen:
            assert [v.hex() for v in res.eq_duals] == [v.hex() for v in y]
            assert [v.hex() for v in res.ub_duals] == [v.hex() for v in lam]
            assert res.dual_objective.hex() == dual.hex()
            assert res.kkt.keys() == kkt.keys()
            assert all(res.kkt[key].hex() == kkt[key].hex() for key in kkt)

    @pytest.mark.parametrize("solve", [solve_lp, one_shot], ids=["solve_lp", "one-shot"])
    def test_one_shot_solves(self, eager, solve):
        # the optimal cases of TestSolveLp and TestLpModelOneShot, read only once all are solved
        rng = np.random.default_rng(20240817)
        lps = [
            LinearProgram(c=[1.0], a_ub=[[-1.0]], b_ub=[-3.0]),
            LinearProgram(c=[1.0, 2.0, 0.5], a_eq=REDUNDANT_A_EQ, b_eq=REDUNDANT_B_EQ, ub=[10.0, 10.0, 10.0]),
        ] + [random_lp(rng) for _ in range(35)]
        if solve is one_shot:
            lps.append(LinearProgram(c=np.zeros(0)))
        for lp in lps:
            assert solve(lp).status == OPTIMAL
        assert len(eager) == len(lps)
        self.assert_bit_identical(eager)

    def test_warm_walk_read_after_later_solves(self, eager):
        # the walk of test_warm_resolves_match_cold_solves on one model; no
        # result's multipliers or diagnostics are read before the model has
        # moved its bounds and solved again
        inst, slots = workload.build_instance(dataclasses.replace(SHOCK_CFG, shock_level=100.0), 0)
        prog = HorizonProgram(inst, slots)
        cols = prog.q_cols
        root_lb, root_ub = prog.lp.lb[cols], prog.lp.ub[cols]
        model = LpModel(prog.lp)
        q = model.solve(cols, root_lb, root_ub).x[cols]
        j = int(np.argmax(np.abs(q - np.round(q))))
        down_ub, up_lb, empty_ub = root_ub.copy(), root_lb.copy(), root_ub.copy()
        down_ub[j], up_lb[j] = np.floor(q[j]), np.floor(q[j]) + 1
        empty_ub[: inst.num_vnfs * inst.num_datacenters] = 0.0
        statuses = [model.solve(cols, lower, upper).status
                    for lower, upper in [(root_lb, down_ub), (up_lb, root_ub), (root_lb, empty_ub), (root_lb, root_ub)]]
        assert statuses == [OPTIMAL, OPTIMAL, INFEASIBLE, OPTIMAL]
        assert len(eager) == 4  # the root twice, then the two children
        self.assert_bit_identical(eager)
