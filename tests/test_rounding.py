import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainscale.clustering import ClusterSet, cluster
from chainscale.rounding import (
    INTEGRAL_TOL,
    IntegerPlan,
    StarGraph,
    init_stars,
    owdr,
    resolve_probabilities,
)
from conftest import build_instance, make_slots, single_vnf_instance


def two_cluster_instance(rng, caps=((10.0, 10.0, 8.0, 12.0),)):
    # datacenters 0,1 and 2,3 form two clusters (delays from the derived fixture)
    d = np.zeros((6, 6))
    pairs = {(0, 1): 1, (2, 3): 1, (0, 2): 16, (0, 3): 20, (1, 2): 20, (1, 3): 30}
    for (i, j), v in pairs.items():
        d[i, j] = d[j, i] = v
    d[4, :4] = d[:4, 4] = [3, 4, 17, 21]
    d[5, :4] = d[:4, 5] = [18, 22, 2, 3]
    d[4, 5] = d[5, 4] = 19
    caps = [list(c) for c in caps]
    return build_instance(
        4,
        vnf_caps=caps,
        deploy_costs=[[1.0] * 4 for _ in caps],
        chains=[((m,), (1.0,)) for m in range(len(caps))],
        flows=[(0, 1, 0)],
        delays=d,
        rng=rng,
    )


class TestInitStars:
    def test_integral_counts_leave_no_edges(self, rng):
        inst = two_cluster_instance(rng)
        clusters = cluster(inst.dc_delays())
        slots = make_slots(inst, [[5.0]])
        stars = init_stars(inst, slots[0], np.array([[2.0, 0.0, 1.0, 3.0]]), clusters)
        assert all(star.edges == () for star in stars)

    def test_fractional_part_is_degree_contribution(self, rng):
        # equal capacities: an edge with count 1.5 contributes 0.5 to the buffer degree
        inst = two_cluster_instance(rng, caps=((10.0, 10.0, 10.0, 10.0),))
        clusters = cluster(inst.dc_delays())
        run_costs = np.array([[1.0, 2.0, 1.0, 2.0]])  # buffers: 0 and 2
        slots = make_slots(inst, [[5.0]], run_costs=run_costs)
        stars = init_stars(inst, slots[0], np.array([[2.0, 1.5, 1.0, 0.25]]), clusters)
        by_buffer = {star.buffer: star for star in stars}
        star01 = by_buffer[0]
        assert star01.edges == (1,)
        assert star01.p == (0.5,)
        assert tuple(w * p for w, p in zip(star01.w, star01.p)) == (0.5,)
        assert star01.degree == pytest.approx(0.5)
        star23 = by_buffer[2]
        assert star23.edges == (3,)
        assert star23.p == (0.25,)

    def test_capacity_ratio_weights(self, rng):
        inst = two_cluster_instance(rng, caps=((10.0, 5.0, 8.0, 12.0),))
        clusters = cluster(inst.dc_delays())
        run_costs = np.array([[1.0, 1.0, 1.0, 1.0]])  # ties: cheapest per capacity wins
        slots = make_slots(inst, [[5.0]], run_costs=run_costs)
        # c/b: dc0 0.1, dc1 0.2 -> buffer 0; dc2 0.125, dc3 1/12 -> buffer 3
        stars = init_stars(inst, slots[0], np.array([[0.3, 1.5, 2.5, 0.75]]), clusters)
        by_buffer = {star.buffer: star for star in stars}
        assert set(by_buffer) == {0, 3}
        star0 = by_buffer[0]
        assert star0.w == (5.0 / 10.0,)
        star3 = by_buffer[3]
        assert star3.edges == (2,)
        assert star3.w == (8.0 / 12.0,)

    def test_cost_per_capacity_tie_takes_lowest_id(self, rng):
        inst = two_cluster_instance(rng, caps=((10.0, 10.0, 10.0, 10.0),))
        clusters = cluster(inst.dc_delays())
        slots = make_slots(inst, [[5.0]], run_costs=np.ones((1, 4)))
        stars = init_stars(inst, slots[0], np.zeros((1, 4)), clusters)
        assert sorted(star.buffer for star in stars) == [0, 2]


class TestResolveProbabilities:
    def test_two_equal_edges_resolve_oppositely(self):
        outcomes = set()
        ups = 0
        trials = 4000
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            log = []
            p = resolve_probabilities([0.5, 0.5], [1.0, 1.0], rng, degree_log=log)
            outcomes.add(tuple(p))
            ups += p[0]
            for d in log:
                assert d == pytest.approx(1.0, abs=1e-12)  # degree w*(p1+p2) stays w = 1
        assert outcomes == {(1.0, 0.0), (0.0, 1.0)}
        assert ups / trials == pytest.approx(0.5, abs=0.03)

    def test_single_iteration_moves_have_zero_mean(self):
        p0 = [0.3, 0.6]
        w = [1.0, 2.0]
        k1 = min(1 - 0.3, 0.6 * 2.0 / 1.0)  # 0.7
        k2 = min(0.3, (1 - 0.6) * 2.0 / 1.0)  # 0.3
        moved = []
        for seed in range(6000):
            rng = np.random.default_rng(seed)
            u = rng.random()
            p1 = p0[0] + k1 if u < k2 / (k1 + k2) else p0[0] - k2
            moved.append(p1 - p0[0])
        assert np.mean(moved) == pytest.approx(0.0, abs=0.01)

    def test_degree_preserved_through_all_iterations(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 6))
            p = rng.uniform(0.05, 0.95, size=n).tolist()
            w = rng.uniform(0.3, 3.0, size=n).tolist()
            start = sum(wi * pi for wi, pi in zip(w, p))
            log = []
            final = resolve_probabilities(p, w, np.random.default_rng(int(rng.integers(1 << 30))), degree_log=log)
            assert all(v in (0.0, 1.0) for v in final)
            prev = start
            for d in log:
                assert abs(d - prev) <= 1e-9  # per-iteration drift
                prev = d


class Unscripted(Exception):
    """A draw past the end of a ``ScriptedRng``'s script."""


class ScriptedRng:
    """A stand-in generator whose draws take a fixed script of branches.

    Each ``random()`` returns a draw whose ``<`` against a threshold answers
    the next scripted branch (True: the draw fell below) and records that
    branch's probability under a uniform draw: the threshold, or one minus
    it.  A draw past the end of the script raises ``Unscripted``.
    """

    def __init__(self, script):
        self.script, self.taken = script, []

    def random(self):
        if len(self.taken) == len(self.script):
            raise Unscripted
        rng = self

        class Draw:
            def __lt__(self, threshold):
                below = rng.script[len(rng.taken)]
                rng.taken.append(threshold if below else 1.0 - threshold)
                return below

        return Draw()


def every_branch(p, w):
    """Every path of ``resolve_probabilities(p, w)``: (probability, resolved values, degree log)."""
    paths, scripts = [], [()]
    while scripts:
        script = scripts.pop()
        rng, log = ScriptedRng(script), []
        try:
            final = resolve_probabilities(p, w, rng, degree_log=log)
        except Unscripted:
            scripts += [script + (True,), script + (False,)]
            continue
        paths.append((math.prod(rng.taken), final, log))
    return paths


@settings(max_examples=100)
@given(edges=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), st.floats(1e-3, 1e3)),
                      min_size=1, max_size=5))
def test_exact_marginals_over_every_branch(edges):
    # weighting each path of the walk by its probability gives the exact
    # expectation: every edge resolves to 1 with probability exactly p, and
    # the weighted degree holds on every path until the terminal draw
    p, w = [e[0] for e in edges], [e[1] for e in edges]
    degree = sum(wi * pi for wi, pi in zip(w, p))
    paths = every_branch(p, w)
    assert sum(prob for prob, _, _ in paths) == pytest.approx(1.0, abs=1e-12)
    for j, pj in enumerate(p):
        assert abs(sum(prob * final[j] for prob, final, _ in paths) - pj) <= 1e-12
    # the walk snaps a value within 1e-12 of 0 or 1 onto it, once per edge at most
    snap = 1e-12 * sum(w)
    for _, final, log in paths:
        assert all(v in (0.0, 1.0) for v in final)
        for d in log:
            assert abs(d - degree) <= 1e-9 * degree + snap


class TestOwdr:
    def test_all_integral_is_deterministic_identity(self, rng):
        inst = two_cluster_instance(rng)
        clusters = cluster(inst.dc_delays())
        slots = make_slots(inst, [[5.0]])
        q = np.array([[2.0, 0.0, 1.0, 3.0]])
        stars = init_stars(inst, slots[0], q, clusters)
        for seed in (0, 1, 99):
            np.testing.assert_array_equal(owdr(stars, q, np.random.default_rng(seed)), q.astype(int))

    def test_single_fractional_count_marginal(self, rng):
        inst = two_cluster_instance(rng, caps=((10.0, 10.0, 10.0, 10.0),))
        clusters = cluster(inst.dc_delays())
        run_costs = np.array([[1.0, 2.0, 1.0, 2.0]])
        slots = make_slots(inst, [[5.0]], run_costs=run_costs)
        q = np.array([[1.0, 2.3, 1.0, 2.0]])
        stars = init_stars(inst, slots[0], q, clusters)
        root = np.random.default_rng(42)
        ups = 0
        trials = 4000
        for child in root.spawn(trials):
            q_int = owdr(stars, q, child)
            assert q_int[0, 1] in (2, 3)
            ups += q_int[0, 1] == 3
        se = math.sqrt(0.3 * 0.7 / trials)
        assert abs(ups / trials - 0.3) <= 3 * se

    def test_buffer_count_is_ceiling_of_count_plus_degree(self, rng):
        inst = two_cluster_instance(rng, caps=((10.0, 10.0, 10.0, 10.0),))
        clusters = cluster(inst.dc_delays())
        run_costs = np.array([[1.0, 2.0, 1.0, 2.0]])
        slots = make_slots(inst, [[5.0]], run_costs=run_costs)
        q = np.array([[0.6, 1.5, 0.2, 0.7]])  # buffers 0 and 2 hold fractional counts too
        stars = init_stars(inst, slots[0], q, clusters)
        expected = {star.buffer: math.ceil(q[0, star.buffer] + star.degree - 1e-9) for star in stars}
        root = np.random.default_rng(7)
        for child in root.spawn(300):
            q_int = owdr(stars, q, child)
            for buf, want in expected.items():
                assert q_int[0, buf] == want

    def test_aggregate_capacity_never_drops(self, rng):
        # heterogeneous capacities and a fractional buffer: rounded capacity must
        # dominate fractional capacity in every single trial
        inst = two_cluster_instance(rng, caps=((10.0, 5.0, 8.0, 12.0),))
        clusters = cluster(inst.dc_delays())
        slots = make_slots(inst, [[5.0]], run_costs=np.ones((1, 4)))
        root = np.random.default_rng(11)
        for _ in range(50):
            q = np.round(np.asarray(root.uniform(0.0, 3.0, size=(1, 4))), 3)
            stars = init_stars(inst, slots[0], q, clusters)
            frac_cap = float((q * inst.capacity).sum())
            for child in root.spawn(40):
                q_int = owdr(stars, q, child)
                got = float((q_int * inst.capacity).sum())
                assert got >= frac_cap - 1e-9
                assert np.all(q_int >= 0)
                assert q_int.dtype.kind == "i"

    def test_expected_count_matches_fraction_everywhere(self, rng):
        inst = two_cluster_instance(rng, caps=((10.0, 10.0, 10.0, 10.0),))
        clusters = cluster(inst.dc_delays())
        run_costs = np.array([[1.0, 2.0, 3.0, 4.0]])
        slots = make_slots(inst, [[5.0]], run_costs=run_costs)
        q = np.array([[1.4, 0.7, 2.2, 0.5]])  # buffer 0 and 2; edges at 1 and 3
        stars = init_stars(inst, slots[0], q, clusters)
        trials = 6000
        counts = np.zeros((1, 4))
        root = np.random.default_rng(5)
        for child in root.spawn(trials):
            counts += owdr(stars, q, child)
        for i in (1, 3):  # non-buffer fractional datacenters follow the marginal law
            frac = q[0, i] - math.floor(q[0, i])
            se = math.sqrt(frac * (1 - frac) / trials)
            assert abs(counts[0, i] / trials - q[0, i]) <= 4 * se


def generated_stars(seed: int, spread: float):
    """Stars over a random instance and plan; capacities within a cluster differ by up to 10**spread.

    Returns ``(inst, clusters, frac_q, stars)``.  Counts are fractional,
    integral or zero, and every datacenter falls in one of 1–2 clusters.
    """
    rng = np.random.default_rng(seed)
    I, M = int(rng.integers(2, 9)), int(rng.integers(1, 4))
    caps = 10.0 ** rng.uniform(-spread / 2, spread / 2, size=(M, I))
    inst = build_instance(I, caps.tolist(), np.ones((M, I)).tolist(), [((m,), (1.0,)) for m in range(M)],
                          [(0, 1, 0)], rng=rng)
    label = rng.integers(0, int(rng.integers(1, 3)), size=I)
    members = tuple(tuple(int(i) for i in np.flatnonzero(label == c)) for c in np.unique(label))
    clusters = ClusterSet(members, 0.0, members)
    frac_q = rng.uniform(0.0, 4.0, size=(M, I))
    kind = rng.random(size=(M, I))
    frac_q = np.where(kind < 0.2, np.floor(frac_q), np.where(kind < 0.3, 0.0, frac_q))
    # rent per unit capacity, which picks the buffer, is independent of the capacity
    slot = make_slots(inst, [[1.0]], run_costs=caps * rng.uniform(0.5, 2.0, size=(M, I)))[0]
    return inst, clusters, frac_q, init_stars(inst, slot, frac_q, clusters)


STAR_SETTINGS = settings(max_examples=60)
STARS = dict(seed=st.integers(0, 2**32 - 1), spread=st.floats(0.0, 3.0))


@STAR_SETTINGS
@given(**STARS)
def test_coupled_walk_keeps_the_weighted_degree(seed, spread):
    _, _, _, stars = generated_stars(seed, spread)
    for k, star in enumerate(stars):
        log = []
        final = resolve_probabilities(star.p, star.w, np.random.default_rng([seed, k]), degree_log=log)
        assert all(v in (0.0, 1.0) for v in final)
        for degree in log:
            assert abs(degree - star.degree) <= 1e-9 * star.degree


@STAR_SETTINGS
@given(**STARS)
def test_owdr_buffer_capacity_and_sign(seed, spread):
    inst, clusters, frac_q, stars = generated_stars(seed, spread)
    for trial in range(5):
        q = owdr(stars, frac_q, np.random.default_rng([seed, trial]))
        assert np.all(q >= 0)
        for star in stars:
            m, buf = star.vnf, star.buffer
            assert q[m, buf] == math.ceil(frac_q[m, buf] + star.degree - INTEGRAL_TOL)
            cap = inst.capacity[m, list(star.members)]
            got, want = float(q[m, list(star.members)] @ cap), float(frac_q[m, list(star.members)] @ cap)
            # counts within INTEGRAL_TOL of an integer count as integral
            assert got >= want - INTEGRAL_TOL * float(cap.sum())

