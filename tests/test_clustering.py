import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainscale.clustering import ClusterSet, cluster, write_cluster_csv
from chainscale.workload import WorkloadConfig, generate_topology
from conftest import SHOCK_CFG


def sym(entries, n):
    d = np.zeros((n, n))
    for (i, j), v in entries.items():
        d[i, j] = d[j, i] = v
    return d


def test_two_datacenters_form_one_cluster():
    out = cluster(np.array([[0.0, 7.0], [7.0, 0.0]]))
    assert out.clusters == ((0, 1),)
    assert out.threshold == 7.0


def test_uniform_delays_single_cluster():
    n = 5
    d = np.full((n, n), 4.0)
    np.fill_diagonal(d, 0.0)
    out = cluster(d)
    assert out.clusters == (tuple(range(n)),)


def test_two_sites_split_when_median_separates():
    # pairwise delays: (0,1)=1, (2,3)=1, (0,2)=16, (0,3)=20, (1,2)=20, (1,3)=30
    # sorted [1, 1, 16, 20, 20, 30] -> median 18; only {0,1} and {2,3} stay within it
    d = sym({(0, 1): 1, (2, 3): 1, (0, 2): 16, (0, 3): 20, (1, 2): 20, (1, 3): 30}, 4)
    out = cluster(d)
    assert out.threshold == pytest.approx(18.0)
    assert out.clusters == ((0, 1), (2, 3))
    assert out.merged == ((0, 1), (2, 3))


def test_isolated_singleton_joins_nearest_by_worst_member():
    # ten pairwise delays sorted: [1,1,2,2,24,25,30,30,35,40] -> threshold 24.5;
    # {0,1} and {2,3} merge internally but not with each other (30 > 24.5), and
    # node 4 stays isolated (25, 24 vs {2,3} not BOTH within 24.5; 40, 35 vs {0,1});
    # it then joins the cluster minimizing its farthest member: {2,3} (25 < 40)
    d = sym(
        {(0, 1): 1, (2, 3): 1, (0, 2): 2, (0, 3): 2, (1, 2): 30, (1, 3): 30,
         (0, 4): 40, (1, 4): 35, (2, 4): 25, (3, 4): 24},
        5,
    )
    out = cluster(d)
    assert out.threshold == pytest.approx(24.5)
    assert out.merged == ((0, 1), (2, 3), (4,))
    assert out.clusters == ((0, 1), (2, 3, 4))
    # after folding the singleton, the intra-cluster delay may exceed the threshold
    assert np.max(d[np.ix_((2, 3, 4), (2, 3, 4))]) > out.threshold


def test_partition_property_random(rng):
    for _ in range(10):
        n = int(rng.integers(2, 12))
        pts = rng.uniform(0, 100, size=(n, 2))
        d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
        out = cluster(d)
        seen = sorted(i for c in out.clusters for i in c)
        assert seen == list(range(n))
        if n >= 2:
            assert all(len(c) >= 2 for c in out.clusters)
        # pre-merge clusters respect the threshold pairwise, exactly
        for c in out.merged:
            if len(c) > 1:
                assert np.max(d[np.ix_(c, c)]) <= out.threshold


def test_median_is_even_count_average():
    d = sym({(0, 1): 2, (0, 2): 4, (1, 2): 10}, 3)
    assert cluster(d).threshold == pytest.approx(4.0)
    d4 = sym({(0, 1): 1, (2, 3): 1, (0, 2): 16, (0, 3): 20, (1, 2): 20, (1, 3): 30}, 4)
    assert cluster(d4).threshold == pytest.approx((16 + 20) / 2)


def test_deterministic(rng):
    pts = rng.uniform(0, 100, size=(9, 2))
    d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
    assert cluster(d) == cluster(d)


def test_single_datacenter_is_one_cluster():
    # no pair sets a median threshold, and the median of no pairs would warn
    out = cluster(np.zeros((1, 1)))
    assert out.clusters == ((0,),)
    assert out.merged == ((0,),)
    assert out.threshold == 0.0


def loop_cluster(dc_delays):
    """Reference: the pair scan over member blocks that the linkage matrix replaced."""
    d = np.asarray(dc_delays, dtype=float)
    n = d.shape[0]
    if n == 1:
        return ClusterSet(((0,),), 0.0, ((0,),))
    iu = np.triu_indices(n, k=1)
    threshold = float(np.median(d[iu]))

    clusters = [[i] for i in range(n)]
    merged_something = True
    while merged_something:
        merged_something = False
        clusters.sort(key=lambda c: c[0])
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                cu, cv = clusters[a], clusters[b]
                if np.max(d[np.ix_(cu, cv)]) <= threshold:
                    merged = sorted(cu + cv)
                    clusters = [c for j, c in enumerate(clusters) if j not in (a, b)]
                    clusters.append(merged)
                    merged_something = True
                    break
            if merged_something:
                break
    clusters.sort(key=lambda c: c[0])
    pre_merge = tuple(tuple(c) for c in clusters)

    changed = True
    while changed:
        changed = False
        clusters.sort(key=lambda c: c[0])
        for idx, c in enumerate(clusters):
            if len(c) == 1 and len(clusters) > 1:
                i = c[0]
                others = [(j, o) for j, o in enumerate(clusters) if j != idx]
                _, target = min(others, key=lambda jo: (float(np.max(d[i, jo[1]])), jo[1][0]))
                target.extend(c)
                target.sort()
                del clusters[idx]
                changed = True
                break
    final = sorted([tuple(c) for c in clusters], key=lambda c: c[0])
    return ClusterSet(tuple(final), threshold, pre_merge)


@st.composite
def tied_delays(draw):
    """A symmetric matrix of 1-25 datacenters with delays 1-3, so that ties are common."""
    n = draw(st.integers(1, 25))
    upper = draw(st.lists(st.integers(1, 3), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    d = np.zeros((n, n))
    d[np.triu_indices(n, k=1)] = upper
    return d + d.T


@settings(max_examples=100)
@given(d=tied_delays())
def test_linkage_matches_pair_scan_on_tied_delays(d):
    assert cluster(d) == loop_cluster(d)


@pytest.mark.parametrize("cfg", [
    SHOCK_CFG,
    WorkloadConfig(num_datacenters=10, num_chains=10, horizon=12),
    WorkloadConfig(),
], ids=["desk", "mid", "paper"])
def test_linkage_matches_pair_scan_on_generated_topologies(cfg):
    for seed in range(4):
        topo = generate_topology(cfg, np.random.default_rng(seed))
        n = cfg.num_datacenters
        d = topo.delay.values[:n, :n]
        assert cluster(d) == loop_cluster(d)


def test_cluster_csv(tmp_path):
    d = sym({(0, 1): 1, (2, 3): 1, (0, 2): 16, (0, 3): 20, (1, 2): 20, (1, 3): 30}, 4)
    out = cluster(d)
    path = tmp_path / "clusters.csv"
    write_cluster_csv(path, out)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "datacenter_id,cluster_id"
    assert len(rows) == 5
