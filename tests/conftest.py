"""Shared builders for small and randomized desk-scale fixtures."""

import dataclasses
import threading

import numpy as np
import pytest
from hypothesis import settings

from chainscale.model import (
    Datacenter,
    DelayMatrix,
    FlowSpec,
    ProblemInstance,
    ServiceChain,
    SlotInput,
    VnfType,
    estimate_alpha,
)
from chainscale.workload import WorkloadConfig

# every property test draws the same examples on every run, with no time limit
# per example and no example database left behind
settings.register_profile("derandomized", deadline=None, derandomize=True, database=None)
settings.load_profile("derandomized")


# Desk-scale stand-in for the large trace-driven setup.  Deployment is priced
# at several hours of rent so that redeployment churn around flash episodes is
# visible at this tiny scale (with per-minute deployment pricing every ratio
# sits flat at ~1.0 and there is no trend to observe); demand is high enough
# that plain integrality overhead does not swamp the comparison.
SHOCK_CFG = WorkloadConfig(
    num_datacenters=4,
    num_chains=3,
    num_flows=5,
    horizon=12,
    num_endpoint_sites=5,
    num_population_centers=4,
    base_rate=2000.0,
    region_cost_spread=0.5,
    unit_run_cost=1.0,
    deploy_cost_factor=8.0,
    flash_episodes_mean=2.5,
    flash_len_range=(1, 2),
)

# (config, seed) cases for checks over every slot of a whole pipeline run:
# the shock config at shock 100, seeds 0-7, and mid seed 3
PIPELINE_CASES = [(dataclasses.replace(SHOCK_CFG, shock_level=100.0), seed) for seed in range(8)] + [
    (WorkloadConfig(num_datacenters=10, num_chains=10, horizon=12), 3)]
PIPELINE_IDS = [f"desk-{seed}" for seed in range(8)] + ["mid-3"]


def build_instance(
    num_dc,
    vnf_caps,
    deploy_costs,
    chains,
    flows,
    delays=None,
    d_in=0.01,
    d_out=0.02,
    horizon=1,
    epsilon=0.1,
    num_sites=2,
    rng=None,
):
    """Assemble a small instance from compact arguments.

    ``vnf_caps`` / ``deploy_costs``: (M, I) nested lists.  ``chains``: list of
    (vnf tuple, beta tuple).  ``flows``: list of (source_site, dest_site,
    chain_idx) with site indices offset past the datacenters automatically.
    Random geometry fills in the delay matrix when none is given.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    n_nodes = num_dc + num_sites
    if delays is None:
        pts = rng.uniform(0.0, 50.0, size=(n_nodes, 2))
        diff = pts[:, None, :] - pts[None, :, :]
        delays = np.sqrt((diff**2).sum(-1))
        draws = rng.uniform(0.8, 1.2, size=delays.shape)
        delays *= 0.5 * (draws + draws.T)
        np.fill_diagonal(delays, 0.0)
    delays = np.asarray(delays, dtype=float)
    d_in = np.broadcast_to(np.asarray(d_in, dtype=float), (num_dc,))
    d_out = np.broadcast_to(np.asarray(d_out, dtype=float), (num_dc,))
    try:
        alpha = estimate_alpha(delays)
    except ValueError:
        alpha = 10.0  # deliberately broken matrices still get an instance to validate
    return ProblemInstance(
        datacenters=tuple(Datacenter(i, float(d_in[i]), float(d_out[i])) for i in range(num_dc)),
        delay=DelayMatrix(delays, alpha),
        vnfs=tuple(
            VnfType(f"vnf{m}", tuple(vnf_caps[m]), tuple(deploy_costs[m])) for m in range(len(vnf_caps))
        ),
        chains=tuple(ServiceChain(c, tuple(v), tuple(b)) for c, (v, b) in enumerate(chains)),
        flows=tuple(
            FlowSpec(k, num_dc + s, num_dc + z, cid) for k, (s, z, cid) in enumerate(flows)
        ),
        horizon=horizon,
        epsilon=epsilon,
    )


def single_vnf_instance(num_dc=2, cap=10.0, deploy=1.0, beta=0.9, horizon=3, epsilon=0.1, rng=None, **kw):
    """One VNF, one single-hop chain, one flow: the smallest useful shape."""
    return build_instance(
        num_dc,
        vnf_caps=[[cap] * num_dc],
        deploy_costs=[[deploy] * num_dc],
        chains=[((0,), (beta,))],
        flows=[(0, 1, 0)],
        horizon=horizon,
        epsilon=epsilon,
        rng=rng,
        **kw,
    )


def make_slots(inst, rate_rows, run_costs=None, weights=None):
    """Slot stream from a (T, K) rate table; costs default to ones."""
    rate_rows = np.atleast_2d(np.asarray(rate_rows, dtype=float))
    T = rate_rows.shape[0]
    if run_costs is None:
        run_costs = np.ones((inst.num_vnfs, inst.num_datacenters))
    run_costs = np.asarray(run_costs, dtype=float)
    if weights is None:
        weights = np.ones(inst.num_flows)
    slots = []
    for t in range(1, T + 1):
        rc = run_costs if run_costs.ndim == 2 else run_costs[t - 1]
        slots.append(SlotInput(t=t, rates=rate_rows[t - 1], delay_weights=weights, run_costs=rc))
    return slots


def random_desk_instance(rng, max_dc=4, max_vnfs=2, max_flows=3, max_slots=4, small_rates=False):
    """Random valid desk-scale instance plus its slot stream.

    Sizes are biased small so suites stay fast; pass larger caps to stress.
    ``small_rates`` keeps per-VNF demand below one instance's capacity (the
    regime where the dual certificate construction is exact).
    """
    I = int(rng.integers(2, max_dc + 1))
    M = int(rng.integers(1, max_vnfs + 1))
    K = int(rng.integers(1, max_flows + 1))
    T = int(rng.integers(1, max_slots + 1))
    caps = rng.uniform(5.0, 15.0, size=(M, I))
    deploys = rng.uniform(0.2, 2.0, size=(M, I))
    n_chains = int(rng.integers(1, K + 1))
    chains = []
    for _ in range(n_chains):
        L = int(rng.integers(1, min(M, 3) + 1))
        vnfs = tuple(int(v) for v in rng.permutation(M)[:L])
        beta = tuple(float(b) for b in rng.uniform(0.7, 1.2, size=L))
        chains.append((vnfs, beta))
    flows = []
    num_sites = max(2, K)
    for k in range(K):
        s = int(rng.integers(0, num_sites))
        z = int(rng.integers(0, num_sites - 1))
        if z >= s:
            z += 1
        flows.append((s, z, int(rng.integers(0, n_chains))))
    inst = build_instance(
        I,
        caps.tolist(),
        deploys.tolist(),
        chains,
        flows,
        d_in=rng.uniform(0.005, 0.05, size=I),
        d_out=rng.uniform(0.005, 0.05, size=I),
        horizon=T,
        epsilon=float(rng.choice([0.05, 0.1, 0.5])),
        num_sites=num_sites,
        rng=rng,
    )
    if small_rates:
        # keep every VNF's aggregate demand under one instance worth of capacity
        high = 0.6 * caps.min()
    else:
        high = 2.5 * caps.max()
    rates = rng.uniform(0.05 * high, high, size=(T, K))
    rates[rng.random(size=rates.shape) < 0.2] = 0.0
    if small_rates:
        rates /= max(1, K)
    run_costs = rng.uniform(0.5, 2.0, size=(T, M, I))
    weights = rng.uniform(0.1, 2.0, size=K)
    slots = make_slots(inst, rates, run_costs=run_costs, weights=weights)
    return inst, slots


@pytest.fixture(autouse=True)
def no_thread_left_behind():
    """Every test ends with as many threads alive as it started with."""
    before = threading.active_count()
    yield
    assert threading.active_count() == before, [t.name for t in threading.enumerate()]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
