"""Reproducible synthetic instances: topology, VNF catalog, demand traces.

Real topology maps and request traces are not redistributable, so this module
substitutes parameterized generators matching their published statistics: a
density-weighted placement over a synthetic population map, geographic delays
with multiplicative perturbation, a diurnal demand curve, and flash-crowd
episodes that multiply demand by a configurable shock level.  User-supplied
trace CSVs can be plugged in instead of the synthetic curve.

Everything is a deterministic function of (config, seed).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .model import (
    Datacenter,
    DelayMatrix,
    FlowSpec,
    InputError,
    ProblemInstance,
    ServiceChain,
    SlotInput,
    VnfType,
    estimate_alpha,
)

__all__ = [
    "WorkloadConfig",
    "Topology",
    "CATALOG",
    "default_vnf_catalog",
    "catalog_cost_units",
    "generate_topology",
    "generate_chains",
    "generate_traffic",
    "build_instance",
    "write_trace_csv",
    "slots_from_trace",
]


@dataclass(frozen=True)
class WorkloadConfig:
    """Knobs of the synthetic workload; defaults follow the evaluation setup."""

    num_datacenters: int = 50
    num_chains: int = 30
    num_flows: int = 0  # 0 means one flow per chain
    chain_len_range: tuple = (2, 5)  # clamped to the catalog size during generation
    shock_level: float = 5.0
    horizon: int = 200
    epsilon: float = 0.1
    delay_perturbation: tuple = (0.8, 1.2)
    num_population_centers: int = 8
    num_endpoint_sites: int = 20
    map_size: float = 100.0
    delay_scale: float = 1.0  # ms per map distance unit
    base_rate: float = 300.0  # mean source rate, flow-units per slot
    rate_noise: float = 0.1
    delay_weight: float = 1.0  # delay-to-money conversion for every flow
    unit_run_cost: float = 0.1  # hourly rent of the smallest instance class
    deploy_cost_factor: float = 0.25  # deploy cost as a fraction of hourly rent
    transfer_cost_in: float = 0.01
    transfer_cost_out: float = 0.02
    region_cost_spread: float = 0.2
    flash_episodes_mean: float = 2.0
    flash_len_range: tuple = (2, 6)
    full_span_fraction: float = 0.7  # share of flows active over the whole horizon

    def __post_init__(self):
        if self.num_datacenters < 1 or self.num_chains < 1 or self.horizon < 1:
            raise ValueError("datacenter, chain and horizon counts must be positive")
        if self.chain_len_range[0] < 1:
            raise ValueError("chains need at least one VNF")
        if not self.shock_level >= 1:
            raise ValueError("shock level is a multiplier >= 1")
        if self.num_flows < 0:
            raise ValueError(f"flow count must be nonnegative (0 means one flow per chain), got {self.num_flows}")
        if self.num_endpoint_sites < 2:
            raise ValueError(f"a flow needs distinct source and destination sites: "
                             f"need at least 2 endpoint sites, got {self.num_endpoint_sites}")
        if not (np.isfinite(self.base_rate) and self.base_rate >= 0):
            raise ValueError(f"base rate must be finite and nonnegative, got {self.base_rate}")


#: (name, capacity in flow-units/slot, instance class, rent units, rate-change range)
CATALOG = (
    ("firewall", 900.0, "m4.xlarge", 2.0, (0.8, 1.0)),
    ("proxy", 900.0, "m4.xlarge", 2.0, (1.0, 1.0)),
    ("nat", 900.0, "m4.large", 1.0, (1.0, 1.0)),
    ("ids", 600.0, "m4.2xlarge", 4.0, (0.8, 1.0)),
)


def catalog_cost_units() -> np.ndarray:
    """Relative rent per VNF class (small : xlarge : 2xlarge = 1 : 2 : 4)."""
    return np.array([e[3] for e in CATALOG])


def default_vnf_catalog(
    num_datacenters: int = 1,
    unit_run_cost: float = 0.1,
    deploy_cost_factor: float = 0.25,
    region_factors: np.ndarray = None,
) -> list:
    """The four stock VNF types with per-datacenter capacity and deploy cost.

    Capacities are uniform across datacenters; deploy costs scale with the
    instance class rent, optionally spread by per-datacenter factors.
    """
    if region_factors is None:
        region_factors = np.ones(num_datacenters)
    out = []
    for name, cap, _klass, units, _beta in CATALOG:
        deploy = deploy_cost_factor * unit_run_cost * units * region_factors
        out.append(VnfType(name, tuple([cap] * num_datacenters), tuple(deploy)))
    return out


@dataclass(frozen=True)
class Topology:
    dc_coords: np.ndarray  # (I, 2)
    site_coords: np.ndarray  # (S, 2) flow endpoint locations
    delay: DelayMatrix  # over datacenters then sites
    center_coords: np.ndarray = field(default=None, repr=False)


def _population_sampler(cfg: WorkloadConfig, rng):
    centers = rng.uniform(0.0, cfg.map_size, size=(cfg.num_population_centers, 2))
    weights = rng.dirichlet(np.ones(cfg.num_population_centers) * 2.0)
    spread = cfg.map_size / 12.0

    def sample(n):
        idx = rng.choice(cfg.num_population_centers, size=n, p=weights)
        return np.clip(centers[idx] + rng.normal(0.0, spread, size=(n, 2)), 0.0, cfg.map_size)

    return centers, sample


def generate_topology(cfg: WorkloadConfig, rng: np.random.Generator, perturb: bool = True) -> Topology:
    """Place datacenters and endpoint sites density-weighted; derive delays.

    Delay between two nodes is their distance times the mean of two
    independent perturbation draws (one per direction), so the matrix is
    symmetric by construction.  The relaxed-triangle coefficient is measured
    from the finished matrix.
    """
    centers, sample = _population_sampler(cfg, rng)
    pts = sample(cfg.num_datacenters + cfg.num_endpoint_sites)
    # keep nodes separated so every pairwise delay is strictly positive
    for trial in range(1000):
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff**2).sum(-1))
        np.fill_diagonal(dist, np.inf)
        bad = np.argwhere(dist < 1e-3)
        if not bad.size:
            break
        pts[bad[0][0]] = sample(1)[0]
    dc = pts[: cfg.num_datacenters]
    sites = pts[cfg.num_datacenters :]
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff**2).sum(-1)) * cfg.delay_scale
    if perturb:
        lo, hi = cfg.delay_perturbation
        draws = rng.uniform(lo, hi, size=dist.shape)
        factor = 0.5 * (draws + draws.T)
    else:
        factor = np.ones_like(dist)
    delays = dist * factor
    np.fill_diagonal(delays, 0.0)
    alpha = estimate_alpha(delays)
    return Topology(dc, sites, DelayMatrix(delays, alpha), centers)


def generate_chains(cfg: WorkloadConfig, rng: np.random.Generator) -> list:
    """Random service chains over the stock catalog.

    Lengths are drawn from the configured range clamped to the number of
    catalog entries (chains are simple paths, so a VNF appears at most once);
    each VNF's rate-change ratio is drawn from its catalog range.
    """
    M = len(CATALOG)
    lo = min(cfg.chain_len_range[0], M)
    hi = min(cfg.chain_len_range[1], M)
    chains = []
    for cid in range(cfg.num_chains):
        L = int(rng.integers(lo, hi + 1))
        vnfs = rng.permutation(M)[:L]
        beta = []
        for m in vnfs:
            b_lo, b_hi = CATALOG[m][4]
            beta.append(float(rng.uniform(b_lo, b_hi)) if b_hi > b_lo else b_lo)
        chains.append(ServiceChain(cid, tuple(int(m) for m in vnfs), tuple(beta)))
    return chains


def _flow_curve(cfg: WorkloadConfig, rng) -> np.ndarray:
    """One flow's rate series: diurnal base, noise, flash-crowd windows."""
    T = cfg.horizon
    t = np.arange(1, T + 1, dtype=float)
    base = cfg.base_rate * float(rng.lognormal(0.0, 0.3))
    phase = float(rng.uniform(0.0, 24.0))
    curve = base * (1.0 + 0.45 * np.sin(2.0 * np.pi * (t + phase) / 24.0))
    curve *= np.maximum(0.0, 1.0 + cfg.rate_noise * rng.normal(size=T))
    n_flash = int(rng.poisson(cfg.flash_episodes_mean))
    flash = np.zeros(T, dtype=bool)
    for _ in range(n_flash):
        length = int(rng.integers(cfg.flash_len_range[0], cfg.flash_len_range[1] + 1))
        start = int(rng.integers(0, max(1, T - length + 1)))
        flash[start : start + length] = True
    # overlapping episodes merge: a flash slot carries shock x the normal rate
    curve[flash] *= cfg.shock_level
    if rng.random() > cfg.full_span_fraction and T >= 5:
        span = max(1, int(T * rng.uniform(0.2, 0.8)))
        start = int(rng.integers(0, T - span + 1))
        mask = np.zeros(T)
        mask[start : start + span] = 1.0
        curve *= mask
    return curve


def generate_traffic(cfg: WorkloadConfig, inst: ProblemInstance, rng: np.random.Generator) -> list:
    """Per-slot observables for every flow of an instance.

    Rates follow the synthetic diurnal curve with flash crowds; delay weights
    are constant; rents are constant over time (instance pricing), the
    per-datacenter spread being baked into the instance's deploy costs and
    the run-cost matrix alike.
    """
    K = inst.num_flows
    curves = np.stack([_flow_curve(cfg, rng) for _ in range(K)]) if K else np.zeros((0, cfg.horizon))
    run_costs = _run_cost_matrix(cfg, inst)
    weights = np.full(K, cfg.delay_weight)
    return [
        SlotInput(t=t, rates=curves[:, t - 1], delay_weights=weights, run_costs=run_costs)
        for t in range(1, cfg.horizon + 1)
    ]


def _run_cost_matrix(cfg: WorkloadConfig, inst: ProblemInstance) -> np.ndarray:
    # rent mirrors the deploy costs' regional spread: deploy = factor * rent
    return inst.deploy_cost / cfg.deploy_cost_factor


def build_instance(cfg: WorkloadConfig, seed: int):
    """Generate a full instance and its slot stream from one seed.

    Returns ``(instance, slots)``.  Children generators are spawned per stage
    (topology, chains, flows, traffic) so tweaking one stage's parameters
    leaves the other stages' draws untouched.
    """
    root = np.random.default_rng(seed)
    rng_topo, rng_chain, rng_flow, rng_traffic = root.spawn(4)
    topo = generate_topology(cfg, rng_topo)
    I = cfg.num_datacenters

    region = 1.0 + cfg.region_cost_spread * (rng_topo.uniform(-1.0, 1.0, size=I))
    vnfs = default_vnf_catalog(I, cfg.unit_run_cost, cfg.deploy_cost_factor, region)
    chains = generate_chains(cfg, rng_chain)

    n_flows = cfg.num_flows or cfg.num_chains
    n_sites = cfg.num_endpoint_sites
    flows = []
    for k in range(n_flows):
        s = int(rng_flow.integers(0, n_sites))
        z = int(rng_flow.integers(0, n_sites - 1))
        if z >= s:
            z += 1
        flows.append(FlowSpec(k, I + s, I + z, k % cfg.num_chains))

    inst = ProblemInstance(
        datacenters=tuple(
            Datacenter(i, cfg.transfer_cost_in * region[i], cfg.transfer_cost_out * region[i]) for i in range(I)
        ),
        delay=topo.delay,
        vnfs=tuple(vnfs),
        chains=tuple(chains),
        flows=tuple(flows),
        horizon=cfg.horizon,
        epsilon=cfg.epsilon,
    )
    slots = generate_traffic(cfg, inst, rng_traffic)
    return inst, slots


def write_trace_csv(path, slots) -> None:
    """Emit the flow-rate trace: rows (t, flow_id, rate)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "flow_id", "rate"])
        for slot in slots:
            for k, rate in enumerate(slot.rates):
                w.writerow([slot.t, k, f"{rate:.10g}"])


def slots_from_trace(path, num_flows: int, horizon: int, run_costs, delay_weight: float = 1.0) -> list:
    """Build a slot stream from a trace CSV of (t, flow_id, rate) rows.

    Each row must name a slot in 1..horizon and a known flow, once, and carry
    a finite, nonnegative rate; ``InputError`` names the first row that does
    not, or the file when it cannot be read.
    """
    rates = np.zeros((horizon, num_flows))
    seen = np.zeros((horizon, num_flows), dtype=bool)
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"cannot read trace file {path}: {exc}") from exc
    for row in rows:
        try:
            t, k, rate = int(row["t"]), int(row["flow_id"]), float(row["rate"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"trace file {path}: malformed row {row}") from exc
        if not (1 <= t <= horizon) or not (0 <= k < num_flows):
            raise InputError(f"trace row out of range: t={t} flow={k}")
        if not np.isfinite(rate):
            raise InputError(f"trace row t={t} flow={k}: rate {row['rate']!r} is not finite")
        if rate < 0:
            raise InputError(f"trace row t={t} flow={k}: rate {rate:g} is negative")
        if seen[t - 1, k]:
            raise InputError(f"trace row t={t} flow={k}: repeats an earlier row for this slot and flow")
        seen[t - 1, k] = True
        rates[t - 1, k] = rate
    run_costs = np.asarray(run_costs, dtype=float)
    weights = np.full(num_flows, delay_weight)
    return [SlotInput(t=t, rates=rates[t - 1], delay_weights=weights, run_costs=run_costs) for t in range(1, horizon + 1)]
