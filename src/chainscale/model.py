"""Static domain model: datacenters, delays, VNF catalog, service chains, flows.

All types are immutable after construction (frozen dataclasses, read-only
numpy arrays) and safe to share across threads.  A ``ProblemInstance`` also
keeps the slot layouts' pattern store (see ``layout``), which only grows and
holds read-only arrays derived from the instance.  Node ids live in a single
index space covering datacenters, flow sources and flow destinations, so the
delay matrix needs no special-casing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "Datacenter",
    "DelayMatrix",
    "VnfType",
    "ServiceChain",
    "FlowSpec",
    "InputError",
    "ProblemInstance",
    "SlotInput",
    "ValidationReport",
    "Violation",
    "validate_instance",
    "estimate_alpha",
]


class InputError(ValueError):
    """An input file or instance a run cannot use: missing, malformed or invalid."""


def _frozen_array(values, dtype=float) -> np.ndarray:
    a = np.array(values, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Datacenter:
    """A rentable datacenter location.

    ``node`` indexes into the instance-wide delay matrix; ``ingress_cost`` and
    ``egress_cost`` are the bandwidth charges per flow-unit moved into / out of
    the datacenter in one slot.
    """

    node: int
    ingress_cost: float
    egress_cost: float


@dataclass(frozen=True)
class DelayMatrix:
    """Symmetric node-to-node delays plus the relaxed-triangle coefficient.

    ``alpha`` is the smallest coefficient such that
    ``|delay[a,b] - delay[b,c]| <= alpha * delay[a,c]`` over all node triples.
    ``alpha > 1`` means the plain triangle inequality is violated somewhere,
    which is normal for internet delay spaces.
    """

    values: np.ndarray
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values))

    @property
    def num_nodes(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class VnfType:
    """One VNF type; capacity and deploy cost vary per datacenter."""

    name: str
    capacity: tuple  # flow-units per slot per instance, one entry per datacenter
    deploy_cost: tuple  # money per newly launched instance, per datacenter

    def __post_init__(self):
        object.__setattr__(self, "capacity", tuple(float(b) for b in self.capacity))
        object.__setattr__(self, "deploy_cost", tuple(float(d) for d in self.deploy_cost))


@dataclass(frozen=True)
class ServiceChain:
    """Ordered VNF sequence a flow traverses, with per-VNF rate-change ratios.

    ``vnfs[j]`` is the VNF type id at position j; ``beta[j]`` is the ratio of
    the rate leaving that VNF to the rate entering it.  A virtual ingress hop
    (source -> first VNF) and egress hop (last VNF -> destination) bracket the
    sequence; they carry no rate change of their own.
    """

    chain_id: int
    vnfs: tuple
    beta: tuple

    def __post_init__(self):
        object.__setattr__(self, "vnfs", tuple(int(m) for m in self.vnfs))
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))

    def __len__(self) -> int:
        return len(self.vnfs)

    @property
    def hops(self) -> tuple:
        """Real VNF-to-VNF hops as (position, position+1) pairs."""
        return tuple((j, j + 1) for j in range(len(self.vnfs) - 1))


@dataclass(frozen=True)
class FlowSpec:
    """A traffic flow: fixed endpoints and the chain it must traverse."""

    flow_id: int
    source: int  # node id
    destination: int  # node id
    chain_id: int


@dataclass(frozen=True)
class ProblemInstance:
    """Full static description of one deployment problem.

    Derived arrays (capacity, deploy cost, transfer prices) are precomputed on
    construction; per-slot observables arrive separately as ``SlotInput``.
    """

    datacenters: tuple
    delay: DelayMatrix
    vnfs: tuple
    chains: tuple
    flows: tuple
    horizon: int
    epsilon: float

    # derived, filled in __post_init__
    capacity: np.ndarray = field(init=False, repr=False)  # (M, I)
    deploy_cost: np.ndarray = field(init=False, repr=False)  # (M, I)
    dc_nodes: np.ndarray = field(init=False, repr=False)  # (I,)
    ingress_cost: np.ndarray = field(init=False, repr=False)  # (I,)
    egress_cost: np.ndarray = field(init=False, repr=False)  # (I,)

    def __post_init__(self):
        object.__setattr__(self, "datacenters", tuple(self.datacenters))
        object.__setattr__(self, "vnfs", tuple(self.vnfs))
        object.__setattr__(self, "chains", tuple(self.chains))
        object.__setattr__(self, "flows", tuple(self.flows))
        for name in ("capacity", "deploy_cost"):  # ragged rows would fail inside numpy, naming nothing
            if len({len(getattr(v, name)) for v in self.vnfs}) > 1:
                m, vnf = next((m, v) for m, v in enumerate(self.vnfs) if len(getattr(v, name)) != len(self.datacenters))
                raise InputError(f"[vnf-shape] VNF {m} ({vnf.name}) has {len(getattr(vnf, name))} {name} entries "
                                 f"for {len(self.datacenters)} datacenters")
        cap = _frozen_array([v.capacity for v in self.vnfs]) if self.vnfs else np.zeros((0, 0))
        dep = _frozen_array([v.deploy_cost for v in self.vnfs]) if self.vnfs else np.zeros((0, 0))
        object.__setattr__(self, "capacity", cap)
        object.__setattr__(self, "deploy_cost", dep)
        object.__setattr__(self, "dc_nodes", _frozen_array([d.node for d in self.datacenters], dtype=int))
        object.__setattr__(self, "ingress_cost", _frozen_array([d.ingress_cost for d in self.datacenters]))
        object.__setattr__(self, "egress_cost", _frozen_array([d.egress_cost for d in self.datacenters]))
        # the slot layouts' pattern store: one read-only ``layout._SlotPattern``
        # per distinct active-flow tuple, added by the first layout that needs
        # it; not a field, so equality, repr and ``replace`` ignore it
        object.__setattr__(self, "_slot_patterns", {})

    @property
    def num_datacenters(self) -> int:
        return len(self.datacenters)

    @property
    def num_vnfs(self) -> int:
        return len(self.vnfs)

    @property
    def num_flows(self) -> int:
        return len(self.flows)

    @property
    def eta(self) -> float:
        """Scale constant of the deployment regularizer, ln(1 + M*I/epsilon)."""
        return math.log(1.0 + self.num_vnfs * self.num_datacenters / self.epsilon)

    @property
    def entropy_shift(self) -> float:
        """Additive shift keeping the regularizer finite at zero deployment."""
        return self.epsilon / (self.num_vnfs * self.num_datacenters)

    def chain_of(self, flow_id: int) -> ServiceChain:
        flow = self.flows[flow_id]
        for chain in self.chains:
            if chain.chain_id == flow.chain_id:
                return chain
        raise KeyError(f"flow {flow_id} references unknown chain {flow.chain_id}")

    def dc_delays(self) -> np.ndarray:
        """Delay matrix restricted to datacenters, (I, I)."""
        return self.delay.values[np.ix_(self.dc_nodes, self.dc_nodes)]


@dataclass(frozen=True)
class SlotInput:
    """Observables revealed at the start of one time slot.

    ``rates[k]`` is the source rate of flow k (zero means the flow is absent
    this slot), ``delay_weights[k]`` converts its average end-to-end delay to
    money, and ``run_costs[m, i]`` is the per-slot rent of one instance of VNF
    m in datacenter i.
    """

    t: int
    rates: np.ndarray  # (K,)
    delay_weights: np.ndarray  # (K,)
    run_costs: np.ndarray  # (M, I)

    def __post_init__(self):
        object.__setattr__(self, "rates", _frozen_array(self.rates))
        object.__setattr__(self, "delay_weights", _frozen_array(self.delay_weights))
        object.__setattr__(self, "run_costs", _frozen_array(self.run_costs))


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "instance valid"
        return "\n".join(f"[{v.code}] {v.message}" for v in self.violations)


def estimate_alpha(delays: np.ndarray) -> float:
    """Smallest relaxed-triangle coefficient supported by a delay matrix.

    Returns ``max |d[a,b] - d[b,c]| / d[a,c]`` over all triples of distinct
    nodes; 0.0 when there are fewer than three nodes.  Raises ``ValueError``
    when some pair has zero delay but a positive numerator exists for it, in
    which case no finite coefficient works.
    """
    return _alpha_scan(delays)[0]


_SCAN_BLOCK_ELEMENTS = 1 << 16  # elements per (b, a, c) temporary, unless one b alone needs more


def _alpha_scan(delays: np.ndarray) -> tuple:
    """``(alpha, triple)``: ``estimate_alpha`` and the (a, b, c) triple that first attains it.

    Triples are ordered by the middle node b, then a, then c; ``triple`` is
    the first maximum in that order, and None when no triple has a positive
    ``d[a,c]``.  A middle node whose ratios include a NaN is passed over.

    The scan runs over blocks of consecutive middle nodes.  Each block holds
    ``numer[b, a, c] = |d[a,b] - d[b,c]|``, with the a-side read from column
    ``d[:, b]``, and its ratios to ``d[a,c]``, so no temporary exceeds
    ``max(n**2, 2**16)`` elements.  A later block replaces the winner only
    with a strictly larger ratio.  A zero ``d[a,c]`` with a positive
    numerator raises, naming the first such (b, a, c).
    """
    d = np.asarray(delays, dtype=float)
    n = d.shape[0]
    if d.shape != (n, n):
        raise ValueError("delay matrix must be square")
    if not (np.array_equal(d, d.T) or np.allclose(d, d.T, atol=0.0)):
        raise ValueError("delay matrix must be symmetric")
    if np.any(np.diag(d) != 0.0):
        raise ValueError("delay matrix must have a zero diagonal")
    if n < 3:
        return 0.0, None

    offdiag = ~np.eye(n, dtype=bool)
    positive = offdiag & (d > 0.0)
    zero = offdiag & (d == 0.0)
    check_zero = bool(zero.any())
    skipped = np.flatnonzero(~positive)  # (a, c) pairs with no ratio: a == c or d[a,c] <= 0
    denom = np.where(positive, d, 1.0)
    by_column = np.ascontiguousarray(d.T)  # by_column[b, a] = d[a, b]
    step = min(n, max(1, _SCAN_BLOCK_ELEMENTS // (n * n)))
    ratio = np.empty((step, n, n))
    best, triple = -1.0, None
    for start in range(0, n, step):
        size = min(step, n - start)
        rat = ratio[:size]
        np.subtract(by_column[start : start + size, :, None], d[start : start + size, None, :], out=rat)
        np.abs(rat, out=rat)
        np.divide(rat, denom, out=rat)  # still the numerator where d[a,c] <= 0
        local, mids = np.arange(size), np.arange(start, start + size)
        rat[local, mids, :] = -np.inf  # a == b
        rat[local, :, mids] = -np.inf  # c == b
        if check_zero:
            bad = zero & (rat > 0.0)
            if bad.any():
                j, a, c = np.argwhere(bad)[0]
                raise ValueError(
                    f"zero delay between nodes {a} and {c} with unequal delays via {start + j}: "
                    "no finite relaxed-triangle coefficient exists"
                )
        flat = rat.reshape(size, n * n)
        flat[:, skipped] = -np.inf
        tops = flat.max(axis=1)
        tops[np.isnan(tops)] = -np.inf
        j = int(np.argmax(tops))
        if tops[j] > best:
            a, c = divmod(int(np.argmax(flat[j])), n)
            best, triple = float(tops[j]), (a, start + j, c)
    return max(best, 0.0), triple


def validate_instance(inst: ProblemInstance) -> ValidationReport:
    """Check every structural invariant of an instance.

    Pure diagnostic sweep: returns a report listing violations instead of
    raising, so callers can surface all problems at once.
    """
    bad: list[Violation] = []
    d = inst.delay.values
    n = inst.delay.num_nodes

    numbers = {
        "capacity": inst.capacity,
        "deploy cost": inst.deploy_cost,
        "ingress cost": inst.ingress_cost,
        "egress cost": inst.egress_cost,
        "delay": d,
        "beta": np.array([b for chain in inst.chains for b in chain.beta]),
        "alpha": inst.delay.alpha,
    }
    non_finite = [name for name, values in numbers.items() if not np.isfinite(values).all()]
    if non_finite:
        bad.append(Violation("non-finite", f"NaN or infinite values in: {', '.join(non_finite)}"))
    finite = np.isfinite(d)  # non-finite delays are reported above, once
    if np.any(d[finite] < 0):
        bad.append(Violation("delay-negative", "delay matrix has negative entries"))
    if d.shape != (n, n):  # then symmetry and the diagonal are not defined
        bad.append(Violation("delay-shape", f"delay matrix is {d.shape}, expected square"))
    else:
        asym = np.argwhere((d != d.T) & finite & finite.T)
        if asym.size:
            a, b = asym[0]
            bad.append(Violation("symmetry", f"delay[{a}][{b}] != delay[{b}][{a}]"))
        diag = np.argwhere((np.diag(d) != 0.0) & np.diag(finite))
        if diag.size:
            bad.append(Violation("diagonal", f"delay[{diag[0][0]}][{diag[0][0]}] is nonzero"))

    if not bad:
        try:
            needed, trip = _alpha_scan(d)
        except ValueError as exc:
            bad.append(Violation("alpha-infinite", str(exc)))
        else:
            if needed > inst.delay.alpha + 1e-12:
                bad.append(
                    Violation(
                        "alpha",
                        f"declared alpha {inst.delay.alpha:g} too small: triple "
                        f"{trip} needs {needed:.12g}",
                    )
                )

    for i, dc in enumerate(inst.datacenters):
        if dc.ingress_cost < 0 or dc.egress_cost < 0:
            bad.append(Violation("transfer-cost", f"datacenter {i} has negative transfer cost"))
        if not (0 <= dc.node < n):
            bad.append(Violation("node-id", f"datacenter {i} node {dc.node} outside delay matrix"))

    for m, vnf in enumerate(inst.vnfs):
        if len(vnf.capacity) != inst.num_datacenters or len(vnf.deploy_cost) != inst.num_datacenters:
            bad.append(Violation("vnf-shape", f"VNF {m} ({vnf.name}) arrays do not match datacenter count"))
            continue
        if any(b <= 0 for b in vnf.capacity):
            bad.append(Violation("capacity", f"VNF {m} ({vnf.name}) has a non-positive capacity"))
        if any(c < 0 for c in vnf.deploy_cost):
            bad.append(Violation("deploy-cost", f"VNF {m} ({vnf.name}) has a negative deploy cost"))

    chain_ids = set()
    for chain in inst.chains:
        if chain.chain_id in chain_ids:
            bad.append(Violation("chain-id", f"duplicate chain id {chain.chain_id}"))
        chain_ids.add(chain.chain_id)
        if len(chain.vnfs) == 0:
            bad.append(Violation("chain-empty", f"chain {chain.chain_id} has no VNFs"))
        if len(set(chain.vnfs)) != len(chain.vnfs):
            bad.append(Violation("chain-path", f"chain {chain.chain_id} repeats a VNF (not a simple path)"))
        if any(not (0 <= m < inst.num_vnfs) for m in chain.vnfs):
            bad.append(Violation("chain-vnf", f"chain {chain.chain_id} references an unknown VNF"))
        if len(chain.beta) != len(chain.vnfs):
            bad.append(Violation("chain-beta", f"chain {chain.chain_id} beta length mismatch"))
        elif any(b <= 0 for b in chain.beta):
            bad.append(Violation("beta", f"chain {chain.chain_id} has a non-positive rate-change ratio"))

    for k, flow in enumerate(inst.flows):
        if flow.flow_id != k:
            bad.append(Violation("flow-id", f"flow at position {k} has id {flow.flow_id}"))
        if not (0 <= flow.source < n) or not (0 <= flow.destination < n):
            bad.append(Violation("flow-node", f"flow {k} endpoints outside delay matrix"))
        if flow.chain_id not in chain_ids:
            bad.append(Violation("flow-chain", f"flow {k} references unknown chain {flow.chain_id}"))

    if inst.horizon < 1:
        bad.append(Violation("horizon", f"horizon {inst.horizon} < 1"))
    if not (inst.epsilon > 0):
        bad.append(Violation("epsilon", f"epsilon {inst.epsilon} must be positive"))
    elif inst.num_vnfs and inst.num_datacenters:
        eta = inst.eta
        if not (math.isfinite(eta) and eta > 0):
            bad.append(Violation("eta", f"derived regularizer scale {eta} not finite/positive"))

    return ValidationReport(tuple(bad))

