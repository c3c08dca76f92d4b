"""Randomized dependent rounding of instance counts over cluster stars.

Each (VNF, cluster) pair gets a star: the cluster's cheapest datacenter per
unit capacity is the buffer at the center, and every other datacenter with a
fractional count hangs off it as an edge.  Edges carry a round-up probability
``p`` (the fractional part of the count) and a weight ``w`` (the ratio of the
edge's per-instance capacity to the buffer's).  Pairs of edges then perform
coupled zero-mean random walks until each ``p`` hits 0 or 1; the coupling
keeps both the buffer's weighted degree ``sum(w * p)`` and the cluster's
fractional capacity exactly constant, so the buffer can deterministically
absorb everything lost to round-downs by deploying ``ceil(own count +
degree)`` instances.

Consequences, verified in the test suite: each fractional count rounds up
with probability exactly its fractional part; the rounded counts' aggregate
capacity never falls below the fractional aggregate, hence never below
demand; and the expected rounded count equals the fractional count for every
non-buffer datacenter.

The rounding policies at the end of the module (OWDR and the GR and IRR
baselines) take the slot's ``SlotLayout`` and return integer counts;
``SlotLayout.price`` charges deployments from consecutive slots' counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clustering import ClusterSet
from .layout import SlotLayout
from .model import ProblemInstance, SlotInput

__all__ = ["StarGraph", "init_stars", "owdr", "resolve_probabilities",
           "round_owdr", "round_up", "round_nearest"]

#: counts within this of an integer are treated as integral
INTEGRAL_TOL = 1e-9


@dataclass(frozen=True)
class StarGraph:
    """Rounding star for one VNF type within one datacenter cluster."""

    vnf: int
    buffer: int  # datacenter chosen to absorb round-down losses
    members: tuple  # every datacenter in the cluster
    edges: tuple  # non-buffer datacenters with fractional counts
    p: tuple  # initial round-up probability per edge (fractional part)
    w: tuple  # per-edge capacity ratio: edge capacity / buffer capacity
    degree: float  # sum(w * p); preserved exactly by the coupled walk


def _snap(value: float) -> float:
    r = round(value)
    return float(r) if abs(value - r) <= INTEGRAL_TOL else float(value)


def init_stars(
    inst: ProblemInstance,
    slot: SlotInput,
    frac_q: np.ndarray,
    clusters: ClusterSet,
) -> list:
    """Build one star per (VNF, cluster) from a fractional plan.

    The buffer minimizes rent per unit capacity within the cluster (ties to
    the lowest datacenter id).  Datacenters whose count is already integral
    carry no edge.
    """
    frac_q = np.asarray(frac_q, dtype=float)
    stars = []
    for m in range(inst.num_vnfs):
        for members in clusters.clusters:
            buffer = min(members, key=lambda i: (slot.run_costs[m, i] / inst.capacity[m, i], i))
            edges, p, w = [], [], []
            for i in members:
                if i == buffer:
                    continue
                q = _snap(frac_q[m, i])
                frac = q - math.floor(q)
                if frac > 0.0:
                    edges.append(i)
                    p.append(frac)
                    w.append(inst.capacity[m, i] / inst.capacity[m, buffer])
            degree = float(sum(wi * pi for wi, pi in zip(w, p)))
            stars.append(StarGraph(m, buffer, tuple(members), tuple(edges), tuple(p), tuple(w), degree))
    return stars


def resolve_probabilities(p, w, rng, degree_log: list = None):
    """Drive edge probabilities to {0, 1} by coupled zero-mean steps.

    While two or more edges float, the two lowest-indexed ones move together:
    one up, the other down, scaled so the weighted sum is untouched, with the
    step sizes the largest that keep both within [0, 1] and the branch chosen
    with probabilities that make each edge's expected move zero.  A final
    lone edge resolves by an ordinary Bernoulli draw on its current value.

    ``degree_log``, when given, receives ``sum(w * p)`` after every coupled
    iteration (the terminal Bernoulli is not degree-preserving and is not
    logged).  Returns the resolved 0/1 values.
    """
    p = [float(v) for v in p]
    live = [j for j, v in enumerate(p) if 0.0 < v < 1.0]
    while len(live) >= 2:
        j1, j2 = live[0], live[1]
        p1, p2, w1, w2 = p[j1], p[j2], w[j1], w[j2]
        k1 = min(1.0 - p1, p2 * w2 / w1)
        k2 = min(p1, (1.0 - p2) * w2 / w1)
        if rng.random() < k2 / (k1 + k2):
            p1, p2 = p1 + k1, p2 - k1 * w1 / w2
        else:
            p1, p2 = p1 - k2, p2 + k2 * w1 / w2
        for j, v in ((j1, p1), (j2, p2)):
            if v <= 1e-12:
                v = 0.0
            elif v >= 1.0 - 1e-12:
                v = 1.0
            p[j] = v
        live = [j for j in live if 0.0 < p[j] < 1.0]
        if degree_log is not None:
            degree_log.append(sum(wi * pi for wi, pi in zip(w, p)))
    if live:
        j = live[0]
        p[j] = 1.0 if rng.random() < p[j] else 0.0
    return p


def owdr(stars, frac_q: np.ndarray, rng) -> np.ndarray:
    """Round a fractional plan's instance counts to integers; returns the (M, I) counts.

    Non-buffer datacenters get their floor plus the resolved 0/1 edge value;
    buffers get the ceiling of their own count plus the star's (preserved)
    weighted degree; datacenters with integral counts are untouched.

    ``rng`` is a seeded ``numpy.random.Generator``; every trial with the same
    seed reproduces exactly.
    """
    frac_q = np.asarray(frac_q, dtype=float)
    # a count that is no star's edge or buffer is integral once snapped, and rounds to itself
    q_bar = np.round(frac_q)
    for star in stars:
        m = star.vnf
        p_final = resolve_probabilities(star.p, star.w, rng) if star.edges else []
        for j, i in enumerate(star.edges):
            if p_final[j] not in (0.0, 1.0):
                raise AssertionError(f"edge probability {p_final[j]} escaped [0,1] resolution")
            q_bar[m, i] = math.floor(_snap(frac_q[m, i])) + p_final[j]
        q_bar[m, star.buffer] = math.ceil(_snap(frac_q[m, star.buffer]) + star.degree - INTEGRAL_TOL)
    q_int = q_bar.astype(int)
    if np.any(q_int < 0):
        raise AssertionError("rounding produced a negative instance count")
    return q_int


# --- rounding policies ----------------------------------------------------------
# One signature: (layout, frac_q, clusters, rng) -> the (M, I) integer counts of
# the layout's slot, or None when no routing can exist.


def round_owdr(layout: SlotLayout, frac_q, clusters, rng):
    """OWDR: dependent rounding over the cluster stars of the fractional counts."""
    return owdr(init_stars(layout.inst, layout.slot, frac_q, clusters), frac_q, rng)


def round_up(layout: SlotLayout, frac_q, clusters, rng):
    """GR: ceil every fractional count; always routable."""
    q_int = np.ceil(np.asarray(frac_q, dtype=float) - INTEGRAL_TOL).astype(int)
    return np.maximum(q_int, 0)


def round_nearest(layout: SlotLayout, frac_q, clusters, rng):
    """IRR: round every count half-up; None when some VNF's capacity misses its demand."""
    q_int = np.floor(np.asarray(frac_q, dtype=float) + 0.5).astype(int)
    demand = layout.demand
    supply = (q_int * layout.inst.capacity).sum(axis=1)
    if np.any(demand - supply > 1e-7 * np.maximum(1.0, demand)):
        return None
    return q_int
