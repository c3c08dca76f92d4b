"""Datacenter clustering with a median delay threshold.

Runs once per instance.  Starting from singletons, clusters merge while every
cross pair sits within the threshold R (the median inter-datacenter delay);
leftover singletons then join the cluster whose farthest member is nearest.
After that last step a cluster may exceed R internally; that is deliberate.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

__all__ = ["ClusterSet", "cluster", "write_cluster_csv"]


@dataclass(frozen=True)
class ClusterSet:
    """Partition of the datacenters plus the threshold that produced it.

    ``merged`` records the state before isolated singletons were folded in;
    within those clusters every pairwise delay is <= ``threshold`` exactly.
    """

    clusters: tuple  # tuple of tuples of datacenter indices, each sorted
    threshold: float
    merged: tuple  # pre-singleton-merge partition

    @property
    def assignment(self) -> dict:
        out = {}
        for cid, members in enumerate(self.clusters):
            for i in members:
                out[i] = cid
        return out


def cluster(dc_delays: np.ndarray) -> ClusterSet:
    """Partition datacenters by pairwise delay.

    ``dc_delays`` is the delay matrix restricted to datacenters.  Cluster
    pairs are scanned in ascending order of their smallest member ids and the
    scan restarts after every merge, which pins down the (otherwise
    unspecified) merge order and makes results reproducible.  Ties when
    placing an isolated singleton go to the cluster with the smallest member.
    A single datacenter forms one cluster with threshold 0.

    The scans read a complete-linkage matrix over the datacenter ids:
    ``link[u, v]`` is the largest delay between the cluster whose smallest
    member is u and the one whose smallest member is v.  It starts as
    ``dc_delays``.  A merge or fold of v into u < v takes the element-wise
    maximum of rows (and columns) u and v into u and drops v by setting its
    row and column to NaN, which no comparison matches.  So row-major order
    over the live entries is the scan order over clusters sorted by smallest
    member.  Delays are expected finite and symmetric, as in a validated
    instance.
    """
    d = np.asarray(dc_delays, dtype=float)
    n = d.shape[0]
    if n < 1:
        raise ValueError("clustering needs at least one datacenter")
    if n == 1:  # no pair sets a threshold: the datacenter is its own cluster
        return ClusterSet(((0,),), 0.0, ((0,),))
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    threshold = float(np.median(d[upper]))

    members = {i: [i] for i in range(n)}  # keyed by smallest member, so iterated in that order
    link = d.copy()
    # merge the first cluster pair, row-major, whose farthest members are within the threshold
    while True:
        within = (link <= threshold) & upper
        first = int(np.argmax(within))
        if not within.flat[first]:
            break
        _join(link, members, *divmod(first, n))
    pre_merge = tuple(tuple(c) for c in members.values())

    # fold isolated singletons, lowest id first, into the cluster whose
    # farthest member is nearest (ties to the lowest member id)
    while len(members) > 1:
        u = next((h for h, c in members.items() if len(c) == 1), None)
        if u is None:
            break
        others = [h for h in members if h != u]
        v = others[int(np.argmin(link[u, others]))]
        _join(link, members, min(u, v), max(u, v))
    return ClusterSet(tuple(tuple(c) for c in members.values()), threshold, pre_merge)


def _join(link: np.ndarray, members: dict, u: int, v: int) -> None:
    """Merge cluster v into cluster u < v, in place."""
    np.maximum(link[u], link[v], out=link[u])
    link[:, u] = link[u]
    link[v, :] = link[:, v] = np.nan
    members[u] = sorted(members[u] + members.pop(v))


def write_cluster_csv(path, clusters: ClusterSet) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["datacenter_id", "cluster_id"])
        for i, cid in sorted(clusters.assignment.items()):
            w.writerow([i, cid])
