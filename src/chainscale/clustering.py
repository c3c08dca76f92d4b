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
    """
    d = np.asarray(dc_delays, dtype=float)
    n = d.shape[0]
    if n < 1:
        raise ValueError("clustering needs at least one datacenter")
    if n == 1:  # no pair sets a threshold: the datacenter is its own cluster
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

    # fold isolated singletons, lowest id first, into the cluster whose
    # farthest member is nearest (ties to the lowest member id)
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


def write_cluster_csv(path, clusters: ClusterSet) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["datacenter_id", "cluster_id"])
        for i, cid in sorted(clusters.assignment.items()):
            w.writerow([i, cid])
