"""Online scaling of VNF service chains across geo-distributed datacenters.

Library layout:

* ``model`` — static domain types and instance validation
* ``rates`` — rate propagation, the cost record, plan residuals
* ``layout`` — one slot's variable indexing, constraint rows and cost vector, its plan ``SlotPlan`` and plan pricing
* ``solver`` — LP and entropy-regularized solves with dual multipliers
* ``orfa`` — the per-slot regularized fractional planner
* ``clustering`` — median-threshold datacenter clustering
* ``rounding`` — dependent rounding over cluster stars; the GR/IRR policies
* ``coa`` — the complete online pipeline with flow redirection
* ``oracle`` — offline optima: the horizon LP, branch-and-bound, dual certificates
* ``workload`` — reproducible synthetic instances and traces
* ``cli`` — the experiment runner and its ratios against the offline bounds
"""

from . import clustering, coa, io, model, oracle, orfa, rates, rounding, solver, workload

__all__ = [
    "clustering",
    "coa",
    "io",
    "model",
    "oracle",
    "orfa",
    "rates",
    "rounding",
    "solver",
    "workload",
]

__version__ = "0.1.0"
