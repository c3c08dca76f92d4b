"""Experiment runner: sweeps, baselines, oracles, plot-ready CSV output.

One run = one (sweep value, seed) pair: generate or load an instance, make
one online pass that plans each slot fractionally and rounds it with every
selected policy on the same slot layout, price everything, and divide by the
selected offline denominators.  Raw rows land in ``results.csv``; per-sweep
aggregates in ``summary.json``.  Plotting is left to external tools.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .coa import _integer_slot, run_online
from .io import load_instance
from .layout import SlotLayout
from .model import InputError, ProblemInstance, validate_instance
from .oracle import (
    MAX_HORIZON_COLUMNS,
    build_dual_certificate,
    horizon_columns,
    min_positive_deployment,
    solve_exact,
    solve_relaxation,
)
from .rates import CostBreakdown
from .rounding import round_nearest, round_owdr, round_up
from .workload import WorkloadConfig, build_instance, slots_from_trace

ALGORITHMS = ("ORFA", "COA", "IRR", "GR")
ORACLES = ("relaxation", "exact", "certificate")
SWEEPS = ("datacenters", "slots", "shock", "epsilon", "none")

RESULT_COLUMNS = [
    "sweep_param", "sweep_value", "seed", "algorithm", "feasible",
    "cost_total", "cost_run", "cost_deploy", "cost_transfer", "cost_delay",
    "relaxation", "exact", "exact_optimal", "certificate", "certificate_feasible",
    "ratio_vs_relaxation", "ratio_vs_exact", "ratio_vs_certificate",
    "eta", "phi", "phi1", "phi2", "phi3",
    "bound_fractional", "bound_integer",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """A validated experiment description."""

    algorithms: tuple
    oracles: tuple
    sweep: str
    values: tuple
    seeds: tuple
    out_dir: str
    instance_path: str = None
    trace_path: str = None
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    exact_time_limit: float = 60.0
    exact_node_limit: int = 100_000
    jobs: int = 1

    def validate(self) -> None:
        if not self.algorithms:
            raise ValueError("select at least one algorithm")
        if not self.oracles:
            raise ValueError("select at least one oracle")
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {a!r}; choose from {ALGORITHMS}")
        for o in self.oracles:
            if o not in ORACLES:
                raise ValueError(f"unknown oracle {o!r}; choose from {ORACLES}")
        if self.sweep not in SWEEPS:
            raise ValueError(f"unknown sweep parameter {self.sweep!r}; choose from {SWEEPS}")
        if self.sweep != "none" and not self.values:
            raise ValueError("sweep requires at least one value")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if self.instance_path and not self.trace_path:
            raise ValueError("--instance requires --trace: a file-based instance needs its flow-rate trace")
        if self.instance_path and self.sweep not in ("epsilon", "none"):
            raise ValueError("file-based instances only support the epsilon sweep")
        if not self.exact_time_limit > 0:
            raise ValueError(f"exact time limit must be positive, got {self.exact_time_limit}")
        if not self.exact_node_limit >= 1:
            raise ValueError(f"exact node limit must be at least 1, got {self.exact_node_limit}")
        if not self.jobs >= 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")


def baseline_irr(frac_plan, inst: ProblemInstance, slot, prev_q_int):
    """Independent rounding to the nearest integer, routed; None when no routing exists.

    ``prev_q_int`` is not read, as in ``coa.coa_step``.
    """
    return _integer_slot(SlotLayout(inst, slot), frac_plan.q, round_nearest, None, None)


def baseline_gr(frac_plan, inst: ProblemInstance, slot, prev_q_int):
    """Greedy rounding: ceil every fractional count, routed; always feasible.

    ``prev_q_int`` is not read, as in ``coa.coa_step``.
    """
    return _integer_slot(SlotLayout(inst, slot), frac_plan.q, round_up, None, None)


class HorizonTooLarge(InputError):
    """A run asks for a horizon-LP oracle whose LP would not fit in memory."""


def _valid(inst: ProblemInstance, sweep_value, seed: int) -> ProblemInstance:
    """``inst`` if ``validate_instance`` passes it, else ``InputError`` listing its violations."""
    report = validate_instance(inst)
    if not report.ok:
        raise InputError(f"instance invalid for sweep={sweep_value} seed={seed}: " + str(report).replace("\n", "; "))
    return inst


def _materialize(spec: ExperimentSpec, sweep_value, seed: int):
    """Instance + slots for one run, with the sweep value applied and the instance validated."""
    if spec.instance_path:
        inst = load_instance(spec.instance_path)
        if spec.sweep == "epsilon":
            inst = replace(inst, epsilon=float(sweep_value))
        inst = _valid(inst, sweep_value, seed)
        run_costs = inst.deploy_cost / spec.workload.deploy_cost_factor
        slots = slots_from_trace(
            spec.trace_path, inst.num_flows, inst.horizon, run_costs, spec.workload.delay_weight
        )
        return inst, slots
    cfg = spec.workload
    if spec.sweep == "datacenters":
        cfg = replace(cfg, num_datacenters=int(sweep_value))
    elif spec.sweep == "slots":
        cfg = replace(cfg, horizon=int(sweep_value))
    elif spec.sweep == "shock":
        cfg = replace(cfg, shock_level=float(sweep_value))
    elif spec.sweep == "epsilon":
        cfg = replace(cfg, epsilon=float(sweep_value))
    inst, slots = build_instance(cfg, seed)
    return _valid(inst, sweep_value, seed), slots


def _tasks(spec: ExperimentSpec) -> list:
    """Every (sweep value, seed) run of the spec, in output order."""
    values = spec.values if spec.sweep != "none" else (None,)
    return [(v, s) for v in values for s in spec.seeds]


def check_inputs(spec: ExperimentSpec) -> None:
    """Load and check every run's inputs, solving nothing; raises ``InputError`` on the first bad one.

    Besides unreadable files and invalid instances, a run that selects the
    ``relaxation`` or ``exact`` oracle is refused with ``HorizonTooLarge``
    when its horizon LP would have more than ``MAX_HORIZON_COLUMNS`` columns.
    """
    horizon_oracles = [o for o in spec.oracles if o in ("relaxation", "exact")]
    for value, seed in _tasks(spec):
        inst, slots = _materialize(spec, value, seed)
        columns = horizon_columns(inst, slots) if horizon_oracles else 0
        if columns > MAX_HORIZON_COLUMNS:
            raise HorizonTooLarge(
                f"the {' and '.join(horizon_oracles)} oracle needs a horizon LP of {columns:,} columns for "
                f"sweep={value} seed={seed}, over the limit of {MAX_HORIZON_COLUMNS:,}; use --oracles certificate"
            )


def _ratio(cost: float, bound: float) -> float:
    """``cost / bound``, or NaN unless the bound is finite and positive."""
    if not math.isfinite(bound) or bound <= 0:
        return math.nan
    return cost / bound


def run_single(spec: ExperimentSpec, sweep_value, seed: int) -> list:
    """All result rows for one (sweep value, seed) pair."""
    inst, slots = _materialize(spec, sweep_value, seed)

    policies = {"COA": round_owdr, "IRR": round_nearest, "GR": round_up}  # looked up per call, so wrappers apply
    online = run_online(inst, slots, seed, {a: policies[a] for a in spec.algorithms if a in policies})

    relaxation = exact = certificate = math.nan
    exact_optimal = False
    cert_feasible = ""
    if "relaxation" in spec.oracles:
        relaxation = solve_relaxation(inst, slots).objective
    if "exact" in spec.oracles:
        ex = solve_exact(inst, slots, time_limit=spec.exact_time_limit, node_limit=spec.exact_node_limit)
        exact, exact_optimal = ex.objective, ex.optimal
    if "certificate" in spec.oracles:
        cert = build_dual_certificate(inst, slots, online.fractional)
        certificate = cert.objective
        cert_feasible = cert.feasible

    ingredients = online.ingredients
    phi = min_positive_deployment(online.fractional)
    bound_fractional = ingredients["eta"] + 1.0 + _ratio(1.0, phi)

    # the valid denominators: the relaxation as returned (NaN unless optimal),
    # the exact result only when proven optimal, the certificate only when verified
    bounds = {
        "relaxation": relaxation,
        "exact": exact if exact_optimal else math.nan,
        "certificate": certificate if cert_feasible is True else math.nan,
    }
    rows = []
    for algo in spec.algorithms:
        feasible, cost = True, online.total_fractional
        if algo != "ORFA":
            result = online.runs[algo]
            feasible = result is not None
            cost = result.total_integer if feasible else CostBreakdown(math.nan, math.nan, math.nan, math.nan)
        rows.append({
            "sweep_param": spec.sweep,
            "sweep_value": sweep_value,
            "seed": seed,
            "algorithm": algo,
            "feasible": feasible,
            "cost_total": cost.total,
            "cost_run": cost.run,
            "cost_deploy": cost.deploy,
            "cost_transfer": cost.transfer,
            "cost_delay": cost.delay,
            "relaxation": relaxation,
            "exact": exact,
            "exact_optimal": exact_optimal,
            "certificate": certificate,
            "certificate_feasible": cert_feasible,
            "ratio_vs_relaxation": _ratio(cost.total, bounds["relaxation"]),
            "ratio_vs_exact": _ratio(cost.total, bounds["exact"]),
            "ratio_vs_certificate": _ratio(cost.total, bounds["certificate"]),
            "eta": ingredients["eta"],
            "phi": phi,
            "phi1": ingredients["phi1"],
            "phi2": ingredients["phi2"],
            "phi3": ingredients["phi3"],
            "bound_fractional": bound_fractional,
            "bound_integer": ingredients["integer_ratio_bound"],
        })
    return rows


def _run_single_star(args):
    return run_single(*args)


def run_experiment(spec: ExperimentSpec) -> dict:
    """Run the full sweep and write results.csv plus summary.json.

    Returns the summary dict.  Runs are independent; with ``jobs > 1`` and
    more than one run they execute in a pool of at most one process per run,
    output order staying deterministic.
    """
    import os

    spec.validate()
    os.makedirs(spec.out_dir, exist_ok=True)
    tasks = [(spec, v, s) for v, s in _tasks(spec)]
    workers = min(spec.jobs, len(tasks))  # the pool forks every worker up front, busy or not
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            all_rows = list(pool.map(_run_single_star, tasks))
    else:
        all_rows = [run_single(*t) for t in tasks]
    rows = [r for chunk in all_rows for r in chunk]

    results_path = os.path.join(spec.out_dir, "results.csv")
    with open(results_path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=RESULT_COLUMNS)
        w.writeheader()
        w.writerows(rows)

    summary = summarize(rows)
    with open(os.path.join(spec.out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    return summary


def summarize(rows) -> dict:
    """Mean/stddev ratios per (sweep value, algorithm), plus infeasibility rates."""
    groups = {}
    for r in rows:
        groups.setdefault((str(r["sweep_value"]), r["algorithm"]), []).append(r)
    out = {"groups": []}
    for (value, algo), members in sorted(groups.items()):
        ratios = [m["ratio_vs_relaxation"] for m in members
                  if m["feasible"] and isinstance(m["ratio_vs_relaxation"], float) and math.isfinite(m["ratio_vs_relaxation"])]
        infeasible = sum(1 for m in members if not m["feasible"])
        entry = {
            "sweep_value": value,
            "algorithm": algo,
            "runs": len(members),
            "infeasible": infeasible,
            "infeasible_rate": infeasible / len(members),
            "mean_ratio_vs_relaxation": float(np.mean(ratios)) if ratios else None,
            "std_ratio_vs_relaxation": float(np.std(ratios)) if ratios else None,
        }
        exact_ratios = [m["ratio_vs_exact"] for m in members
                        if m["feasible"] and isinstance(m["ratio_vs_exact"], float) and math.isfinite(m["ratio_vs_exact"])]
        if exact_ratios:
            entry["mean_ratio_vs_exact"] = float(np.mean(exact_ratios))
        out["groups"].append(entry)
    return out


def _parse_seeds(text: str) -> tuple:
    if ":" in text:
        a, b = text.split(":")
        return tuple(range(int(a), int(b)))
    return tuple(int(s) for s in text.split(","))


def _parse_values(text: str) -> tuple:
    return tuple(float(v) for v in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="chainscale",
        description="Run online service-chain deployment experiments and compare against offline optima.",
    )
    p.add_argument("--instance", help="instance JSON file (requires --trace); synthetic instances otherwise")
    p.add_argument("--trace", help="flow-rate trace CSV for a file-based instance")
    p.add_argument("--algorithms", default="ORFA,COA,IRR,GR", help=f"comma list from {ALGORITHMS}")
    p.add_argument("--oracles", default="relaxation,certificate", help=f"comma list from {ORACLES}")
    p.add_argument("--sweep", default="none", choices=SWEEPS, help="parameter to sweep")
    p.add_argument("--values", default="", help="comma list of sweep values")
    p.add_argument("--seeds", default="0:5", help="comma list of seeds, or a:b for a range")
    p.add_argument("--out", default="results", help="output directory")
    p.add_argument("--exact-time-limit", type=float, default=60.0, help="seconds per exact solve")
    p.add_argument("--exact-node-limit", type=int, default=100_000)
    p.add_argument("--jobs", type=int, default=1, help="parallel runs")
    # workload knobs (defaults suit oracle-checked desk scale; use --paper-scale for the large setup)
    p.add_argument("--datacenters", type=int, default=4)
    p.add_argument("--chains", type=int, default=3)
    p.add_argument("--flows", type=int, default=0, help="0 = one flow per chain")
    p.add_argument("--slots", type=int, default=12)
    p.add_argument("--shock", type=float, default=5.0)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--base-rate", type=float, default=300.0)
    p.add_argument("--endpoint-sites", type=int, default=8)
    p.add_argument("--paper-scale", action="store_true",
                   help="use the large evaluation defaults (50 datacenters, 30 chains, 200 slots)")
    return p


def spec_from_args(args) -> ExperimentSpec:
    if args.paper_scale:
        cfg = WorkloadConfig(shock_level=args.shock, epsilon=args.epsilon)
    else:
        cfg = WorkloadConfig(
            num_datacenters=args.datacenters,
            num_chains=args.chains,
            num_flows=args.flows,
            horizon=args.slots,
            shock_level=args.shock,
            epsilon=args.epsilon,
            base_rate=args.base_rate,
            num_endpoint_sites=args.endpoint_sites,
        )
    return ExperimentSpec(
        algorithms=tuple(a.strip().upper() for a in args.algorithms.split(",") if a.strip()),
        oracles=tuple(o.strip().lower() for o in args.oracles.split(",") if o.strip()),
        sweep=args.sweep,
        values=_parse_values(args.values) if args.values else (),
        seeds=_parse_seeds(args.seeds),
        out_dir=args.out,
        instance_path=args.instance,
        trace_path=args.trace,
        workload=cfg,
        exact_time_limit=args.exact_time_limit,
        exact_node_limit=args.exact_node_limit,
        jobs=args.jobs,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = spec_from_args(args)
        spec.validate()
        check_inputs(spec)  # bad files, invalid instances and oversized horizon LPs fail here, before any solve
    except ValueError as exc:  # InputError is one
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary = run_experiment(spec)
    for g in summary["groups"]:
        mean = g["mean_ratio_vs_relaxation"]
        mean_txt = f"{mean:.4f}" if mean is not None else "n/a"
        print(
            f"sweep={g['sweep_value']} algo={g['algorithm']:5s} runs={g['runs']} "
            f"mean_ratio={mean_txt} infeasible={g['infeasible']}"
        )
    print(f"results written to {spec.out_dir}/results.csv and summary.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
