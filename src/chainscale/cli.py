"""Experiment runner: sweeps, baselines, oracles, plot-ready CSV output.

One run = one (sweep value, seed) pair: generate or load an instance, run the
fractional planner once, derive each selected algorithm's integer trajectory
from that shared fractional stream, price everything, and divide by the
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

from .coa import _integer_slot, bound_ingredients, run_coa
from .io import load_instance
from .layout import SlotLayout
from .model import ProblemInstance, validate_instance
from .oracle import RatioReport, build_dual_certificate, min_positive_deployment, solve_exact, solve_relaxation
from .orfa import run_orfa
from .rates import CostBreakdown, cost_of_plan, sum_costs
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
        if self.instance_path and self.sweep not in ("epsilon", "none"):
            raise ValueError("file-based instances only support the epsilon sweep")


def baseline_irr(frac_plan, inst: ProblemInstance, slot, prev_q_int):
    """Independent rounding to the nearest integer, routed; None when no routing exists."""
    return _integer_slot(inst, slot, SlotLayout(inst, slot), frac_plan.q, prev_q_int, round_nearest, None, None)


def baseline_gr(frac_plan, inst: ProblemInstance, slot, prev_q_int):
    """Greedy rounding: ceil every fractional count, routed; always feasible."""
    return _integer_slot(inst, slot, SlotLayout(inst, slot), frac_plan.q, prev_q_int, round_up, None, None)


def _materialize(spec: ExperimentSpec, sweep_value, seed: int):
    """Instance + slots for one run, with the sweep value applied."""
    if spec.instance_path:
        inst = load_instance(spec.instance_path)
        if spec.sweep == "epsilon":
            inst = replace(inst, epsilon=float(sweep_value))
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
    return build_instance(cfg, seed)


def run_single(spec: ExperimentSpec, sweep_value, seed: int) -> list:
    """All result rows for one (sweep value, seed) pair."""
    inst, slots = _materialize(spec, sweep_value, seed)
    report = validate_instance(inst)
    if not report.ok:
        raise ValueError(f"instance invalid for sweep={sweep_value} seed={seed}:\n{report}")

    frac_plans = run_orfa(inst, slots)
    prev = np.zeros((inst.num_vnfs, inst.num_datacenters))
    frac_costs = []
    for slot, plan in zip(slots, frac_plans):
        frac_costs.append(cost_of_plan(inst, slot, plan, prev))
        prev = plan.q
    frac_total = sum_costs(frac_costs)

    relaxation = exact = certificate = math.nan
    exact_optimal = False
    cert_feasible = ""
    if "relaxation" in spec.oracles:
        relaxation = solve_relaxation(inst, slots).objective
    if "exact" in spec.oracles:
        ex = solve_exact(inst, slots, time_limit=spec.exact_time_limit, node_limit=spec.exact_node_limit)
        exact, exact_optimal = ex.objective, ex.optimal
    if "certificate" in spec.oracles:
        cert = build_dual_certificate(inst, slots, frac_plans)
        certificate = cert.objective
        cert_feasible = cert.feasible

    ingredients = bound_ingredients(inst, slots)
    phi = min_positive_deployment(frac_plans)

    certified = certificate if cert_feasible is True else math.nan
    rows = []
    for algo in spec.algorithms:
        feasible, cost = True, frac_total
        if algo != "ORFA":
            rounder = {"COA": round_owdr, "IRR": round_nearest, "GR": round_up}[algo]
            result = run_coa(inst, slots, seed, frac_plans=frac_plans, rounder=rounder)
            feasible = result is not None
            cost = result.total_integer if feasible else CostBreakdown(math.nan, math.nan, math.nan, math.nan)
        report = RatioReport(
            online_cost=cost.total,
            fractional_cost=frac_total.total,
            relaxation=relaxation,
            exact=exact,
            exact_optimal=exact_optimal,
            certificate=certified,
            phi=phi,
            ingredients=ingredients,
        )
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
            "ratio_vs_relaxation": report.online_vs_relaxation,
            "ratio_vs_exact": report.online_vs_exact,
            "ratio_vs_certificate": report.online_vs_certificate,
            "eta": ingredients["eta"],
            "phi": phi,
            "phi1": ingredients["phi1"],
            "phi2": ingredients["phi2"],
            "phi3": ingredients["phi3"],
            "bound_fractional": report.fractional_ratio_bound,
            "bound_integer": report.integer_ratio_bound,
        })
    return rows


def _run_single_star(args):
    return run_single(*args)


def run_experiment(spec: ExperimentSpec) -> dict:
    """Run the full sweep and write results.csv plus summary.json.

    Returns the summary dict.  Runs are independent; with ``jobs > 1`` they
    execute in a process pool, output order staying deterministic.
    """
    import os

    spec.validate()
    os.makedirs(spec.out_dir, exist_ok=True)
    values = spec.values if spec.sweep != "none" else (None,)
    tasks = [(spec, v, s) for v in values for s in spec.seeds]
    if spec.jobs > 1:
        with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
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
    if args.instance and not args.trace:
        print("error: --instance requires --trace", file=sys.stderr)
        return 2
    try:
        spec = spec_from_args(args)
        spec.validate()
    except ValueError as exc:
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
