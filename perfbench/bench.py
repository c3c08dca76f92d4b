"""Workloads, the timed evaluation of one instance, and the output checks.

One *evaluation* is what one ``results.csv`` row group costs: the online
slots (one ``coa.coa_step`` each), the GR and IRR baselines on the same
fractional plans, costing, the ratio-bound ingredients and the workload's
oracles.  Instance set-up (generation, validation, clustering) is timed on
its own, and the output checks run after the clock stops.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from chainscale import cli, clustering, coa, model, oracle, rates, solver, workload

#: the acceptance suite's desk configuration (``SHOCK_CFG``) at shock level 100
DESK = workload.WorkloadConfig(
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
    shock_level=100.0,
)

#: never binds, so the node budget alone ends each branch-and-bound search
EXACT_TIME_LIMIT = 1e9
#: set-ups are timed in blocks of SETUP_BLOCK calls: SETUP_BLOCKS blocks before
#: and again after each instance evaluation, and one after each online slot
#: (outside the evaluation's time), so that they sample the whole run
SETUP_BLOCK = 5
SETUP_BLOCKS = 5
#: relative tolerance of the plan-residual and objective-equality checks
TOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    config: workload.WorkloadConfig
    instance_seeds: tuple
    online: bool  # online slots, GR/IRR baselines and the dual certificate
    exact_nodes: int = 0  # branch-and-bound node budget; 0 skips the exact oracle


WORKLOADS = {
    w.name: w
    for w in (
        # Python-overhead regime: small Newton systems, thousands of small HiGHS
        # LPs in branch-and-bound; the node budget is set for run length
        Workload("desk-exact", DESK, tuple(range(8)), online=True, exact_nodes=30),
        # factorization-bound regime: the Newton solves take almost all the time
        Workload(
            "mid-online", workload.WorkloadConfig(num_datacenters=10, num_chains=10, horizon=12), (3,), online=True
        ),
        # one large LP and its assembly, no Newton solve at all; not in
        # BENCHMARK.json because its run-to-run spread leaves no margin under
        # the largest bound a gated metric may have
        Workload(
            "horizon-relaxation",
            workload.WorkloadConfig(num_datacenters=20, num_chains=20, horizon=24),
            (1,),
            online=False,
        ),
    )
}


class OperationFailed(Exception):
    """An operation raised; the rest of its instance evaluation is skipped."""


class Ledger:
    """Attempted operations and named failures; a failure never aborts the run.

    ``known`` counts occurrences of program defects that a check detects but
    that are reported apart from ``failed`` (see ``expect_defect``).
    """

    def __init__(self):
        self.attempted = 0
        self.failed = {}
        self.known = {}

    @property
    def failures(self) -> int:
        return sum(self.failed.values())

    def _fail(self, name: str) -> None:
        self.failed[name] = self.failed.get(name, 0) + 1

    @contextmanager
    def op(self, name: str):
        self.attempted += 1
        try:
            yield
        except Exception as exc:
            self._fail(name)
            traceback.print_exc(file=sys.stderr)
            raise OperationFailed(name) from exc

    def check(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self._fail(name)
        return ok

    def expect_defect(self, name: str, present: bool) -> None:
        if present:
            self.known[name] = self.known.get(name, 0) + 1


@dataclass
class Instance:
    seed: int
    inst: object
    slots: list
    clusters: object
    report: object


def setup(wl: Workload, seed: int) -> Instance:
    """Generate, validate and cluster one instance."""
    inst, slots = workload.build_instance(wl.config, seed)
    report = model.validate_instance(inst)
    clusters = clustering.cluster(inst.dc_delays())
    return Instance(seed, inst, slots, clusters, report)


def timed_setups(wl: Workload, seed: int, block_means: list, blocks: int = SETUP_BLOCKS) -> Instance:
    """Set one instance up ``blocks`` * SETUP_BLOCK times, appending each block's mean time."""
    for _ in range(blocks):
        t0 = time.perf_counter()
        for _ in range(SETUP_BLOCK):
            ins = setup(wl, seed)
        block_means.append((time.perf_counter() - t0) / SETUP_BLOCK)
    return ins


@dataclass
class Evaluation:
    instance: int
    seconds: float
    slot_seconds: list
    relaxation_seconds: float
    certificate_seconds: float = math.nan
    exact_seconds: float = math.nan
    ratio_coa: float = math.nan
    outputs: dict = field(default_factory=dict, repr=False)


def rounding_seed(run_seed: int, instance_seed: int) -> int:
    """Seed of one instance's rounding draws, spawned per slot as ``run_coa`` does."""
    return int(np.random.SeedSequence([run_seed, instance_seed]).generate_state(1)[0])


def online_slots(inst, slots, clusters, seed: int, ledger: Ledger, between=None):
    """The online pipeline, one timed ``coa.coa_step`` per slot.

    Returns (fractional plans, integer plans, per-slot seconds, fractional
    total, integer total); costing is not part of a slot's time.  ``between``,
    if given, is called after each slot.
    """
    M, I = inst.num_vnfs, inst.num_datacenters
    gens = np.random.default_rng(seed).spawn(len(slots))
    prev_qf, prev_qi = np.zeros((M, I)), np.zeros((M, I), dtype=int)
    fracs, ints, seconds = [], [], []
    frac_total = int_total = rates.CostBreakdown()
    for slot, gen in zip(slots, gens):
        with ledger.op("coa.coa_step"):
            t0 = time.perf_counter()
            frac, integer = coa.coa_step(inst, slot, prev_qf, prev_qi, clusters, gen)
            seconds.append(time.perf_counter() - t0)
            frac_total = frac_total + rates.cost_of_plan(inst, slot, frac, prev_qf)
            int_total = int_total + rates.cost_of_plan(inst, slot, integer, prev_qi)
        fracs.append(frac)
        ints.append(integer)
        prev_qf, prev_qi = frac.q, integer.q
        if between is not None:
            between()
    return fracs, ints, seconds, frac_total, int_total


def baseline(name: str, inst, slots, frac_plans, ledger: Ledger):
    """Cost of a per-slot rounding baseline; None once IRR finds no routing."""
    rounder = getattr(cli, f"baseline_{name}")
    prev = np.zeros((inst.num_vnfs, inst.num_datacenters), dtype=int)
    total = rates.CostBreakdown()
    for slot, frac in zip(slots, frac_plans):
        with ledger.op(f"cli.baseline_{name}"):
            plan = rounder(frac, inst, slot, prev)
            if plan is None:
                return None
            total = total + rates.cost_of_plan(inst, slot, plan, prev)
        prev = plan.q
    return total


def evaluate(wl: Workload, ins: Instance, run_seed: int, ledger: Ledger, between=None) -> Evaluation:
    """Time one instance's whole evaluation; raises OperationFailed on a failed operation.

    ``between``, if given, runs after each online slot; its time is not part
    of the evaluation's.
    """
    inst, slots = ins.inst, ins.slots
    out = {}
    slot_s = []
    cert_s = exact_s = math.nan
    paused = 0.0

    def pause():
        nonlocal paused
        t0 = time.perf_counter()
        between()
        paused += time.perf_counter() - t0

    start = time.perf_counter()
    if wl.online:
        fracs, ints, slot_s, frac_total, int_total = online_slots(
            inst, slots, ins.clusters, rounding_seed(run_seed, ins.seed), ledger, pause if between else None
        )
        out.update(fracs=fracs, ints=ints, frac_total=frac_total, int_total=int_total)
        baseline("gr", inst, slots, fracs, ledger)
        baseline("irr", inst, slots, fracs, ledger)
        with ledger.op("coa.bound_ingredients"):
            out["ingredients"] = coa.bound_ingredients(inst, slots, ins.clusters)
    with ledger.op("oracle.solve_relaxation"):
        t0 = time.perf_counter()
        out["relaxation"] = rel = oracle.solve_relaxation(inst, slots)
        rel_s = time.perf_counter() - t0
    if wl.online:
        with ledger.op("oracle.build_dual_certificate"):
            t0 = time.perf_counter()
            out["certificate"] = oracle.build_dual_certificate(inst, slots, out["fracs"])
            cert_s = time.perf_counter() - t0
    if wl.exact_nodes:
        with ledger.op("oracle.solve_exact"):
            t0 = time.perf_counter()
            out["exact"] = oracle.solve_exact(inst, slots, time_limit=EXACT_TIME_LIMIT, node_limit=wl.exact_nodes)
            exact_s = time.perf_counter() - t0
    seconds = time.perf_counter() - start - paused
    ratio = math.nan
    # only an optimal relaxation is a valid denominator; the certificate never is one here
    if wl.online and rel.status == solver.OPTIMAL and rel.objective > 0:
        ratio = out["int_total"].total / rel.objective
    return Evaluation(ins.seed, seconds, slot_s, rel_s, cert_s, exact_s, ratio, out)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def check(wl: Workload, ins: Instance, ev: Evaluation, ledger: Ledger) -> None:
    """The output checks of one evaluation; failures are counted, never raised."""
    inst, slots, out = ins.inst, ins.slots, ev.outputs
    ledger.check("model.validate_instance", ins.report.ok)
    if wl.online:
        for slot, frac, integer in zip(slots, out["fracs"], out["ints"]):
            profile = rates.slot_rates(inst, slot)
            scale = max(1.0, float(np.max(slot.rates, initial=0.0)))
            for kind, plan in (("fractional", frac), ("integer", integer)):
                worst = max(rates.plan_residuals(inst, slot, plan, profile).values())
                ledger.check(f"slot.{kind}_residuals", worst <= TOL * scale)
            demand = rates.vnf_demand(inst, profile)
            supply = (integer.q * inst.capacity).sum(axis=1)
            covered = bool(np.all(supply >= demand - TOL * np.maximum(1.0, demand)))
            ledger.check("slot.rounded_capacity_covers_demand", covered)
    rel = out["relaxation"]
    if not ledger.check("relaxation.optimal", rel.status == solver.OPTIMAL):
        return
    prev = np.zeros((inst.num_vnfs, inst.num_datacenters))
    priced = 0.0
    for slot, plan in zip(slots, rel.plans):
        priced += rates.cost_of_plan(inst, slot, plan, prev).total
        prev = plan.q
    ledger.check("relaxation.objective_equals_plan_cost", _close(priced, rel.objective))
    if wl.online:
        ledger.check("relaxation.at_most_fractional_online", rel.objective <= out["frac_total"].total * (1 + TOL))
        bound = out["ingredients"]["integer_ratio_bound"]
        ledger.check("coa.within_integer_ratio_bound", out["int_total"].total <= bound * rel.objective * (1 + TOL))
        cert = out["certificate"]
        if cert.feasible:
            ledger.check("certificate.at_most_relaxation", cert.objective <= rel.objective * (1 + TOL))
    if "exact" in out:
        ex = out["exact"]
        if math.isfinite(ex.objective):
            ledger.check("exact.at_least_relaxation", ex.objective >= rel.objective * (1 - TOL))
        ledger.expect_defect("exact.nan_objective_reports_zero_gap", math.isnan(ex.objective) and ex.gap == 0.0)


def check_relaxation_duals(ins: Instance, ev: Evaluation, ledger: Ledger) -> None:
    """The relaxation's dual objective matches its objective.

    The relaxation result does not carry its dual objective, so this re-solves
    the horizon LP; the harness runs it once per instance, after measuring.
    """
    rel = ev.outputs["relaxation"]
    res = solver.solve_lp(oracle.HorizonProgram(ins.inst, ins.slots).lp)
    matches = _close(res.dual_objective, res.objective) and _close(res.objective, rel.objective)
    ledger.check("relaxation.dual_objective_matches", res.status == solver.OPTIMAL and matches)


def _median(values):
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else math.nan


def per_instance_median(evals, attr: str) -> float:
    """Median over instances of each instance's median, so repeats weigh equally."""
    by = {}
    for ev in evals:
        by.setdefault(ev.instance, []).append(getattr(ev, attr))
    return _median([_median(v) for v in by.values()])


def tail(samples) -> tuple:
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    if n < 20:  # below the median: no tail worth the name
        return math.nan, math.nan
    ordered = sorted(samples)
    return 100.0 * (n - 10) / n, ordered[n - 11]
