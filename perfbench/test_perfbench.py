"""Self-checks of the benchmark: its slot loop, its tracer and its metric lists.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from chainscale import coa, workload  # noqa: E402

#: a short desk workload: three slots and a tiny node budget keep the checks fast
SHORT = dataclasses.replace(
    bench.WORKLOADS["desk-exact"],
    config=dataclasses.replace(bench.DESK, horizon=3),
    instance_seeds=(0,),
    exact_nodes=3,
)


def test_slot_loop_reproduces_run_coa():
    inst, slots = workload.build_instance(bench.DESK, 0)
    clusters = bench.clustering.cluster(inst.dc_delays())
    seed = bench.rounding_seed(7, 0)
    ledger = bench.Ledger()
    _, ints, seconds, frac_total, int_total = bench.online_slots(inst, slots, clusters, seed, ledger)
    reference = coa.run_coa(inst, slots, seed)
    assert len(seconds) == len(slots) == ledger.attempted
    assert int_total == reference.total_integer
    assert frac_total == reference.total_fractional
    for ours, theirs in zip(ints, reference.records):
        assert (ours.q == theirs.integer.q).all()


def _profile_counts(codes: dict, fn):
    """Calls of each code object while ``fn`` runs, counted by the profiler hook."""
    counts = dict.fromkeys(codes.values(), 0)

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in counts:
            counts[frame.f_code] += 1

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return {name: counts[code] for name, code in codes.items()}


def test_traced_call_counts_match_an_independent_counter():
    tracer = tracing.Tracer()
    codes = {name: inspect.unwrap(original).__code__ for _, _, name, original in tracer.targets()}
    ledger = bench.Ledger()

    def traced_evaluation():
        tracer.install()
        try:
            ins = bench.setup(SHORT, 0)
            bench.evaluate(SHORT, ins, 0, ledger)
        finally:
            tracer.uninstall()

    expected = _profile_counts(codes, traced_evaluation)
    seen = {name: 0 for name in codes}
    for span in tracer.spans:
        seen[span.name] += 1
    assert seen == expected
    assert seen["coa.coa_step"] == 3 and seen["coa.reroute"] > 0 and seen["solver.highs"] > 0
    assert seen["solver.solve_entropy"] == 3 and seen["numpy.linalg.cholesky"] > 0
    assert ledger.failures == 0


def test_uninstall_restores_every_original():
    tracer = tracing.Tracer()
    before = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in tracer.targets()]
    imported = coa.orfa_step  # a name coa imported from orfa
    tracer.install()
    assert all(vars(owner)[attr] is not original for owner, attr, original in before)
    assert coa.orfa_step is not imported and coa.orfa_step.__wrapped__ is imported
    tracer.uninstall()
    assert all(vars(owner)[attr] is original for owner, attr, original in before)
    assert coa.orfa_step is imported


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    parent = tracing.Span("a", 0.0, -1, 0)
    parent.end = 10.0
    kids = [tracing.Span("b", 1.0, 0, 0), tracing.Span("b", 5.0, 0, 0)]
    kids[0].end, kids[1].end = 3.0, 8.0
    tracer.spans = [parent, *kids]
    assert tracer.self_times() == [5.0, 2.0, 3.0]


def test_benchmark_json_matches_the_harness():
    spec = run.load_spec()
    assert {w["name"] for w in spec["workloads"]} <= set(bench.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} <= set(run.E2E_UNITS)
    assert all(run.E2E_UNITS[m["name"]] == m["unit"] for m in spec["end_to_end"])
    layers = set(tracing.layer_metrics(tracing.Tracer(), 1, 1)) | {"bench.tracing_overhead"}
    assert {m["name"] for m in spec["per_layer"]} == layers


@pytest.mark.parametrize("samples,expected", [(list(range(19)), None), (list(range(100)), 89)])
def test_tail_keeps_ten_samples_beyond(samples, expected):
    pct, value = bench.tail(samples)
    if expected is None:
        assert pct != pct  # nan
    else:
        assert value == expected and sum(s > value for s in samples) == 10 and pct == 90.0


def test_time_between_slots_is_not_evaluation_time():
    calls = []

    def between():
        calls.append(time.perf_counter())
        time.sleep(0.2)

    ins = bench.setup(SHORT, 0)
    t0 = time.perf_counter()
    ev = bench.evaluate(SHORT, ins, 0, bench.Ledger(), between)
    wall = time.perf_counter() - t0
    assert len(calls) == len(ev.slot_seconds) == 3
    assert wall - ev.seconds >= 0.6
