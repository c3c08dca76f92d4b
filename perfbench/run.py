"""Benchmark of the online slot pipeline and the offline oracles.

Run from the repository root:

    python3 perfbench/run.py --workload desk-exact --seed 0 --seconds 50 --trace 0

Workloads are defined in ``perfbench/bench.py``.  Each run evaluates the
workload's instances, in an order drawn from ``--seed`` and with rounding
draws seeded from it, until ``--seconds`` have passed (always at least one
full pass).  It prints host and provenance, every end-to-end metric with its
unit, the output checks, and as its last line one JSON object.  With
``--trace 1`` an untimed warm-up evaluation of a one-slot instance comes
first; then each instance is evaluated twice, untraced and with every public
library function wrapped, in alternating order.  The JSON then carries the
per-layer metrics, and the spans go to ``perfbench/out/``.  The process uses
one BLAS thread.
"""

from __future__ import annotations

import os

# set before numpy loads: with two BLAS threads, identical runs differed by ~10 %
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import gc
import json
import math
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: units of every end-to-end figure printed; BENCHMARK.json gates those that every workload yields
E2E_UNITS = {
    "setup_s": "s",
    "slot_s_p50": "s",
    "slot_s_tail": "s",
    "instance_s": "s",
    "relaxation_s": "s",
    "exact_s": "s",
    "certificate_s": "s",
    "ratio_coa": "ratio",
    "fail_rate": "share",
    "peak_rss_mb": "MB",
}


def load_spec() -> dict:
    """BENCHMARK.json: names and units of the metrics on the final JSON line."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_commit() -> str:
    """The checked-out commit, or 'unknown' outside a git checkout."""
    if not (ROOT / ".git").exists():  # git would otherwise report an enclosing repository
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def host_info(wl, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "commit": git_commit(),
        "workload_seed": seed,
        "instance_seeds": list(wl.instance_seeds),
        "config": dict(vars(wl.config)),
    }


def measure(wl, seed: int, seconds: float, traced: bool) -> dict:
    # imported here: main puts the library on the path only after checking it exists
    import numpy as np

    from bench import (
        Ledger,
        OperationFailed,
        check,
        check_relaxation_duals,
        evaluate,
        per_instance_median,
        setup,
        timed_setups,
        tail,
    )
    from tracing import Tracer, layer_metrics

    ledger = Ledger()
    tracer = Tracer() if traced else None
    setup_blocks, evals, traced_evals = [], [], []
    order = [int(s) for s in np.random.default_rng(seed).permutation(list(wl.instance_seeds))]
    last, first = {}, {}

    def untraced(key):
        ins = timed_setups(wl, key, setup_blocks)
        gc.collect()  # no collection of an earlier evaluation's garbage inside this one
        try:
            ev = evaluate(wl, ins, seed, ledger, lambda: timed_setups(wl, key, setup_blocks, blocks=1))
        except OperationFailed:
            ev = None
        timed_setups(wl, key, setup_blocks)
        if ev is not None:
            evals.append(ev)
            check(wl, ins, ev, ledger)
            first.setdefault(key, (ins, ev))

    def traced_once(key):
        tracer.instance = key
        gc.collect()
        tracer.install()
        try:
            ins = setup(wl, key)
            ev = evaluate(wl, ins, seed, ledger)
        except OperationFailed:
            ev = None
        finally:
            tracer.uninstall()
        if ev is not None:
            traced_evals.append(ev)
            check(wl, ins, ev, ledger)

    if traced:
        # an untimed warm-up on a one-slot instance, so that neither side of the
        # tracing overhead is a cold first evaluation in this process
        short = dataclasses.replace(wl, config=dataclasses.replace(wl.config, horizon=1))
        try:
            evaluate(short, setup(short, order[0]), seed, Ledger())
        except OperationFailed:
            pass
    start = time.perf_counter()
    i = 0
    while True:
        key = order[i % len(order)]
        # after one full pass, stop before an evaluation that would overrun the budget
        if i >= len(order) and time.perf_counter() - start + last[key] > seconds:
            break
        began = time.perf_counter()
        if not traced:
            untraced(key)
        elif (i + seed) % 2 == 0:  # alternate the order, so that drift favours neither side
            untraced(key)
            traced_once(key)
        else:
            traced_once(key)
            untraced(key)
        i += 1
        last[key] = time.perf_counter() - began
    wall = time.perf_counter() - start
    for ins, ev in first.values():
        check_relaxation_duals(ins, ev, ledger)

    slot_samples = [s for ev in evals for s in ev.slot_seconds]
    pct, tail_value = tail(slot_samples)
    ratios = {ev.instance: ev.ratio_coa for ev in evals}
    finite = [r for r in ratios.values() if math.isfinite(r)]
    e2e = {
        # the fastest block: the median of these millisecond samples follows the host's drift
        "setup_s": min(setup_blocks),
        "slot_s_p50": float(np.median(slot_samples)) if slot_samples else math.nan,
        "slot_s_tail": tail_value,
        "instance_s": per_instance_median(evals, "seconds"),
        "relaxation_s": per_instance_median(evals, "relaxation_seconds"),
        "exact_s": per_instance_median(evals, "exact_seconds"),
        "certificate_s": per_instance_median(evals, "certificate_seconds"),
        "ratio_coa": sum(finite) / len(finite) if finite else math.nan,
        "fail_rate": ledger.failures / max(1, ledger.attempted),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    result = {
        "workload": wl.name,
        "host": host_info(wl, seed),
        "evaluations": len(evals),
        "slot_samples": len(slot_samples),
        "slot_tail_percentile": pct,
        "setup_blocks": setup_blocks,
        "end_to_end": e2e,
        "attempted": ledger.attempted,
        "failed": ledger.failures,
        "failures": ledger.failed,
        "known_defects": ledger.known,
        "wall_s": wall,
        "samples": [
            {"instance": ev.instance, "seconds": ev.seconds, "relaxation_seconds": ev.relaxation_seconds,
             "exact_seconds": ev.exact_seconds, "certificate_seconds": ev.certificate_seconds,
             "slot_seconds": ev.slot_seconds}
            for ev in evals
        ],
    }
    if traced:
        slots = sum(len(ev.slot_seconds) or wl.config.horizon for ev in traced_evals)
        layers = layer_metrics(tracer, len(traced_evals), slots)
        layers["bench.tracing_overhead"] = per_instance_median(traced_evals, "seconds") / e2e["instance_s"]
        result["per_layer"] = layers
        result["traced_evaluations"] = len(traced_evals)
        result["spans"] = len(tracer.spans)
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(OUT / f"spans-{wl.name}-seed{seed}.jsonl")
    return result


def report(result: dict, spec: dict, traced: bool) -> dict:
    """Print the human-readable report; return the final JSON line."""
    print(f"workload {result['workload']}: {result['evaluations']} evaluations in {result['wall_s']:.1f} s")
    for key, value in result["host"].items():
        print(f"  host.{key} = {value}")
    print("end-to-end metrics (untraced):")
    for name, value in result["end_to_end"].items():
        text = "n/a (not part of this workload)" if math.isnan(value) else f"{value:.6g} {E2E_UNITS[name]}"
        if name == "slot_s_tail" and result["slot_samples"]:
            if math.isnan(value):
                text = f"n/a (fewer than 20 slot samples: {result['slot_samples']})"
            else:
                text += f" (p{result['slot_tail_percentile']:.1f} of {result['slot_samples']} slot samples)"
        print(f"  {name} = {text}")
    print(f"checks: {result['attempted']} operations attempted, {result['failed']} failed")
    for name, count in sorted(result["failures"].items()):
        print(f"  FAILED {name}: {count}")
    for name, count in sorted(result["known_defects"].items()):
        print(f"  KNOWN DEFECT {name}: {count} (reported apart from the failure count)")
    if traced:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print(f"per-layer metrics ({result['traced_evaluations']} traced evaluations, {result['spans']} spans):")
        for name, value in result["per_layer"].items():
            print(f"  {name} = {value:.6g} {units[name]}")
        values = result["per_layer"]
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = result["end_to_end"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return {
        "correct": result["failed"] == 0 and result["evaluations"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "chainscale" / "__init__.py").is_file():
        print(f"error: library sources not found under {src}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from bench import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    line = report(result, load_spec(), bool(args.trace))
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1, default=str))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
