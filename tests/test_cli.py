import csv
import json
import math
import os

import numpy as np
import pytest

from chainscale.cli import (
    ExperimentSpec,
    baseline_gr,
    baseline_irr,
    HorizonTooLarge,
    build_parser,
    check_inputs,
    main,
    run_experiment,
    run_single,
    spec_from_args,
    summarize,
)
from chainscale import cli, clustering, coa
from chainscale.io import instance_to_dict, save_instance
from chainscale.layout import SlotLayout, SlotPlan
from chainscale.oracle import ExactResult
from chainscale.orfa import orfa_step
from chainscale.workload import WorkloadConfig, build_instance, write_trace_csv
from conftest import make_slots, single_vnf_instance

DESK_CFG = WorkloadConfig(
    num_datacenters=3,
    num_chains=2,
    horizon=4,
    num_endpoint_sites=4,
    base_rate=500.0,
    num_population_centers=4,
)


def desk_spec(tmp_path, **kw):
    defaults = dict(
        algorithms=("ORFA", "COA", "IRR", "GR"),
        oracles=("relaxation", "certificate"),
        sweep="none",
        values=(),
        seeds=(0, 1),
        out_dir=str(tmp_path / "out"),
        workload=DESK_CFG,
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


class TestSpecValidation:
    def test_empty_algorithms_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            desk_spec(tmp_path, algorithms=()).validate()

    def test_unknown_algorithm_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            desk_spec(tmp_path, algorithms=("MAGIC",)).validate()

    def test_sweep_needs_values(self, tmp_path):
        with pytest.raises(ValueError):
            desk_spec(tmp_path, sweep="shock").validate()

    def test_file_instance_limits_sweeps(self, tmp_path):
        spec = desk_spec(tmp_path, instance_path="x.json", sweep="shock", values=(1.0,))
        with pytest.raises(ValueError):
            spec.validate()

    def test_jobs_below_one_rejected(self, tmp_path, capsys):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            desk_spec(tmp_path, jobs=0).validate()
        assert main(["--jobs", "0", "--out", str(tmp_path / "res")]) == 2
        assert "jobs" in capsys.readouterr().err
        assert not (tmp_path / "res").exists()

    def test_file_instance_needs_a_trace(self, tmp_path, capsys):
        spec = desk_spec(tmp_path, instance_path="x.json")
        with pytest.raises(ValueError, match="--instance requires --trace"):
            spec.validate()
        with pytest.raises(ValueError, match="--instance requires --trace"):
            run_experiment(spec)
        assert main(["--instance", "x.json"]) == 2
        assert "--instance requires --trace" in capsys.readouterr().err


class TestBaselines:
    def _fixture(self, rng, rate):
        inst = single_vnf_instance(num_dc=2, cap=10.0, beta=1.0, rng=rng)
        slots = make_slots(inst, [[rate]])
        return inst, slots[0]

    def test_irr_rounds_half_up(self, rng):
        inst, slot = self._fixture(rng, 6.0)
        prev = np.zeros((1, 2), dtype=int)
        plan = SlotPlan(1, np.array([[1.4, 0.0]]), {}, {})
        # demand 6 <= 1 instance of capacity 10 after rounding 1.4 -> 1
        rounded = baseline_irr(plan, inst, slot, prev)
        assert rounded is not None
        np.testing.assert_array_equal(rounded.q, [[1, 0]])
        plan = SlotPlan(1, np.array([[1.5, 0.0]]), {}, {})
        rounded = baseline_irr(plan, inst, slot, prev)
        np.testing.assert_array_equal(rounded.q, [[2, 0]])

    def test_irr_detects_infeasible_rounding(self, rng):
        # counts 0.4 + 1.4 carry demand 13, but nearest-integer rounding keeps
        # only one instance (capacity 10): no routing exists
        inst, slot = self._fixture(rng, 13.0)
        plan = SlotPlan(1, np.array([[0.4, 1.4]]), {}, {})
        assert baseline_irr(plan, inst, slot, np.zeros((1, 2), dtype=int)) is None

    def test_gr_never_adds_to_integral_counts(self, rng):
        inst, slot = self._fixture(rng, 6.0)
        plan = SlotPlan(1, np.array([[1.0, 0.0]]), {}, {})
        rounded = baseline_gr(plan, inst, slot, np.zeros((1, 2), dtype=int))
        np.testing.assert_array_equal(rounded.q, [[1, 0]])

    def test_gr_ceils_fractions(self, rng):
        inst, slot = self._fixture(rng, 6.0)
        plan = SlotPlan(1, np.array([[1.01, 0.0]]), {}, {})
        rounded = baseline_gr(plan, inst, slot, np.zeros((1, 2), dtype=int))
        np.testing.assert_array_equal(rounded.q, [[2, 0]])

    def test_real_fractional_plans_route_after_rounding(self, rng):
        inst, slot = self._fixture(rng, 8.0)
        frac = orfa_step(SlotLayout(inst, slot), np.zeros((1, 2)))
        rounded = baseline_gr(frac, inst, slot, np.zeros((1, 2), dtype=int))
        assert rounded.x is not None
        assert float(sum(y.sum() for y in rounded.y.values())) == pytest.approx(8.0, abs=1e-6)


class TestRunExperiment:
    def test_end_to_end_rows_and_summary(self, tmp_path):
        spec = desk_spec(tmp_path)
        summary = run_experiment(spec)
        with open(tmp_path / "out" / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 4  # seeds x algorithms
        algos = {r["algorithm"] for r in rows}
        assert algos == {"ORFA", "COA", "IRR", "GR"}
        for r in rows:
            if r["feasible"] == "True":
                assert float(r["ratio_vs_relaxation"]) >= 1.0 - 1e-9
                assert float(r["cost_total"]) > 0
        saved = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert saved == summary

    def test_summary_recomputable_from_rows(self, tmp_path):
        spec = desk_spec(tmp_path)
        summary = run_experiment(spec)
        with open(tmp_path / "out" / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        parsed = []
        for r in rows:
            parsed.append(
                {
                    "sweep_value": None if r["sweep_value"] == "" else r["sweep_value"],
                    "algorithm": r["algorithm"],
                    "feasible": r["feasible"] == "True",
                    "ratio_vs_relaxation": float(r["ratio_vs_relaxation"]) if r["ratio_vs_relaxation"] else math.nan,
                    "ratio_vs_exact": float(r["ratio_vs_exact"]) if r["ratio_vs_exact"] else math.nan,
                }
            )
        again = summarize(parsed)
        for a, b in zip(summary["groups"], again["groups"]):
            assert a["algorithm"] == b["algorithm"]
            if a["mean_ratio_vs_relaxation"] is not None:
                assert a["mean_ratio_vs_relaxation"] == pytest.approx(b["mean_ratio_vs_relaxation"], rel=1e-12)
            assert a["infeasible"] == b["infeasible"]

    def test_reproducible(self, tmp_path):
        run_experiment(desk_spec(tmp_path / "a", out_dir=str(tmp_path / "a")))
        run_experiment(desk_spec(tmp_path / "b", out_dir=str(tmp_path / "b")))
        assert (tmp_path / "a" / "results.csv").read_text() == (tmp_path / "b" / "results.csv").read_text()

    def test_epsilon_sweep_smoke(self, tmp_path):
        spec = desk_spec(
            tmp_path,
            algorithms=("ORFA", "COA"),
            sweep="epsilon",
            values=(0.01, 0.1, 1.0),
            seeds=(0,),
        )
        summary = run_experiment(spec)
        ratios = [g["mean_ratio_vs_relaxation"] for g in summary["groups"]]
        assert all(r is not None and math.isfinite(r) for r in ratios)

    def test_file_instance_round_trip(self, tmp_path):
        inst, slots = build_instance(DESK_CFG, 0)
        inst_path = tmp_path / "inst.json"
        trace_path = tmp_path / "trace.csv"
        save_instance(inst_path, inst)
        write_trace_csv(trace_path, slots)
        spec = desk_spec(
            tmp_path,
            algorithms=("ORFA",),
            oracles=("relaxation",),
            instance_path=str(inst_path),
            trace_path=str(trace_path),
            seeds=(0,),
        )
        rows = run_single(spec, None, 0)
        assert rows[0]["algorithm"] == "ORFA"
        assert rows[0]["ratio_vs_relaxation"] >= 1.0 - 1e-9


class TestPool:
    @pytest.mark.parametrize("jobs, seeds, workers", [(64, (0, 1), [2]), (2, (0, 1, 2, 3, 4), [2]), (8, (0,), [])])
    def test_pool_has_at_most_one_worker_per_run(self, tmp_path, monkeypatch, jobs, seeds, workers):
        # the executor forks every worker up front, so a pool wider than the
        # run count starts idle processes; no real process is started here
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        ran = []
        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli, "run_single", lambda spec, value, seed: ran.append(seed) or [])
        run_experiment(desk_spec(tmp_path, seeds=seeds, jobs=jobs))
        assert sizes == workers
        assert ran == list(seeds)


class TestRatioDenominators:
    def test_unverified_certificate_is_no_denominator(self, tmp_path):
        rows = run_single(desk_spec(tmp_path, seeds=(0,)), None, 0)
        # the copied-multiplier certificate fails verification on this instance
        assert all(r["certificate_feasible"] is False and math.isfinite(r["certificate"]) for r in rows)
        assert all(math.isnan(r["ratio_vs_certificate"]) for r in rows)

    @pytest.mark.parametrize("optimal", [True, False])
    def test_exact_divides_only_when_proven_optimal(self, tmp_path, monkeypatch, optimal):
        incumbent = ExactResult(1000.0, (), optimal, 0.0 if optimal else 0.05, 40, 1.0)
        monkeypatch.setattr(cli, "solve_exact", lambda *args, **kwargs: incumbent)
        rows = run_single(desk_spec(tmp_path, algorithms=("ORFA", "GR"), oracles=("exact",)), None, 0)
        for r in rows:
            expected = r["cost_total"] / 1000.0 if optimal else math.nan
            assert r["ratio_vs_exact"] == pytest.approx(expected, nan_ok=True)


class TestMain:
    def test_cli_parses_and_runs(self, tmp_path, capsys):
        rc = main(
            [
                "--algorithms", "ORFA,COA",
                "--oracles", "relaxation",
                "--seeds", "0:2",
                "--out", str(tmp_path / "res"),
                "--datacenters", "3",
                "--chains", "2",
                "--slots", "3",
                "--endpoint-sites", "4",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "results written" in out
        assert (tmp_path / "res" / "results.csv").exists()

    @pytest.mark.parametrize("flag, value", [("--exact-time-limit", "nan"), ("--exact-time-limit", "0"),
                                             ("--exact-node-limit", "0")])
    def test_cli_rejects_bad_exact_limits(self, capsys, flag, value):
        rc = main(["--oracles", "exact", flag, value])
        assert rc == 2
        assert flag[2:].replace("-", " ") in capsys.readouterr().err

    def test_one_datacenter_runs(self, tmp_path):
        # one datacenter is one cluster: COA and GR route everything through it
        rc = main(["--datacenters", "1", "--chains", "1", "--slots", "2", "--seeds", "0",
                   "--oracles", "relaxation", "--out", str(tmp_path / "res")])
        assert rc == 0
        with open(tmp_path / "res" / "results.csv", newline="") as fh:
            rows = {r["algorithm"]: r for r in csv.DictReader(fh)}
        assert rows["COA"]["feasible"] == rows["GR"]["feasible"] == "True"
        assert float(rows["COA"]["bound_integer"]) == math.inf
        assert float(rows["COA"]["ratio_vs_relaxation"]) >= 1.0 - 1e-9

    def test_cli_rejects_bad_spec(self, capsys):
        rc = main(["--algorithms", "", "--oracles", "relaxation"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        spec = spec_from_args(args)
        assert spec.sweep == "none"
        assert spec.algorithms == ("ORFA", "COA", "IRR", "GR")


class TestOnlinePass:
    def test_one_layout_per_slot_and_one_clustering(self, tmp_path, monkeypatch):
        # the online pass builds each slot's layout once for ORFA and all three
        # policies; the relaxation and the certificate build one per slot each
        built, clustered = [], []
        init, original = SlotLayout.__init__, clustering.cluster

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        def counting_cluster(*args, **kwargs):
            clustered.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(SlotLayout, "__init__", counting_init)
        for module in (clustering, coa):
            monkeypatch.setattr(module, "cluster", counting_cluster)
        spec = spec_from_args(build_parser().parse_args(["--seeds", "0", "--out", str(tmp_path)]))
        assert spec.algorithms == ("ORFA", "COA", "IRR", "GR") and spec.oracles == ("relaxation", "certificate")
        rows = run_single(spec, None, 0)
        assert len(rows) == 4
        assert len(built) == 3 * spec.workload.horizon == 36
        assert len(clustered) == 1


def _file_spec_args(tmp_path, inst_data=None, trace_text=None):
    """CLI arguments for a file-based desk run, with the instance JSON or the trace replaced if given."""
    inst, slots = build_instance(DESK_CFG, 0)
    inst_path, trace_path = tmp_path / "inst.json", tmp_path / "trace.csv"
    if inst_data is None:
        save_instance(inst_path, inst)
    else:
        inst_path.write_text(json.dumps(inst_data))
    write_trace_csv(trace_path, slots)
    if trace_text is not None:
        trace_path.write_text(trace_text)
    return ["--instance", str(inst_path), "--trace", str(trace_path), "--seeds", "0", "--oracles", "relaxation",
            "--out", str(tmp_path / "res")]


class TestInputErrors:
    """Bad input files end in one ``error:`` line and exit 2, before any solve."""

    def _rejected(self, args, capsys, monkeypatch, match):
        monkeypatch.setattr(cli, "run_single", lambda *a: pytest.fail("solved despite bad inputs"))
        assert main(args) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and match in err[0], err
        assert not os.path.exists(args[args.index("--out") + 1])  # nothing ran, so nothing was written

    def test_missing_instance_file(self, tmp_path, capsys, monkeypatch):
        args = _file_spec_args(tmp_path)
        args[1] = str(tmp_path / "missing.json")
        self._rejected(args, capsys, monkeypatch, "missing.json")

    def test_malformed_instance_file(self, tmp_path, capsys, monkeypatch):
        self._rejected(_file_spec_args(tmp_path, inst_data={"datacenters": []}), capsys, monkeypatch, "inst.json")

    def test_invalid_instance(self, tmp_path, capsys, monkeypatch):
        data = instance_to_dict(build_instance(DESK_CFG, 0)[0])
        data["epsilon"] = -1.0
        self._rejected(_file_spec_args(tmp_path, inst_data=data), capsys, monkeypatch, "[epsilon]")

    def test_negative_trace_rate(self, tmp_path, capsys, monkeypatch):
        args = _file_spec_args(tmp_path, trace_text="t,flow_id,rate\n1,0,-5\n")
        self._rejected(args, capsys, monkeypatch, "t=1 flow=0")

    def test_paper_scale_with_horizon_oracles_is_refused(self, tmp_path, capsys, monkeypatch):
        for oracles in ("relaxation,certificate", "exact"):
            spec = spec_from_args(build_parser().parse_args(["--paper-scale", "--seeds", "0", "--oracles", oracles]))
            with pytest.raises(HorizonTooLarge, match="columns"):
                check_inputs(spec)
        self._rejected(["--paper-scale", "--out", str(tmp_path / "res")], capsys, monkeypatch, "horizon LP")
        # the certificate alone builds no horizon LP
        check_inputs(spec_from_args(build_parser().parse_args(["--paper-scale", "--seeds", "0",
                                                               "--oracles", "certificate"])))

    @pytest.mark.parametrize("flag, value, match", [
        ("--endpoint-sites", "1", "endpoint sites"),
        ("--flows", "-2", "flow count"),
        ("--base-rate", "-5", "base rate"),
        ("--base-rate", "nan", "base rate"),
    ])
    def test_bad_workload_knob(self, tmp_path, capsys, monkeypatch, flag, value, match):
        self._rejected([flag, value, "--seeds", "0", "--out", str(tmp_path / "res")], capsys, monkeypatch, match)

    def test_repeated_trace_row(self, tmp_path, capsys, monkeypatch):
        args = _file_spec_args(tmp_path, trace_text="t,flow_id,rate\n1,0,5\n1,0,7\n")
        self._rejected(args, capsys, monkeypatch, "t=1 flow=0")

    def test_desk_defaults_are_accepted(self):
        check_inputs(spec_from_args(build_parser().parse_args([])))
        check_inputs(spec_from_args(build_parser().parse_args(["--oracles", "relaxation,exact,certificate"])))
