import csv
import json
import math

import numpy as np
import pytest

from chainscale.cli import (
    ExperimentSpec,
    baseline_gr,
    baseline_irr,
    build_parser,
    main,
    run_experiment,
    run_single,
    spec_from_args,
    summarize,
)
from chainscale import cli
from chainscale.io import save_instance
from chainscale.oracle import ExactResult
from chainscale.orfa import FractionalPlan, orfa_step
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


class TestBaselines:
    def _fixture(self, rng, rate):
        inst = single_vnf_instance(num_dc=2, cap=10.0, beta=1.0, rng=rng)
        slots = make_slots(inst, [[rate]])
        return inst, slots[0]

    def test_irr_rounds_half_up(self, rng):
        inst, slot = self._fixture(rng, 6.0)
        prev = np.zeros((1, 2), dtype=int)
        plan = FractionalPlan(1, np.array([[1.4, 0.0]]), None, {}, {})
        # demand 6 <= 1 instance of capacity 10 after rounding 1.4 -> 1
        rounded = baseline_irr(plan, inst, slot, prev)
        assert rounded is not None
        np.testing.assert_array_equal(rounded.q, [[1, 0]])
        plan = FractionalPlan(1, np.array([[1.5, 0.0]]), None, {}, {})
        rounded = baseline_irr(plan, inst, slot, prev)
        np.testing.assert_array_equal(rounded.q, [[2, 0]])

    def test_irr_detects_infeasible_rounding(self, rng):
        # counts 0.4 + 1.4 carry demand 13, but nearest-integer rounding keeps
        # only one instance (capacity 10): no routing exists
        inst, slot = self._fixture(rng, 13.0)
        plan = FractionalPlan(1, np.array([[0.4, 1.4]]), None, {}, {})
        assert baseline_irr(plan, inst, slot, np.zeros((1, 2), dtype=int)) is None

    def test_gr_never_adds_to_integral_counts(self, rng):
        inst, slot = self._fixture(rng, 6.0)
        plan = FractionalPlan(1, np.array([[1.0, 0.0]]), None, {}, {})
        rounded = baseline_gr(plan, inst, slot, np.zeros((1, 2), dtype=int))
        np.testing.assert_array_equal(rounded.q, [[1, 0]])

    def test_gr_ceils_fractions(self, rng):
        inst, slot = self._fixture(rng, 6.0)
        plan = FractionalPlan(1, np.array([[1.01, 0.0]]), None, {}, {})
        rounded = baseline_gr(plan, inst, slot, np.zeros((1, 2), dtype=int))
        np.testing.assert_array_equal(rounded.q, [[2, 0]])

    def test_real_fractional_plans_route_after_rounding(self, rng):
        inst, slot = self._fixture(rng, 8.0)
        frac = orfa_step(inst, slot, np.zeros((1, 2)))
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

    def test_cli_rejects_bad_spec(self, capsys):
        rc = main(["--algorithms", "", "--oracles", "relaxation"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        spec = spec_from_args(args)
        assert spec.sweep == "none"
        assert spec.algorithms == ("ORFA", "COA", "IRR", "GR")
