from dataclasses import replace

import numpy as np
import pytest

from chainscale.model import InputError, validate_instance
from chainscale.workload import (
    CATALOG,
    DELAY_PERTURBATION,
    DELAY_SCALE,
    WorkloadConfig,
    build_instance,
    default_vnf_catalog,
    generate_chains,
    generate_topology,
    slots_from_trace,
    write_trace_csv,
)

DESK = WorkloadConfig(
    num_datacenters=4,
    num_chains=3,
    horizon=10,
    num_endpoint_sites=6,
    base_rate=400.0,
    shock_level=5.0,
)


class TestCatalog:
    def test_capacities_match_the_stock_table(self):
        by_name = {e[0]: e for e in CATALOG}
        assert by_name["ids"][1] == 600.0
        assert by_name["firewall"][1] == 900.0
        assert by_name["proxy"][1] == 900.0
        assert by_name["nat"][1] == 900.0

    def test_nat_and_proxy_never_change_rates(self):
        by_name = {e[0]: e for e in CATALOG}
        assert by_name["nat"][4] == (1.0, 1.0)
        assert by_name["proxy"][4] == (1.0, 1.0)

    def test_instance_class_cost_ratio(self):
        by_name = {e[0]: e[3] for e in CATALOG}
        assert by_name["ids"] / by_name["nat"] == pytest.approx(4.0)  # 2xlarge vs large

    def test_materialized_catalog_shapes(self):
        vnfs = default_vnf_catalog(3, unit_run_cost=0.1, deploy_cost_factor=0.25)
        assert len(vnfs) == 4
        assert vnfs[3].capacity == (600.0, 600.0, 600.0)
        assert vnfs[2].deploy_cost == pytest.approx((0.025, 0.025, 0.025))


class TestTopology:
    def test_deterministic_from_seed(self):
        a = generate_topology(DESK, np.random.default_rng(7))
        b = generate_topology(DESK, np.random.default_rng(7))
        np.testing.assert_array_equal(a.delay.values, b.delay.values)
        np.testing.assert_array_equal(a.dc_coords, b.dc_coords)

    def test_delays_are_distance_times_a_symmetric_perturbation(self):
        # each pair's factor is the mean of two draws from the perturbation range
        topo = generate_topology(DESK, np.random.default_rng(3))
        pts = np.vstack([topo.dc_coords, topo.site_coords])
        dist = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1)) * DELAY_SCALE
        off = ~np.eye(len(pts), dtype=bool)
        factor = topo.delay.values[off] / dist[off]
        lo, hi = DELAY_PERTURBATION
        assert np.all((lo - 1e-12 <= factor) & (factor <= hi + 1e-12))
        assert np.unique(np.round(factor, 9)).size > len(pts)  # perturbed, not one common scale

    def test_perturbation_usually_breaks_the_triangle_inequality(self):
        cfg = WorkloadConfig(num_datacenters=10, num_chains=3, horizon=5, num_endpoint_sites=2)
        hits = sum(generate_topology(cfg, np.random.default_rng(seed)).delay.alpha > 1.0 for seed in range(10))
        assert hits >= 8

    def test_matrix_is_symmetric_zero_diagonal(self):
        topo = generate_topology(DESK, np.random.default_rng(11))
        d = topo.delay.values
        np.testing.assert_array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        assert np.all(d[~np.eye(d.shape[0], dtype=bool)] > 0)


class TestChains:
    def test_lengths_clamped_to_catalog(self):
        chains = generate_chains(WorkloadConfig(num_chains=30), np.random.default_rng(5))
        assert all(2 <= len(c.vnfs) <= 4 for c in chains)
        assert all(len(set(c.vnfs)) == len(c.vnfs) for c in chains)

    def test_ratios_drawn_from_catalog_ranges(self):
        chains = generate_chains(WorkloadConfig(num_chains=50), np.random.default_rng(6))
        for c in chains:
            for m, b in zip(c.vnfs, c.beta):
                lo, hi = CATALOG[m][4]
                assert lo - 1e-12 <= b <= hi + 1e-12
                if lo == hi:
                    assert b == lo


class TestTraffic:
    def test_full_determinism(self):
        inst_a, slots_a = build_instance(DESK, 19)
        inst_b, slots_b = build_instance(DESK, 19)
        np.testing.assert_array_equal(inst_a.delay.values, inst_b.delay.values)
        np.testing.assert_array_equal(inst_a.capacity, inst_b.capacity)
        np.testing.assert_array_equal(inst_a.deploy_cost, inst_b.deploy_cost)
        assert inst_a.chains == inst_b.chains
        assert inst_a.flows == inst_b.flows
        for sa, sb in zip(slots_a, slots_b):
            np.testing.assert_array_equal(sa.rates, sb.rates)
            np.testing.assert_array_equal(sa.run_costs, sb.run_costs)

    def test_generated_instances_validate(self):
        for seed in range(4):
            inst, slots = build_instance(DESK, seed)
            report = validate_instance(inst)
            assert report.ok, str(report)
            assert len(slots) == DESK.horizon
            for s in slots:
                assert np.all(s.rates >= 0)
                assert np.all(s.run_costs > 0)

    def test_shock_multiplies_flash_windows(self):
        import dataclasses

        base_cfg = dataclasses.replace(DESK, shock_level=1.0, rate_noise=0.0, full_span_fraction=1.0)
        shock_cfg = dataclasses.replace(DESK, shock_level=5.0, rate_noise=0.0, full_span_fraction=1.0)
        _, base_slots = build_instance(base_cfg, 23)
        _, shock_slots = build_instance(shock_cfg, 23)
        base = np.stack([s.rates for s in base_slots])
        shocked = np.stack([s.rates for s in shock_slots])
        ratio = shocked[base > 0] / base[base > 0]
        values = set(np.round(np.unique(ratio), 9))
        assert values <= {1.0, 5.0}  # flash slots carry exactly shock x the base rate
        assert 5.0 in values
        flash = ratio > 1.0
        window_ratio = shocked[base > 0][flash].mean() / base[base > 0][flash].mean()
        assert window_ratio == pytest.approx(5.0)

    def test_flow_count_bounded(self):
        inst, slots = build_instance(DESK, 2)
        for s in slots:
            assert np.count_nonzero(s.rates) <= inst.num_flows


def test_trace_roundtrip(tmp_path):
    inst, slots = build_instance(DESK, 31)
    path = tmp_path / "trace.csv"
    write_trace_csv(path, slots)
    back = slots_from_trace(path, inst.num_flows, DESK.horizon, slots[0].run_costs)
    for a, b in zip(slots, back):
        np.testing.assert_allclose(a.rates, b.rates, rtol=1e-9)


@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_trace_with_non_finite_rate_rejected(tmp_path, rate):
    path = tmp_path / "trace.csv"
    path.write_text(f"t,flow_id,rate\n1,0,5.0\n2,0,{rate}\n")
    with pytest.raises(ValueError, match="not finite"):
        slots_from_trace(path, 1, 2, np.ones((1, 1)))


def test_trace_with_negative_rate_rejected(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("t,flow_id,rate\n1,0,-5\n")
    with pytest.raises(ValueError, match="t=1 flow=0.*negative"):
        slots_from_trace(path, 1, 2, np.ones((1, 1)))


@pytest.mark.parametrize("text, match", [
    ("t,flow_id,rate\n1,zero,5\n", "malformed row"),
    ("t,rate\n1,5\n", "malformed row"),  # no flow_id column
    ("t,flow_id,rate\n3,0,5\n", "out of range: t=3 flow=0"),
    ("t,flow_id,rate\n1,1,5\n", "out of range: t=1 flow=1"),
])
def test_trace_with_bad_row_rejected(tmp_path, text, match):
    path = tmp_path / "trace.csv"
    path.write_text(text)
    with pytest.raises(InputError, match=match):
        slots_from_trace(path, 1, 2, np.ones((1, 1)))


@pytest.mark.parametrize("name", ["missing.csv", "."])
def test_unreadable_trace_rejected(tmp_path, name):
    # a missing file and a directory
    with pytest.raises(InputError, match="cannot read trace file"):
        slots_from_trace(tmp_path / name, 1, 2, np.ones((1, 1)))


def test_trace_with_repeated_row_rejected(tmp_path):
    # the later row used to win silently
    path = tmp_path / "trace.csv"
    path.write_text("t,flow_id,rate\n1,0,5\n2,0,6\n1,0,7\n")
    with pytest.raises(InputError, match="t=1 flow=0.*repeats"):
        slots_from_trace(path, 1, 2, np.ones((1, 1)))


def test_bad_config_rejected():
    with pytest.raises(ValueError):
        WorkloadConfig(num_datacenters=0)
    with pytest.raises(ValueError):
        WorkloadConfig(shock_level=0.5)


@pytest.mark.parametrize("knobs, match", [
    ({"num_endpoint_sites": 1}, "endpoint sites"),
    ({"num_flows": -2}, "flow count"),
    ({"base_rate": -5.0}, "base rate"),
    ({"base_rate": float("nan")}, "base rate"),
    ({"shock_level": float("nan")}, "shock level"),
    ({"shock_level": float("inf")}, "shock level"),
])
def test_bad_workload_knobs_rejected(knobs, match):
    with pytest.raises(ValueError, match=match):
        WorkloadConfig(**knobs)
    # the smallest valid values build an instance
    build_instance(WorkloadConfig(num_datacenters=2, num_chains=1, horizon=2, num_endpoint_sites=2,
                                  num_flows=0, base_rate=0.0), 0)


def test_overflowing_generated_rates_rejected():
    # a finite shock can still overflow the rates it multiplies; the first
    # overflowing slot, then flow, is named before any slot reaches a layout
    cfg = replace(DESK, rate_noise=0.0, full_span_fraction=1.0, shock_level=1e300)
    rates = np.stack([s.rates for s in build_instance(cfg, 23)[1]])  # (slots, flows), finite
    t, k = np.argwhere(rates > 1e299)[0]  # the first flash entry: every other rate is below 1e4
    with pytest.raises(InputError, match=f"slot {t + 1} flow {k}: generated rate inf is not finite"):
        build_instance(replace(cfg, shock_level=1e308), 23)
