import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from chainscale import model
from chainscale.model import (
    Datacenter,
    DelayMatrix,
    FlowSpec,
    InputError,
    ServiceChain,
    VnfType,
    estimate_alpha,
    validate_instance,
)
from conftest import build_instance, single_vnf_instance


def brute_force_alpha(d):
    """Independent triple scan: max |d_ab - d_bc| / d_ac over distinct triples."""
    n = d.shape[0]
    worst = 0.0
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if len({a, b, c}) < 3 or d[a, c] == 0:
                    continue
                worst = max(worst, abs(d[a, b] - d[b, c]) / d[a, c])
    return worst


def brute_force_first_maximizer(d):
    """The first (a, b, c) attaining the maximum ratio, scanning b, then a, then c."""
    n = d.shape[0]
    best, arg = -1.0, None
    for b in range(n):
        for a in range(n):
            for c in range(n):
                if len({a, b, c}) < 3 or d[a, c] == 0:
                    continue
                r = abs(d[a, b] - d[b, c]) / d[a, c]
                if r > best:
                    best, arg = r, (a, b, c)
    return arg


def loop_alpha_scan(d):
    """Reference: the one-middle-node-at-a-time loop that the blocked scan replaced."""
    n = d.shape[0]
    if n < 3:
        return 0.0, None
    best, triple = -1.0, None
    idx = np.arange(n)
    for b in range(n):
        numer = np.abs(d[:, b][:, None] - d[b, :][None, :])
        denom = d.copy()
        mask = (idx[:, None] != b) & (idx[None, :] != b) & (idx[:, None] != idx[None, :])
        bad = mask & (denom == 0.0) & (numer > 0.0)
        if np.any(bad):
            a, c = np.argwhere(bad)[0]
            raise ValueError(
                f"zero delay between nodes {a} and {c} with unequal delays via {b}: "
                "no finite relaxed-triangle coefficient exists"
            )
        ok = mask & (denom > 0.0)
        if np.any(ok):
            ratios = numer[ok] / denom[ok]
            top = float(np.max(ratios))
            if top > best:
                a, c = divmod(int(np.flatnonzero(ok)[np.argmax(ratios)]), n)
                best, triple = top, (a, b, c)
    return max(best, 0.0), triple


def scan_outcome(scan, d):
    try:
        return scan(d)
    except ValueError as exc:
        return str(exc)


def symmetric(upper):
    d = np.triu(upper, 1)
    return d + d.T


def random_delay_matrix(rng, n):
    pts = rng.uniform(0, 100, size=(n, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt((diff**2).sum(-1))
    draws = rng.uniform(0.8, 1.2, size=d.shape)
    d *= 0.5 * (draws + draws.T)
    np.fill_diagonal(d, 0.0)
    return d


class TestEstimateAlpha:
    def test_collinear_points_give_exactly_one(self):
        xs = np.array([0.0, 1.0, 3.0, 7.0])
        d = np.abs(xs[:, None] - xs[None, :])
        assert estimate_alpha(d) == pytest.approx(1.0)

    def test_specific_triple_contributes(self):
        # |10 - 2| / 3 = 8/3 from the (a, b, c) triple; oracle confirms the max
        d = np.array([[0, 10, 3], [10, 0, 2], [3, 2, 0]], dtype=float)
        expected = brute_force_alpha(d)
        assert expected >= 8.0 / 3.0 - 1e-12
        assert estimate_alpha(d) == pytest.approx(expected)

    def test_two_nodes_vacuous(self):
        assert estimate_alpha(np.array([[0.0, 4.0], [4.0, 0.0]])) == 0.0

    def test_zero_delay_with_positive_numerator_errors(self):
        d = np.array([[0, 0, 5], [0, 0, 2], [5, 2, 0]], dtype=float)
        with pytest.raises(ValueError):
            estimate_alpha(d)

    def test_returned_alpha_is_minimal(self, rng):
        for _ in range(20):
            d = random_delay_matrix(rng, int(rng.integers(3, 8)))
            alpha = estimate_alpha(d)
            oracle = brute_force_alpha(d)
            assert alpha == pytest.approx(oracle, rel=1e-12)
            if alpha > 0:
                # at alpha - 1e-9 some triple must violate the inequality
                n = d.shape[0]
                shaved = alpha - 1e-9
                violated = any(
                    abs(d[a, b] - d[b, c]) > shaved * d[a, c] + 1e-15
                    for a in range(n)
                    for b in range(n)
                    for c in range(n)
                    if len({a, b, c}) == 3 and d[a, c] > 0
                )
                assert violated

    def test_blocked_scan_equals_brute_force(self, rng):
        for n in range(13):
            for _ in range(8):
                for d in (random_delay_matrix(rng, n), symmetric(rng.integers(1, 4, size=(n, n)).astype(float))):
                    assert model._alpha_scan(d) == (brute_force_alpha(d), brute_force_first_maximizer(d))

    def test_tie_across_a_block_boundary_goes_to_the_earlier_block(self, rng):
        n = 70
        step = model._SCAN_BLOCK_ELEMENTS // n**2
        assert 1 <= step and 3 * step < n  # middle nodes span at least three blocks
        # delays of 100 or 101 keep every ratio at or below 1/100, except around the planted
        # 200 between the last middle node of the second block and the first of the third,
        # which both reach exactly (200 - 100) / 100
        d = symmetric(rng.integers(100, 102, size=(n, n)).astype(float))
        b = 2 * step - 1
        d[b, b + 1] = d[b + 1, b] = 200.0
        alpha, triple = model._alpha_scan(d)
        assert (alpha, triple) == (brute_force_alpha(d), brute_force_first_maximizer(d))
        assert alpha == 1.0 and triple[1] == b
        assert model._alpha_scan(d) == loop_alpha_scan(d)

    def test_zero_delay_error_names_the_loops_nodes(self, rng):
        errors = 0
        for trial in range(200):
            n = int(rng.integers(3, 12)) if trial % 20 else 70  # 70 nodes span several blocks
            d = symmetric(rng.choice([0.0, 1.0, 2.0], size=(n, n), p=[0.02, 0.49, 0.49]))
            expected = scan_outcome(loop_alpha_scan, d)
            assert scan_outcome(model._alpha_scan, d) == expected
            errors += isinstance(expected, str)
        assert errors > 20
        # one zero delay whose first unequal middle node sits in the third block
        n = 70
        d = symmetric(rng.integers(1, 3, size=(n, n)).astype(float))
        a, c, b = 3, 5, 2 * (model._SCAN_BLOCK_ELEMENTS // n**2) + 1
        d[a, c] = d[c, a] = 0.0
        d[c, :b] = d[:b, c] = d[a, :b]  # equal delays from a and c via every earlier middle node
        d[a, b] = d[b, a] = d[b, c] + 1.0
        expected = f"zero delay between nodes {a} and {c} with unequal delays via {b}:"
        with pytest.raises(ValueError, match=expected):
            model._alpha_scan(d)
        assert scan_outcome(model._alpha_scan, d) == scan_outcome(loop_alpha_scan, d)

    def test_symmetric_within_allclose_reads_the_a_side_from_the_column(self, rng):
        for n in (5, 12, 70):
            d = random_delay_matrix(rng, n)
            d *= 1.0 + 1e-12 * np.triu(rng.uniform(size=(n, n)), 1)  # d[a, b] != d[b, a] in the last bits
            assert not np.array_equal(d, d.T) and np.allclose(d, d.T, atol=0.0)
            assert model._alpha_scan(d) == loop_alpha_scan(d)

    def test_scan_memory_is_bounded_by_blocks(self, rng):
        # one (b, a, c) temporary over all 200 nodes would need 64 MB
        d = random_delay_matrix(rng, 200)
        tracemalloc.start()
        try:
            model._alpha_scan(d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            estimate_alpha(np.array([[0.0, 1.0], [2.0, 0.0]]))


def _with_delays(inst, edit, alpha=None):
    """``inst`` with ``edit`` applied to a copy of its delays, and ``alpha`` declared if given."""
    d = edit(inst.delay.values.copy())
    return dataclasses.replace(inst, delay=DelayMatrix(d, inst.delay.alpha if alpha is None else alpha))


def _set(d, entries, value):
    """``d`` with each (row, column) entry set to ``value``."""
    for a, b in entries:
        d[a, b] = value
    return d


#: violation code -> a change that breaks only that invariant of ``single_vnf_instance``
#: (2 datacenters, 2 endpoint sites, one VNF, one one-VNF chain, one flow from node 2 to node 3)
VIOLATIONS = {
    "non-finite": lambda inst: dataclasses.replace(inst, vnfs=(VnfType("v", (np.nan, 10.0), (1.0, 1.0)),)),
    "delay-shape": lambda inst: _with_delays(inst, lambda d: np.hstack([d, d[:, :1]])),
    "delay-negative": lambda inst: _with_delays(inst, lambda d: _set(d, [(0, 1), (1, 0)], -1.0)),
    "symmetry": lambda inst: _with_delays(inst, lambda d: _set(d, [(0, 1)], d[0, 1] + 1.0)),
    "diagonal": lambda inst: _with_delays(inst, lambda d: _set(d, [(0, 0)], 1.0)),
    "alpha-infinite": lambda inst: _with_delays(inst, lambda d: _set(d, [(0, 1), (1, 0)], 0.0)),
    "alpha": lambda inst: _with_delays(inst, lambda d: d, alpha=0.0),
    "transfer-cost": lambda inst: dataclasses.replace(inst, datacenters=(Datacenter(0, -0.01, 0.02),
                                                                         inst.datacenters[1])),
    "node-id": lambda inst: dataclasses.replace(inst, datacenters=(Datacenter(9, 0.01, 0.02), inst.datacenters[1])),
    "vnf-shape": lambda inst: dataclasses.replace(inst, vnfs=(VnfType("v", (10.0,), (1.0,)),)),
    "capacity": lambda inst: dataclasses.replace(inst, vnfs=(VnfType("v", (10.0, 0.0), (1.0, 1.0)),)),
    "deploy-cost": lambda inst: dataclasses.replace(inst, vnfs=(VnfType("v", (10.0, 10.0), (1.0, -1.0)),)),
    "chain-id": lambda inst: dataclasses.replace(inst, chains=inst.chains * 2),
    "chain-empty": lambda inst: dataclasses.replace(inst, chains=(ServiceChain(0, (), ()),)),
    "chain-path": lambda inst: dataclasses.replace(inst, chains=(ServiceChain(0, (0, 0), (0.9, 0.9)),)),
    "chain-vnf": lambda inst: dataclasses.replace(inst, chains=(ServiceChain(0, (5,), (0.9,)),)),
    "chain-beta": lambda inst: dataclasses.replace(inst, chains=(ServiceChain(0, (0,), (0.9, 0.9)),)),
    "beta": lambda inst: dataclasses.replace(inst, chains=(ServiceChain(0, (0,), (0.0,)),)),
    "flow-id": lambda inst: dataclasses.replace(inst, flows=(FlowSpec(3, 2, 3, 0),)),
    "flow-node": lambda inst: dataclasses.replace(inst, flows=(FlowSpec(0, 9, 3, 0),)),
    "flow-chain": lambda inst: dataclasses.replace(inst, flows=(FlowSpec(0, 2, 3, 7),)),
    "horizon": lambda inst: dataclasses.replace(inst, horizon=0),
    "epsilon": lambda inst: dataclasses.replace(inst, epsilon=0.0),
    "eta": lambda inst: dataclasses.replace(inst, epsilon=5e-324),  # ln(1 + M*I/epsilon) overflows
}


class TestValidateInstance:
    @pytest.mark.parametrize("code", VIOLATIONS)
    def test_each_violation_is_reported_alone(self, code):
        inst = single_vnf_instance(rng=np.random.default_rng(0))
        assert validate_instance(inst).ok
        report = validate_instance(VIOLATIONS[code](inst))
        assert [v.code for v in report.violations] == [code], str(report)

    def test_valid_instance_passes(self, rng):
        inst = single_vnf_instance(rng=rng)
        report = validate_instance(inst)
        assert report.ok, str(report)

    def test_symmetry_violation_flagged(self):
        d = np.array([
            [0, 5, 2, 8],
            [6, 0, 6, 3],
            [2, 6, 0, 9],
            [8, 3, 9, 0],
        ], dtype=float)
        inst = single_vnf_instance(delays=d)
        report = validate_instance(inst)
        assert not report.ok
        assert any(v.code == "symmetry" for v in report.violations)

    def test_alpha_too_small_flagged_with_triple(self):
        d = np.array([[0, 10, 3, 4], [10, 0, 2, 9], [3, 2, 0, 6], [4, 9, 6, 0]], dtype=float)
        inst = single_vnf_instance(delays=d)
        object.__setattr__(inst, "delay", DelayMatrix(d, alpha=1.0))  # too small for this matrix
        report = validate_instance(inst)
        assert not report.ok
        hit = [v for v in report.violations if v.code == "alpha"]
        assert hit and "triple" in hit[0].message

    def test_named_triple_is_the_first_maximizer(self, rng):
        # small integer delays tie often, so the scan order decides which triple is named
        for trial in range(30):
            n = int(rng.integers(4, 9))
            if trial % 2:
                d = random_delay_matrix(rng, n)
            else:
                d = rng.integers(1, 5, size=(n, n)).astype(float)
                d = np.triu(d, 1) + np.triu(d, 1).T
            inst = single_vnf_instance(num_dc=n - 2, delays=d)
            object.__setattr__(inst, "delay", DelayMatrix(d, alpha=0.0))
            [hit] = [v for v in validate_instance(inst).violations if v.code == "alpha"]
            match = re.search(r"triple \((\d+), (\d+), (\d+)\) needs", hit.message)
            a, b, c = (int(g) for g in match.groups())
            assert abs(d[a, b] - d[b, c]) / d[a, c] == estimate_alpha(d)
            assert (a, b, c) == brute_force_first_maximizer(d)

    def test_bad_costs_capacity_and_references(self, rng):
        inst = single_vnf_instance(rng=rng)
        broken = build_instance(
            2,
            vnf_caps=[[10.0, -1.0]],
            deploy_costs=[[1.0, 1.0]],
            chains=[((0, 0), (0.9, 1.0))],  # repeated VNF: not a simple path
            flows=[(0, 1, 5)],  # unknown chain id
            delays=inst.delay.values,
        )
        report = validate_instance(broken)
        codes = {v.code for v in report.violations}
        assert {"capacity", "chain-path", "flow-chain"} <= codes

    @pytest.mark.parametrize("field", ["capacity", "deploy_cost"])
    def test_ragged_vnf_arrays_are_named(self, rng, field):
        # VNF arrays of different lengths cannot form one array: the error
        # names the first VNF whose length is not the datacenter count
        inst = single_vnf_instance(num_dc=2, rng=rng)
        short = dataclasses.replace(inst.vnfs[0], name="short", **{field: (10.0,)})
        for vnfs, m in (((inst.vnfs[0], short), 1), ((short, inst.vnfs[0]), 0)):
            with pytest.raises(InputError, match=rf"^\[vnf-shape\] VNF {m} \(short\) has 1 {field} entries for 2 "):
                dataclasses.replace(inst, vnfs=vnfs)

    def test_vnf_arrays_of_one_wrong_length_are_reported(self, rng):
        inst = single_vnf_instance(num_dc=2, rng=rng)
        short = dataclasses.replace(inst.vnfs[0], capacity=(10.0,), deploy_cost=(1.0,))
        report = validate_instance(dataclasses.replace(inst, vnfs=(short, short)))
        assert [v.code for v in report.violations] == ["vnf-shape", "vnf-shape"]

    def test_negative_transfer_cost_flagged(self, rng):
        inst = single_vnf_instance(rng=rng)
        bad = build_instance(
            2,
            vnf_caps=[[10.0, 10.0]],
            deploy_costs=[[1.0, 1.0]],
            chains=[((0,), (1.0,))],
            flows=[(0, 1, 0)],
            delays=inst.delay.values,
            d_in=[-0.01, 0.01],
        )
        report = validate_instance(bad)
        assert any(v.code == "transfer-cost" for v in report.violations)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "where", ["capacity", "deploy", "ingress", "egress", "delay", "delay-diagonal", "beta", "alpha"]
    )
    def test_non_finite_numbers_flagged(self, rng, where, bad):
        d = single_vnf_instance(rng=rng).delay.values.copy()
        if where == "delay":
            d[0, 1] = d[1, 0] = bad
        if where == "delay-diagonal":
            d[0, 0] = bad
        with np.errstate(invalid="ignore"):  # the builder estimates alpha from the broken delays
            inst = build_instance(
                2,
                vnf_caps=[[10.0, bad if where == "capacity" else 10.0]],
                deploy_costs=[[1.0, bad if where == "deploy" else 1.0]],
                chains=[((0,), (bad if where == "beta" else 0.9,))],
                flows=[(0, 1, 0)],
                delays=d,
                d_in=[0.01, bad if where == "ingress" else 0.01],
                d_out=[0.02, bad if where == "egress" else 0.02],
            )
        if where == "alpha":  # a NaN or infinite declared alpha would turn the bound's phi3 NaN or infinite
            object.__setattr__(inst, "delay", DelayMatrix(d, alpha=bad))
        report = validate_instance(inst)
        # reported once: a non-finite delay is not also a symmetry, diagonal or sign violation
        assert [v.code for v in report.violations] == ["non-finite"], str(report)
        if where == "alpha":
            assert report.violations[0].message.endswith("in: alpha")

    def test_idempotent_and_side_effect_free(self, rng):
        inst = single_vnf_instance(rng=rng)
        before = inst.delay.values.copy()
        r1 = validate_instance(inst)
        r2 = validate_instance(inst)
        assert r1 == r2
        np.testing.assert_array_equal(inst.delay.values, before)


def test_instance_derived_quantities(rng):
    inst = single_vnf_instance(num_dc=2, cap=10.0, rng=rng)
    assert inst.capacity.shape == (1, 2)
    assert inst.eta == pytest.approx(np.log(1 + 2 / 0.1))
    assert inst.entropy_shift == pytest.approx(0.05)
    assert inst.dc_delays().shape == (2, 2)
    # arrays are read-only once constructed
    with pytest.raises(ValueError):
        inst.capacity[0, 0] = 99.0


def test_datacenter_fields():
    d = Datacenter(3, 0.01, 0.02)
    assert (d.node, d.ingress_cost, d.egress_cost) == (3, 0.01, 0.02)
