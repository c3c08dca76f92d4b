import numpy as np
import pytest

from chainscale.model import ServiceChain, SlotInput
from chainscale.layout import SlotLayout
from chainscale.orfa import orfa_step
from chainscale.rates import CostBreakdown, compute_beta_bar, cost_of_plan, plan_residuals, slot_rates, vnf_demand
from conftest import build_instance, make_slots, single_vnf_instance
from cost_oracle import delay_coefficients, transfer_cost_double_sum


class TestBetaBar:
    def test_two_vnf_chain_halving(self):
        # rate 12 entering, halved by the first VNF: 12 at position 0, 6 at position 1,
        # and 6 leaving the chain (second VNF passes traffic through unchanged)
        chain = ServiceChain(0, (0, 1), (0.5, 1.0))
        bar = compute_beta_bar(chain)
        np.testing.assert_allclose(bar, [1.0, 0.5])
        f_hat = 12.0 * bar
        np.testing.assert_allclose(f_hat, [12.0, 6.0])
        assert f_hat[-1] * chain.beta[-1] == pytest.approx(6.0)

    def test_identity_ratios(self):
        chain = ServiceChain(0, (2, 0, 1), (1.0, 1.0, 1.0))
        np.testing.assert_allclose(compute_beta_bar(chain), [1.0, 1.0, 1.0])

    def test_four_position_chain(self):
        chain = ServiceChain(0, (0, 1, 2, 3), (0.8, 1.0, 0.9, 1.0))
        np.testing.assert_allclose(compute_beta_bar(chain), [1.0, 0.8, 0.8, 0.72])

    def test_repeated_vnf_rejected(self):
        with pytest.raises(ValueError):
            compute_beta_bar(ServiceChain(0, (0, 1, 0), (1.0, 1.0, 1.0)))

    def test_nonpositive_ratio_rejected(self):
        with pytest.raises(ValueError):
            compute_beta_bar(ServiceChain(0, (0, 1), (0.0, 1.0)))


class TestDelayCoefficients:
    # the hand-written delay coefficients of tests/cost_oracle.py, which the
    # pricing tests hold the layout's cost vector against
    def test_zero_weight_gives_zero_coefficients(self, rng):
        inst = single_vnf_instance(rng=rng)
        slots = make_slots(inst, [[10.0]], weights=[0.0])
        rates = slot_rates(inst, slots[0])
        coeffs = delay_coefficients(inst, slots[0], rates)
        assert np.all(coeffs.endpoint[0] == 0.0)

    def test_single_vnf_colocated_source(self):
        # source sits on top of datacenter 0 (zero delay), destination is 5 away
        # from it; with unit weight and rate 10 the per-unit charge is 5/10
        d = np.array([
            [0.0, 7.0, 0.0, 5.0],
            [7.0, 0.0, 7.0, 4.0],
            [0.0, 7.0, 0.0, 5.0],
            [5.0, 4.0, 5.0, 0.0],
        ])
        inst = single_vnf_instance(beta=1.0, delays=d)
        slots = make_slots(inst, [[10.0]])
        coeffs = delay_coefficients(inst, slots[0], slot_rates(inst, slots[0]))
        assert coeffs.endpoint[0][0, 0] == pytest.approx(0.5)
        # the other datacenter pays both source and destination legs: 7/10 + 4/10
        assert coeffs.endpoint[0][0, 1] == pytest.approx(1.1)

    def test_hop_blocks_exist_only_for_real_hops(self, rng):
        inst = build_instance(
            2,
            vnf_caps=[[10, 10], [10, 10], [10, 10]],
            deploy_costs=[[1, 1]] * 3,
            chains=[((0, 2), (1.0, 1.0))],
            flows=[(0, 1, 0)],
            rng=rng,
        )
        slots = make_slots(inst, [[5.0]])
        coeffs = delay_coefficients(inst, slots[0], slot_rates(inst, slots[0]))
        assert coeffs.hop[0].shape == (1, 2, 2)  # one hop for the 2-position chain

    def test_hop_coefficient_value(self, rng):
        inst = build_instance(
            2,
            vnf_caps=[[10, 10], [10, 10]],
            deploy_costs=[[1, 1], [1, 1]],
            chains=[((0, 1), (0.5, 1.0))],
            flows=[(0, 1, 0)],
            rng=rng,
        )
        slots = make_slots(inst, [[8.0]], weights=[2.0])
        coeffs = delay_coefficients(inst, slots[0], slot_rates(inst, slots[0]))
        l01 = inst.delay.values[0, 1]
        # hop rate is beta * bar * F = 0.5 * 1 * 8
        assert coeffs.hop[0][0, 0, 1] == pytest.approx(2.0 * l01 / (0.5 * 8.0))
        assert coeffs.hop[0][0, 0, 0] == 0.0

    def test_zero_rate_flow_is_contract_violation(self, rng):
        inst = single_vnf_instance(rng=rng)
        slots = make_slots(inst, [[10.0]])
        rates = slot_rates(inst, slots[0])
        bad_slot = SlotInput(1, [0.0], [1.0], slots[0].run_costs)
        with pytest.raises(ValueError):
            delay_coefficients(inst, bad_slot, rates)


class _ManualPlan:
    def __init__(self, q, y, x):
        self.q, self.y, self.x = q, y, x


class TestCostOfPlan:
    def _two_hop_instance(self, rng):
        return build_instance(
            2,
            vnf_caps=[[10, 10], [10, 10]],
            deploy_costs=[[1, 1], [1, 1]],
            chains=[((0, 1), (0.5, 0.8))],
            flows=[(0, 1, 0)],
            d_in=[0.03, 0.05],
            d_out=[0.02, 0.04],
            rng=rng,
        )

    def test_empty_plan_costs_nothing(self, rng):
        inst = single_vnf_instance(rng=rng)
        slots = make_slots(inst, [[0.0]])
        plan = _ManualPlan(np.zeros((1, 2)), {}, {})
        cost = cost_of_plan(inst, slots[0], plan, np.zeros((1, 2)))
        assert cost.total == 0.0

    def test_unchanged_counts_deploy_nothing(self, rng):
        inst = single_vnf_instance(rng=rng)
        slots = make_slots(inst, [[8.0]])
        plan = orfa_step(SlotLayout(inst, slots[0]), np.zeros((1, 2)))
        again = cost_of_plan(inst, slots[0], plan, plan.q)
        assert again.deploy == 0.0

    def test_intra_datacenter_hop_is_free(self, rng):
        inst = self._two_hop_instance(rng)
        slots = make_slots(inst, [[6.0]])
        F = 6.0
        beta0, beta1 = 0.5, 0.8
        y = {0: np.array([[F, 0.0], [beta0 * F, 0.0]])}
        x = {0: np.array([[[beta0 * F, 0.0], [0.0, 0.0]]])}
        plan = _ManualPlan(np.array([[1.0, 0.0], [1.0, 0.0]]), y, x)
        cost = cost_of_plan(inst, slots[0], plan, plan.q)
        # only the endpoint legs remain: ingress of the source traffic and
        # egress of the destination traffic, both at datacenter 0
        expected = 0.03 * F + 0.02 * beta1 * beta0 * F
        assert cost.transfer == pytest.approx(expected, abs=1e-12)

    def test_transfer_matches_double_sum_oracle(self, rng):
        inst = self._two_hop_instance(rng)
        slots = make_slots(inst, [[6.0]])
        for _ in range(25):
            # random feasible-shaped routing (conservation not required for C_T equality
            # beyond what the forms share; use a real plan to stay in contract)
            plan = orfa_step(SlotLayout(inst, slots[0]), rng.uniform(0, 2, size=(2, 2)))
            cost = cost_of_plan(inst, slots[0], plan, plan.q)
            oracle = transfer_cost_double_sum(inst, slots[0], plan)
            assert cost.transfer == pytest.approx(oracle, abs=1e-9)

    def test_transfer_invariant_under_datacenter_relabeling(self, rng):
        inst = self._two_hop_instance(rng)
        slots = make_slots(inst, [[6.0]])
        plan = orfa_step(SlotLayout(inst, slots[0]), np.zeros((2, 2)))
        cost = cost_of_plan(inst, slots[0], plan, np.zeros((2, 2)))

        perm = [1, 0]
        d = inst.delay.values.copy()
        order = perm + [2, 3]
        swapped = build_instance(
            2,
            vnf_caps=[[10, 10], [10, 10]],
            deploy_costs=[[1, 1], [1, 1]],
            chains=[((0, 1), (0.5, 0.8))],
            flows=[(0, 1, 0)],
            d_in=[0.05, 0.03],
            d_out=[0.04, 0.02],
            delays=d[np.ix_(order, order)],
        )
        plan_p = _ManualPlan(
            plan.q[:, perm],
            {0: plan.y[0][:, perm]},
            {0: plan.x[0][:, perm][:, :, perm]},
        )
        cost_p = cost_of_plan(swapped, make_slots(swapped, [[6.0]])[0], plan_p, np.zeros((2, 2)))
        assert cost_p.transfer == pytest.approx(cost.transfer, rel=1e-12)
        assert cost_p.delay == pytest.approx(cost.delay, rel=1e-12)

    def test_negative_plan_rejected(self, rng):
        inst = single_vnf_instance(rng=rng)
        slots = make_slots(inst, [[5.0]])
        plan = _ManualPlan(np.array([[-0.5, 0.0]]), {}, {})
        with pytest.raises(ValueError):
            cost_of_plan(inst, slots[0], plan, np.zeros((1, 2)))

    def test_pure_function_bit_identical(self, rng):
        inst = self._two_hop_instance(rng)
        slots = make_slots(inst, [[6.0]])
        plan = orfa_step(SlotLayout(inst, slots[0]), np.zeros((2, 2)))
        c1 = cost_of_plan(inst, slots[0], plan, np.zeros((2, 2)))
        c2 = cost_of_plan(inst, slots[0], plan, np.zeros((2, 2)))
        assert (c1.run, c1.deploy, c1.transfer, c1.delay) == (c2.run, c2.deploy, c2.transfer, c2.delay)


def test_conservation_of_feasible_plans(rng):
    from conftest import random_desk_instance

    for _ in range(5):
        inst, slots = random_desk_instance(rng)
        prev = np.zeros((inst.num_vnfs, inst.num_datacenters))
        for slot in slots:
            plan = orfa_step(SlotLayout(inst, slot), prev)
            rates = slot_rates(inst, slot)
            for k in rates.active:
                chain = inst.chain_of(k)
                for pos in range(len(chain)):
                    got = float(np.sum(plan.y[k][pos]))
                    want = rates.f_hat[k][pos]
                    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
            prev = plan.q


def test_vnf_demand_and_residual_reporting(rng):
    inst = single_vnf_instance(rng=rng)
    slots = make_slots(inst, [[8.0]])
    rates = slot_rates(inst, slots[0])
    np.testing.assert_allclose(vnf_demand(inst, rates), [8.0])
    plan = _ManualPlan(np.array([[0.1, 0.0]]), {0: np.array([[8.0, 0.0]])}, {0: np.zeros((0, 2, 2))})
    res = plan_residuals(inst, slots[0], plan)
    assert res["capacity"] == pytest.approx(8.0 - 0.1 * 10.0)
    assert res["demand"] == 0.0


def test_sum_costs(rng):
    total = sum([CostBreakdown(1, 2, 3, 4), CostBreakdown(0.5, 0, 0, 1)], CostBreakdown())
    assert (total.run, total.deploy, total.transfer, total.delay) == (1.5, 2, 3, 5)
    assert total.total == 11.5
