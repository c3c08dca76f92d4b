from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainscale.layout import SlotLayout
from chainscale.rates import cost_of_plan, plan_residuals, slot_rates
from conftest import pack_plan, random_desk_instance


def close(value):
    return pytest.approx(value, rel=1e-9, abs=1e-9)


def random_plan(rng, layout):
    """Nonnegative (q, y, x) of the layout's shapes, unrelated to any constraint."""
    M, I = layout.inst.num_vnfs, layout.inst.num_datacenters
    return SimpleNamespace(
        q=rng.uniform(0.0, 3.0, size=(M, I)),
        y={k: rng.uniform(0.0, 20.0, size=(len(c), I)) for k, c in layout.chain.items()},
        x={k: rng.uniform(0.0, 5.0, size=(len(c) - 1, I, I)) for k, c in layout.chain.items()},
    )


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_rows_and_prices_match_the_independent_derivations(seed):
    # the layout's rows and cost vectors against rates.plan_residuals and
    # rates.cost_of_plan, which derive the same quantities without the layout
    rng = np.random.default_rng(seed)
    inst, slots = random_desk_instance(rng, max_slots=1)
    slot = slots[0]
    layout = SlotLayout(inst, slot_rates(inst, slot))
    plan = random_plan(rng, layout)
    v = pack_plan(layout, plan)

    res = plan_residuals(inst, slot, plan)
    a_dem, b_dem = layout.demand_rows()
    a_con, b_con = layout.conservation_rows()
    a_cap, b_cap = layout.capacity_rows()
    gap = a_con @ v - b_con
    inbound, outbound = np.split(gap, 2)
    assert np.max(np.abs(a_dem @ v - b_dem), initial=0.0) == close(res["demand"])
    assert np.max(np.abs(inbound), initial=0.0) == close(res["inbound"])
    assert np.max(np.abs(outbound), initial=0.0) == close(res["outbound"])
    assert max(0.0, float(np.max(a_cap @ v - b_cap))) == close(res["capacity"])

    cost = cost_of_plan(inst, slot, plan, plan.q)
    price = (layout.run_cost(slot) + layout.routing_cost(slot)) @ v
    assert price == close(cost.run + cost.transfer + cost.delay)

    q, y, x = layout.unpack(v)
    np.testing.assert_array_equal(q, plan.q)
    for k in layout.chain:
        np.testing.assert_array_equal(y[k], plan.y[k])
        np.testing.assert_array_equal(x[k], plan.x[k])
