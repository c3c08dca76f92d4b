import dataclasses
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chainscale.io import load_instance, save_instance
from chainscale.model import DelayMatrix, validate_instance
from conftest import random_desk_instance


def assert_same(a, b, path="instance"):
    """Equal field by field, with the same types; arrays equal bit for bit."""
    assert type(a) is type(b), path
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape, path
        assert a.tobytes() == b.tobytes(), path
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}")
    elif isinstance(a, tuple):
        assert len(a) == len(b), path
        for k, (u, v) in enumerate(zip(a, b)):
            assert_same(u, v, f"{path}[{k}]")
    else:
        assert a == b, path


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), alpha_scale=st.sampled_from([1.0, 0.5]))
def test_instance_json_round_trip(seed, alpha_scale):
    # a halved alpha makes some instances invalid, so both verdicts round-trip
    inst, _ = random_desk_instance(np.random.default_rng(seed), max_dc=5, max_vnfs=3, max_flows=4)
    inst = dataclasses.replace(inst, delay=DelayMatrix(inst.delay.values, inst.delay.alpha * alpha_scale))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.json"
        save_instance(path, inst)
        back = load_instance(path)
    assert_same(inst, back)
    assert validate_instance(back) == validate_instance(inst)
