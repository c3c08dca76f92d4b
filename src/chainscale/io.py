"""Instance (de)serialization to the documented JSON layout.

The schema mirrors the domain types one to one; see FORMATS.md at the repo
root for the field-by-field description and a golden example.
"""

from __future__ import annotations

import json

import numpy as np

from .model import Datacenter, DelayMatrix, FlowSpec, InputError, ProblemInstance, ServiceChain, VnfType

__all__ = ["instance_to_dict", "instance_from_dict", "save_instance", "load_instance"]


def instance_to_dict(inst: ProblemInstance) -> dict:
    return {
        "datacenters": [
            {"node": d.node, "ingress_cost": d.ingress_cost, "egress_cost": d.egress_cost}
            for d in inst.datacenters
        ],
        "delays": {"matrix": inst.delay.values.tolist(), "alpha": inst.delay.alpha},
        "vnfs": [
            {"name": v.name, "capacity": list(v.capacity), "deploy_cost": list(v.deploy_cost)}
            for v in inst.vnfs
        ],
        "chains": [
            {"chain_id": c.chain_id, "vnfs": list(c.vnfs), "beta": list(c.beta)} for c in inst.chains
        ],
        "flows": [
            {"flow_id": f.flow_id, "source": f.source, "destination": f.destination, "chain_id": f.chain_id}
            for f in inst.flows
        ],
        "horizon": inst.horizon,
        "epsilon": inst.epsilon,
    }


def instance_from_dict(data: dict) -> ProblemInstance:
    return ProblemInstance(
        datacenters=tuple(
            Datacenter(int(d["node"]), float(d["ingress_cost"]), float(d["egress_cost"]))
            for d in data["datacenters"]
        ),
        delay=DelayMatrix(np.array(data["delays"]["matrix"], dtype=float), float(data["delays"]["alpha"])),
        vnfs=tuple(
            VnfType(v["name"], tuple(v["capacity"]), tuple(v["deploy_cost"])) for v in data["vnfs"]
        ),
        chains=tuple(
            ServiceChain(int(c["chain_id"]), tuple(c["vnfs"]), tuple(c["beta"])) for c in data["chains"]
        ),
        flows=tuple(
            FlowSpec(int(f["flow_id"]), int(f["source"]), int(f["destination"]), int(f["chain_id"]))
            for f in data["flows"]
        ),
        horizon=int(data["horizon"]),
        epsilon=float(data["epsilon"]),
    )


def save_instance(path, inst: ProblemInstance) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_dict(inst), fh, indent=1)


def load_instance(path) -> ProblemInstance:
    """Read an instance file; ``InputError`` names the file when it is missing or malformed."""
    try:
        with open(path) as fh:
            return instance_from_dict(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise InputError(f"cannot read instance file {path}: {type(exc).__name__}: {exc}") from exc
