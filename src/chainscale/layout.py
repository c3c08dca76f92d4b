"""One slot's program: its variables, its rows and its prices.

A layout is built once per slot and is that slot's handle: every per-slot
step (the regularized subproblem, each rounding policy, the redirection LP)
takes the layout and reads the instance and the slot from it.  Building it
rejects a slot whose observables are malformed (wrong shapes, non-finite or
negative values).  It owns everything the slot's programs price: the
capacity rows ``a_cap``, the equality rows ``a_eq``/``b_eq`` (arrival rates,
then flow conservation) and the cost vector ``cost`` (rent, transfer and
linearized delay).  Four consumers read them: the per-slot regularized
subproblem (every column), the flow-redirection LP (instance counts fixed at
rounded values, so only the routing columns ``[:, num_q:]``), the offline
horizon-wide LP (every slot's blocks stacked with coupling rows) and the
dual certificate's reduced costs.
Stating each flow's arrival rate once, at its chain entry, gives every such
program equality rows of full rank, as the barrier solver needs.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .model import ProblemInstance, SlotInput
from .rates import slot_rates, vnf_demand

__all__ = ["SlotLayout"]


def _csr(rows, cols, vals, shape):
    """One sparse block from lists of (row, column, value) index arrays.

    The entries are sorted by (row, column) and handed to scipy as CSR arrays,
    in canonical form: no (row, column) pair repeats in any block built here.
    """
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    order = np.lexsort((cols, rows))
    indptr = np.zeros(shape[0] + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return sp.csr_matrix((np.concatenate(vals)[order], cols[order], indptr), shape=shape)


class SlotLayout:
    """One slot's (q, y, x) decision variables, its rows and its prices.

    Variables, in order: ``q[m, i]`` (M*I block, m-major), then per active
    flow a ``y[pos, i]`` block and an ``x[hop, i, j]`` block.  Hop variables
    exist only for consecutive chain positions; other VNF pairs carry no
    traffic by construction, which keeps the program small.

    Built once from the slot, after checking its observables, by index
    arithmetic over flat (flow, position) and hop arrays:

    * ``a_cap`` — processing-capacity rows, one per (VNF, datacenter),
      m-major: load on the routing columns, ``-capacity`` on the q columns,
      right-hand side zero.  With instance counts fixed, keep the routing
      columns and move ``counts * capacity`` to the right-hand side.
    * ``a_eq``, ``b_eq`` — one arrival-rate row per active flow, at its chain
      entry, in ``rates.active`` order; then the conservation rows (see
      ``conservation_rows``).
    * ``cost`` — rent on q; transfer plus linearized delay per unit of each
      routing variable.
    * ``demand`` is each VNF's total arrival rate.

    ``inst`` and ``slot`` are the instance and the slot it was built from.
    """

    def __init__(self, inst: ProblemInstance, slot: SlotInput):
        if slot.rates.shape != (inst.num_flows,):
            raise ValueError("slot rates shape does not match flow count")
        if slot.run_costs.shape != (inst.num_vnfs, inst.num_datacenters):
            raise ValueError("slot run costs shape does not match (VNFs, datacenters)")
        for name, values in (("rates", slot.rates), ("delay weights", slot.delay_weights), ("run costs", slot.run_costs)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"slot {slot.t}: {name} must be finite")
            if np.any(values < 0):
                raise ValueError(f"slot {slot.t}: {name} must be nonnegative")
        self.inst = inst
        self.slot = slot
        self.rates = rates = slot_rates(inst, slot)
        I, M = inst.num_datacenters, inst.num_vnfs
        self.num_q = M * I
        self.demand = vnf_demand(inst, rates)
        active = np.array(rates.active, dtype=np.intp)
        chains = [inst.chain_of(k) for k in rates.active]
        length = np.array([len(c) for c in chains], dtype=np.intp)
        size = length * I + (length - 1) * I * I  # each flow's y block, then its x block
        y_off = self.num_q + np.cumsum(size) - size
        x_off = y_off + length * I
        self.n_vars = n = self.num_q + int(size.sum())

        # one entry per (active flow, position), flows in rates.active order
        flow = np.repeat(np.arange(active.size), length)  # flow of each entry, 0..F-1
        first = np.cumsum(length) - length  # each flow's first entry
        last = first + length - 1
        pos = np.arange(flow.size) - first[flow]
        vnf = np.array([m for c in chains for m in c.vnfs], dtype=np.intp)
        beta = np.array([b for c in chains for b in c.beta])
        bar = np.array([b for k in rates.active for b in rates.beta_bar[k]])
        rate = slot.rates[active]
        # one hop per entry that is not its flow's last, sent from entry ``send`` to ``send + 1``
        send = np.flatnonzero(pos + 1 < length[flow])
        sender = flow[send]
        self._split = np.cumsum(length)[:-1], np.cumsum(length - 1)[:-1]  # where unpack cuts each flow
        self._f_hat = rate[flow] * bar  # arrival rate at each entry
        self._hop_rate = beta[send] * self._f_hat[send]

        dc = np.arange(I)
        # y_cols[p, i]: traffic entering entry p at datacenter i; x_cols[h, i, j]: hop h moving from i to j
        self.y_cols = y_cols = (y_off[flow] + pos * I)[:, None] + dc
        self.x_cols = x_cols = (x_off[sender] + pos[send] * I * I)[:, None, None] + I * dc[:, None] + dc
        load_rows = (vnf[:, None] * I + dc).ravel()
        ones = np.ones(y_cols.size)
        cells = np.arange(M * I)
        self.a_cap = _csr([load_rows, cells], [y_cols.ravel(), cells], [ones, -inst.capacity.reshape(-1)], (M * I, n))

        # arrival rates at the chain entries only; conservation implies the rest
        entry_rows = np.repeat(np.arange(active.size), I)
        hop_rows = active.size + np.arange(send.size * I)
        out_rows = hop_rows + hop_rows.size
        pair = np.ones(x_cols.size)
        self.a_eq = _csr(
            [entry_rows, hop_rows, np.repeat(hop_rows, I), out_rows, np.repeat(out_rows, I)],
            [y_cols[first].ravel(), y_cols[send + 1].ravel(), x_cols.transpose(0, 2, 1).ravel(), y_cols[send].ravel(),
             x_cols.ravel()],
            [np.ones(entry_rows.size), np.ones(hop_rows.size), -pair, np.repeat(beta[send], I), -pair],
            (active.size + 2 * hop_rows.size, n),
        )
        self.b_eq = np.concatenate([rate, np.zeros(2 * hop_rows.size)])

        # delay per unit of traffic, each leg's delay weight divided by the
        # flow's rate on it: the source leg at each chain entry, the
        # destination leg at each chain end, and every hop
        delays, nodes = inst.delay.values, inst.dc_nodes
        weight = slot.delay_weights[active]
        source = np.array([inst.flows[k].source for k in rates.active], dtype=np.intp)
        destination = np.array([inst.flows[k].destination for k in rates.active], dtype=np.intp)
        endpoint = np.zeros(y_cols.shape)
        endpoint[first] += weight[:, None] * delays[source[:, None], nodes] / rate[:, None]
        endpoint[last] += weight[:, None] * delays[nodes, destination[:, None]] / (bar[last] * rate)[:, None]
        hop = weight[sender, None, None] * inst.dc_delays() / (beta[send] * bar[send] * rate[sender])[:, None, None]
        # traffic staying inside one datacenter on a hop moves for free
        hop[:, dc, dc] -= inst.ingress_cost + inst.egress_cost
        self.cost = np.zeros(n)
        self.cost[: self.num_q] = slot.run_costs.reshape(-1)
        self.cost[y_cols] = inst.ingress_cost + inst.egress_cost * beta[:, None] + endpoint
        self.cost[x_cols] = hop

    # --- rows and prices (built once, in __init__) -----------------------------
    def capacity_rows(self):
        """Processing-capacity rows and their zero right-hand side; see ``a_cap``."""
        return self.a_cap, np.zeros(self.num_q)

    def demand_rows(self):
        """Arrival-rate rows: traffic entering each chain's first VNF sums to the flow's rate.

        One row per active flow, in ``rates.active`` order: the first rows of
        ``a_eq``.  Conservation with positive rate-change ratios implies the
        rate at every later position.
        """
        n = len(self.rates.active)
        return self.a_eq[:n], self.b_eq[:n]

    def conservation_rows(self):
        """Flow conservation at every non-boundary position: the rows of ``a_eq`` after the demand rows.

        Inbound rows: traffic entering position pos at datacenter i equals the
        hop traffic arriving there.  Outbound rows: traffic leaving position
        pos (scaled by the rate-change ratio) equals the hop traffic sent out.
        All inbound rows come first, (flow, pos >= 1, i) in order, then all
        outbound rows, (flow, pos < L-1, i) in order.
        """
        n = len(self.rates.active)
        return self.a_eq[n:], self.b_eq[n:]

    def count_caps(self):
        """Upper bounds on the counts whose rent is zero: (q columns, caps).

        ORFA's per-slot subproblem needs them: with zero rent and zero deploy
        cost nothing else bounds such a count.  Each cap is one instance
        beyond what the slot's whole demand needs.  The horizon LP sets none.
        """
        free = np.flatnonzero(self.cost[: self.num_q] <= 0.0)
        caps = self.demand[:, None] / self.inst.capacity + 1.0
        return free, caps.reshape(-1)[free]

    def routing_cost(self) -> np.ndarray:
        """Transfer plus delay cost per unit of each routing variable (zeros on q).

        Traffic entering a datacenter pays ingress plus (scaled) egress; hop
        variables pay their delay, minus a refund of the transfer charge when
        a hop stays inside one datacenter.
        """
        c = self.cost.copy()
        c[: self.num_q] = 0.0
        return c

    def run_cost(self) -> np.ndarray:
        """Per-instance rent on the q block (zeros elsewhere)."""
        c = np.zeros(self.n_vars)
        c[: self.num_q] = self.cost[: self.num_q]
        return c

    # --- helpers ---------------------------------------------------------------
    def unpack(self, v: np.ndarray):
        """Split a solution vector into (q, y dict, x dict)."""
        q = v[: self.num_q].reshape(self.inst.num_vnfs, self.inst.num_datacenters).copy()
        y = dict(zip(self.rates.active, np.split(v[self.y_cols], self._split[0])))
        x = dict(zip(self.rates.active, np.split(v[self.x_cols], self._split[1])))
        return q, y, x

    def spread_evenly(self):
        """A strictly positive routing assignment spreading every flow evenly.

        Satisfies demand and conservation exactly, giving an interior starting
        point once paired with generous instance counts.
        """
        I = self.inst.num_datacenters
        v = np.zeros(self.n_vars)
        v[self.y_cols] = (self._f_hat / I)[:, None]
        v[self.x_cols] = (self._hop_rate / (I * I))[:, None, None]
        return v
