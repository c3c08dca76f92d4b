"""One slot's decision variables and the constraint system over them.

A layout is built once per slot and owns that slot's capacity, arrival-rate
and conservation rows.  The same rows serve three consumers: the per-slot
regularized subproblem (every column), the flow-redirection LP (instance
counts fixed at rounded values, so only the routing columns ``[:, num_q:]``)
and the offline horizon-wide LP (every slot's blocks stacked with coupling
rows).  Stating each flow's arrival rate once, at its chain entry, gives
every such program equality rows of full rank, as the barrier solver needs.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .model import ProblemInstance, SlotInput
from .rates import DelayCoefficients, RateProfile, delay_coefficients, slot_rates, vnf_demand

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
    """Index map over the (q, y, x) decision variables of one slot, and its rows.

    Variables, in order: ``q[m, i]`` (M*I block, m-major), then per active
    flow a ``y[pos, i]`` block and an ``x[hop, i, j]`` block.  Hop variables
    exist only for consecutive chain positions; other VNF pairs carry no
    traffic by construction, which keeps the program small.

    ``load`` maps a variable vector to the traffic each (VNF, datacenter)
    processes, m-major; ``demand`` is each VNF's total arrival rate.
    """

    def __init__(self, inst: ProblemInstance, rates: RateProfile):
        self.inst = inst
        self.rates = rates
        I, M = inst.num_datacenters, inst.num_vnfs
        self.num_q = n = M * I
        self.y_offset, self.x_offset, self.chain = {}, {}, {}
        for k in rates.active:
            chain = inst.chain_of(k)
            self.chain[k] = chain
            self.y_offset[k] = n
            n += len(chain) * I
            self.x_offset[k] = n
            n += (len(chain) - 1) * I * I
        self.n_vars = n
        self.demand = vnf_demand(inst, rates)

        # one entry per (active flow, position), flows in rates.active order
        chains = [self.chain[k] for k in rates.active]
        vnf = np.array([m for c in chains for m in c.vnfs], dtype=np.intp)
        beta = np.array([b for c in chains for b in c.beta])
        y0 = np.array([self.y_offset[k] + p * I for k in rates.active for p in range(len(self.chain[k]))], dtype=np.intp)
        # one entry per hop, sent from position ``send`` to position ``send + 1``
        send = np.flatnonzero([p + 1 < len(c) for c in chains for p in range(len(c))])
        x0 = np.array([self.x_offset[k] + h * I * I for k in rates.active for h in range(len(self.chain[k]) - 1)],
                      dtype=np.intp)

        dc = np.arange(I)
        y_cols = y0[:, None] + dc  # y_cols[p, i]: traffic entering position p at datacenter i
        x_cols = x0[:, None, None] + I * dc[:, None] + dc  # x_cols[h, i, j]: hop h moving from i to j
        load_rows = (vnf[:, None] * I + dc).ravel()
        ones = np.ones(y_cols.size)
        self.load = _csr([load_rows], [y_cols.ravel()], [ones], (M * I, n))

        cells = np.arange(M * I)
        a_cap = _csr([load_rows, cells], [y_cols.ravel(), cells], [ones, -inst.capacity.reshape(-1)], (M * I, n))
        self._capacity = a_cap, np.zeros(M * I)

        # arrival rates at the chain entries only; conservation implies the rest
        entry = y_cols[np.cumsum([0] + [len(c) for c in chains])[:-1]]  # entry[k, i]: flow k's first position
        rate = np.array([rates.f_hat[k][0] for k in rates.active])
        a_dem = _csr([np.repeat(np.arange(rate.size), I)], [entry.ravel()], [np.ones(entry.size)], (rate.size, n))
        self._demand = a_dem, rate

        hop_rows = np.arange(len(send) * I)
        out_rows = hop_rows + hop_rows.size
        pair = np.ones(x_cols.size)
        a_con = _csr(
            [hop_rows, np.repeat(hop_rows, I), out_rows, np.repeat(out_rows, I)],
            [y_cols[send + 1].ravel(), x_cols.transpose(0, 2, 1).ravel(), y_cols[send].ravel(), x_cols.ravel()],
            [np.ones(hop_rows.size), -pair, np.repeat(beta[send], I), -pair],
            (2 * hop_rows.size, n),
        )
        self._conservation = a_con, np.zeros(2 * hop_rows.size)

    @classmethod
    def for_slot(cls, inst: ProblemInstance, slot: SlotInput) -> SlotLayout:
        """The layout over one slot's active flows, from its aggregate arrival rates."""
        return cls(inst, slot_rates(inst, slot))

    # --- constraint blocks (built once, in __init__) ----------------------------
    def capacity_rows(self):
        """Processing-capacity rows, one per (VNF, datacenter), m-major.

        Load on the routing columns, ``-capacity`` on the q columns, right-hand
        side zero.  With instance counts fixed, keep the routing columns and
        move ``counts * capacity`` to the right-hand side.
        """
        return self._capacity

    def demand_rows(self):
        """Arrival-rate rows: traffic entering each chain's first VNF sums to the flow's rate.

        One row per active flow, in ``rates.active`` order.  Conservation with
        positive rate-change ratios implies the rate at every later position.
        """
        return self._demand

    def conservation_rows(self):
        """Flow conservation at every non-boundary position.

        Inbound rows: traffic entering position pos at datacenter i equals the
        hop traffic arriving there.  Outbound rows: traffic leaving position
        pos (scaled by the rate-change ratio) equals the hop traffic sent out.
        All inbound rows come first, (flow, pos >= 1, i) in order, then all
        outbound rows, (flow, pos < L-1, i) in order.
        """
        return self._conservation

    def count_caps(self, run_costs: np.ndarray):
        """Upper bounds on the counts whose rent is zero: (q columns, caps).

        Such counts have no price keeping them bounded; one instance beyond
        what the whole demand needs never binds at an optimum.
        """
        free = np.asarray(run_costs) <= 0.0
        caps = self.demand[:, None] / self.inst.capacity + 1.0
        return np.flatnonzero(free), caps[free]

    # --- objective -------------------------------------------------------------
    def routing_cost(self, slot: SlotInput, coeffs: DelayCoefficients = None) -> np.ndarray:
        """Transfer plus delay cost per unit of each routing variable.

        Traffic entering a datacenter pays ingress plus (scaled) egress; hop
        variables pay the delay coefficient, minus a refund of the transfer
        charge when a hop stays inside one datacenter.
        """
        inst = self.inst
        if coeffs is None:
            coeffs = delay_coefficients(inst, slot, self.rates)
        I = inst.num_datacenters
        c = np.zeros(self.n_vars)
        d_in, d_out = inst.ingress_cost, inst.egress_cost
        for k in self.rates.active:
            chain = self.chain[k]
            o = self.y_offset[k]
            for pos in range(len(chain)):
                c[o + pos * I : o + (pos + 1) * I] = d_in + d_out * chain.beta[pos] + coeffs.endpoint[k][pos]
            ox = self.x_offset[k]
            for hop in range(len(chain) - 1):
                block = coeffs.hop[k][hop].copy()
                block[np.diag_indices(I)] -= d_in + d_out
                c[ox + hop * I * I : ox + (hop + 1) * I * I] = block.reshape(-1)
        return c

    def run_cost(self, slot: SlotInput) -> np.ndarray:
        """Per-instance rent on the q block (zeros elsewhere)."""
        c = np.zeros(self.n_vars)
        c[: self.num_q] = slot.run_costs.reshape(-1)
        return c

    # --- helpers ---------------------------------------------------------------
    def unpack(self, v: np.ndarray):
        """Split a solution vector into (q, y dict, x dict)."""
        inst = self.inst
        I = inst.num_datacenters
        q = v[: self.num_q].reshape(inst.num_vnfs, I).copy()
        y, x = {}, {}
        for k in self.rates.active:
            L = len(self.chain[k])
            o, ox = self.y_offset[k], self.x_offset[k]
            y[k] = v[o : o + L * I].reshape(L, I).copy()
            x[k] = v[ox : ox + (L - 1) * I * I].reshape(L - 1, I, I).copy()
        return q, y, x

    def spread_evenly(self):
        """A strictly positive routing assignment spreading every flow evenly.

        Satisfies demand and conservation exactly, giving an interior starting
        point once paired with generous instance counts.
        """
        I = self.inst.num_datacenters
        v = np.zeros(self.n_vars)
        for k in self.rates.active:
            L = len(self.chain[k])
            f_hat = self.rates.f_hat[k]
            o, ox = self.y_offset[k], self.x_offset[k]
            v[o : o + L * I] = np.repeat(f_hat / I, I)
            v[ox : ox + (L - 1) * I * I] = np.repeat(np.array(self.chain[k].beta[:-1]) * f_hat[:-1] / (I * I), I * I)
        return v
