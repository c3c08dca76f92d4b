"""Variable indexing and constraint assembly for one slot's decisions.

The same sparse blocks serve three consumers: the per-slot regularized
subproblem (instance counts are variables), the flow-redirection LP (instance
counts fixed at rounded values) and the offline horizon-wide LP (per-slot
blocks stacked with coupling rows).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .model import ProblemInstance, SlotInput
from .rates import DelayCoefficients, RateProfile, delay_coefficients

__all__ = ["SlotLayout"]


class SlotLayout:
    """Index map over (q, y, x) decision variables of one slot.

    Variables, in order: optionally ``q[m, i]`` (M*I block), then per active
    flow a ``y[pos, i]`` block and an ``x[hop, i, j]`` block.  Hop variables
    exist only for consecutive chain positions; other VNF pairs carry no
    traffic by construction, which keeps the program small.
    """

    def __init__(self, inst: ProblemInstance, rates: RateProfile, with_q: bool = True):
        self.inst = inst
        self.rates = rates
        self.with_q = with_q
        I, M = inst.num_datacenters, inst.num_vnfs
        self.num_q = M * I if with_q else 0
        self.y_offset, self.x_offset, self.chain = {}, {}, {}
        n = self.num_q
        for k in rates.active:
            chain = inst.chain_of(k)
            self.chain[k] = chain
            self.y_offset[k] = n
            n += len(chain) * I
            self.x_offset[k] = n
            n += (len(chain) - 1) * I * I
        self.n_vars = n

    # --- variable indices ---------------------------------------------------
    def q_idx(self, m: int, i: int) -> int:
        return m * self.inst.num_datacenters + i

    def y_idx(self, k: int, pos: int, i: int) -> int:
        return self.y_offset[k] + pos * self.inst.num_datacenters + i

    def x_idx(self, k: int, hop: int, i: int, j: int) -> int:
        I = self.inst.num_datacenters
        return self.x_offset[k] + (hop * I + i) * I + j

    # --- constraint blocks ----------------------------------------------------
    def capacity_rows(self, fixed_q: np.ndarray = None):
        """Processing-capacity rows, one per (VNF, datacenter).

        With ``fixed_q`` the instance counts are constants and move to the
        right-hand side; otherwise the q variables enter with coefficient
        ``-capacity``.  Row order is m-major, matching ``q_idx``.
        """
        inst = self.inst
        I, M = inst.num_datacenters, inst.num_vnfs
        rows, cols, vals = [], [], []
        for k in self.rates.active:
            chain = self.chain[k]
            for pos, m in enumerate(chain.vnfs):
                for i in range(I):
                    rows.append(m * I + i)
                    cols.append(self.y_idx(k, pos, i))
                    vals.append(1.0)
        if fixed_q is None:
            if not self.with_q:
                raise ValueError("capacity rows need q variables or fixed counts")
            for m in range(M):
                for i in range(I):
                    rows.append(m * I + i)
                    cols.append(self.q_idx(m, i))
                    vals.append(-inst.capacity[m, i])
            rhs = np.zeros(M * I)
        else:
            rhs = (np.asarray(fixed_q, dtype=float) * inst.capacity).reshape(-1)
        a = sp.csr_matrix((vals, (rows, cols)), shape=(M * I, self.n_vars))
        return a, rhs

    def demand_rows(self):
        """Arrival-rate rows: traffic entering each chain position sums to F_hat.

        One row per (active flow, position), flows in ``rates.active`` order.
        """
        inst = self.inst
        I = inst.num_datacenters
        rows, cols, vals, rhs = [], [], [], []
        r = 0
        for k in self.rates.active:
            chain = self.chain[k]
            for pos in range(len(chain)):
                for i in range(I):
                    rows.append(r)
                    cols.append(self.y_idx(k, pos, i))
                    vals.append(1.0)
                rhs.append(self.rates.f_hat[k][pos])
                r += 1
        a = sp.csr_matrix((vals, (rows, cols)), shape=(r, self.n_vars))
        return a, np.array(rhs)

    def conservation_rows(self):
        """Flow conservation at every non-boundary position.

        Inbound rows: traffic entering position pos at datacenter i equals the
        hop traffic arriving there.  Outbound rows: traffic leaving position
        pos (scaled by the rate-change ratio) equals the hop traffic sent out.
        All inbound rows come first, (flow, pos >= 1, i) in order, then all
        outbound rows, (flow, pos < L-1, i) in order.
        """
        inst = self.inst
        I = inst.num_datacenters
        rows, cols, vals = [], [], []
        r = 0
        for k in self.rates.active:
            chain = self.chain[k]
            for pos in range(1, len(chain)):
                for i in range(I):
                    rows.append(r)
                    cols.append(self.y_idx(k, pos, i))
                    vals.append(1.0)
                    for j in range(I):
                        rows.append(r)
                        cols.append(self.x_idx(k, pos - 1, j, i))
                        vals.append(-1.0)
                    r += 1
        for k in self.rates.active:
            chain = self.chain[k]
            for pos in range(len(chain) - 1):
                for i in range(I):
                    rows.append(r)
                    cols.append(self.y_idx(k, pos, i))
                    vals.append(chain.beta[pos])
                    for j in range(I):
                        rows.append(r)
                        cols.append(self.x_idx(k, pos, i, j))
                        vals.append(-1.0)
                    r += 1
        a = sp.csr_matrix((vals, (rows, cols)), shape=(r, self.n_vars))
        return a, np.zeros(r)

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
        if self.with_q:
            c[: self.num_q] = slot.run_costs.reshape(-1)
        return c

    # --- helpers ---------------------------------------------------------------
    def unpack(self, v: np.ndarray):
        """Split a solution vector into (q, y dict, x dict)."""
        inst = self.inst
        I = inst.num_datacenters
        q = v[: self.num_q].reshape(inst.num_vnfs, I).copy() if self.with_q else None
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
        inst = self.inst
        I = inst.num_datacenters
        v = np.zeros(self.n_vars)
        for k in self.rates.active:
            chain = self.chain[k]
            f_hat = self.rates.f_hat[k]
            for pos in range(len(chain)):
                v[self.y_idx(k, pos, 0) : self.y_idx(k, pos, 0) + I] = f_hat[pos] / I
            for hop in range(len(chain) - 1):
                ox = self.x_offset[k] + hop * I * I
                v[ox : ox + I * I] = chain.beta[hop] * f_hat[hop] / (I * I)
        return v
