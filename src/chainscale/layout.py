"""One slot's program: its variables, its rows and its prices.

A layout is built once per slot and is that slot's handle: every per-slot
step (the regularized subproblem, each rounding policy, the redirection LP)
takes the layout and reads the instance and the slot from it.  Building it
rejects a slot whose observables are malformed (wrong shapes, non-finite or
negative values).  It owns everything the slot's programs price: the
capacity rows ``a_cap``, the equality rows ``a_eq``/``b_eq`` (arrival rates,
then flow balance) and the cost vector ``cost`` (rent, transfer and
linearized delay).  Four consumers read them: the per-slot regularized
subproblem (every column), the flow-redirection LP (instance counts fixed at
rounded values, so only the routing columns ``[:, num_q:]``), the offline
horizon-wide LP (every slot's blocks stacked with coupling rows) and the
dual certificate's reduced costs.

The routing variables are hop traffic only.  The traffic ``y[pos, i]``
entering chain position ``pos`` at datacenter ``i`` is a fixed linear
function of the hop traffic ``x[hop, i, j]``, so it is not a column: the
traffic entering a later position is what the hop into it delivers, and the
traffic entering the chain entry is what its first hop sends out, divided by
the entry's rate-change ratio.  Only a one-VNF chain, which has no hop, keeps
its entry columns ``y[0, i]``.  Substituting ``y`` out is the free-column
elimination of LP presolve (Andersen & Andersen, *Presolving in linear
programming*, Math. Programming 71, 1995): the programs are the same, with
far fewer equality rows.  Each flow keeps one arrival-rate row at its chain
entry and one balance row per intermediate position and datacenter.  Those
rows have full row rank, as the barrier solver needs: the balance rows of a
flow's last intermediate position each own the columns of the last hop
leaving them, each earlier balance row owns the columns of its outbound hop
once the rows after it are accounted for, and the arrival row then owns the
first hop's columns, so no combination of the rows cancels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .model import ProblemInstance, SlotInput
from .rates import slot_rates, vnf_demand

__all__ = ["SlotLayout", "SlotPlan", "routing_columns"]


@dataclass(frozen=True)
class SlotPlan:
    """One slot's decisions: instance counts and routing.

    ``q`` is fractional from ORFA or the horizon LP and integer once rounded.
    New deployments are not stored: ``rates.cost_of_plan`` charges them from
    consecutive slots' counts.  ``duals``, ``objective`` and ``kkt`` are set
    on an ORFA plan only, from the solve of its regularized subproblem.
    """

    t: int
    q: np.ndarray  # (M, I) instance counts
    y: dict  # flow id -> (L, I) traffic entering each position
    x: dict  # flow id -> (L-1, I, I) hop traffic
    duals: object = None  # orfa.SlotDuals
    objective: float = np.nan  # subproblem objective (includes the regularizer)
    kkt: dict = field(default_factory=dict)


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


def routing_columns(chains, num_datacenters: int):
    """Length and routing-column count of each of the active flows' ``chains``.

    A one-VNF flow owns its I entry columns ``y[0, i]``; a longer chain owns
    its (L-1)*I*I hop columns.  ``SlotLayout`` sizes its blocks with this,
    and the horizon LP's column count is read from it without a layout.
    """
    length = np.array([len(c) for c in chains], dtype=np.intp)
    return length, np.where(length == 1, num_datacenters, (length - 1) * num_datacenters**2)


class SlotLayout:
    """One slot's (q, routing) decision variables, its rows and its prices.

    Variables, in order: ``q[m, i]`` (M*I block, m-major), then one block
    per active flow, in ``rates.active`` order.  A flow whose chain has two
    or more VNFs owns its hop traffic ``x[hop, i, j]`` ((L-1)*I*I columns,
    ``x_cols``); a one-VNF flow owns its entry traffic ``y[0, i]`` (I
    columns, ``y_cols``).  Hop variables exist only for consecutive chain
    positions; other VNF pairs carry no traffic by construction.  The
    traffic entering each position is derived, not a variable::

        y[0, i] = sum_j x[0, i, j] / beta_0,    y[p, j] = sum_i x[p-1, i, j]  (p >= 1)

    Built once from the slot, after checking its observables, by index
    arithmetic over flat (flow, position) and hop arrays:

    * ``a_cap`` — processing-capacity rows, one per (VNF, datacenter),
      m-major: the derived ``y`` of every position run there, ``-capacity``
      on the q columns, right-hand side zero.  The hop columns entering
      position p at i add 1 to the row of (vnf[p], i); a first hop
      ``x[0, i, j]`` also adds ``1 / beta_0`` to the row of (vnf[0], i).
      With instance counts fixed, keep the routing columns and move
      ``counts * capacity`` to the right-hand side.
    * ``a_eq``, ``b_eq`` — one arrival-rate row per active flow, at its chain
      entry, in ``rates.active`` order; then the balance rows (see
      ``conservation_rows``).  A flow has 1 + max(L-2, 0)*I rows.
    * ``cost`` — rent on q.  A hop column carries its transfer and delay
      price plus the entry price (ingress, beta-scaled egress, endpoint
      delay) of the position it enters; a first-hop column also carries the
      chain entry's price divided by ``beta_0``.  A one-VNF flow's entry
      column carries its entry price.
    * ``demand`` is each VNF's total arrival rate.

    ``y >= 0`` needs no row: it follows from ``x >= 0`` and positive
    rate-change ratios.  ``inst`` and ``slot`` are the instance and the slot
    it was built from.
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
        length, size = routing_columns(chains, I)  # a one-VNF flow's y block, else its x block
        single = length == 1
        off = self.num_q + np.cumsum(size) - size
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
        lead = np.flatnonzero(pos[send] == 0)  # each multi-VNF flow's first hop
        entry = send[lead]  # ... and the chain entry it leaves
        solo = first[single]  # the entry of each one-VNF flow
        hop_of = np.zeros(flow.size, dtype=np.intp)
        hop_of[send] = np.arange(send.size)
        mid = np.flatnonzero((pos > 0) & (pos + 1 < length[flow]))  # intermediate entries
        self._f_hat = f_hat = rate[flow] * bar  # arrival rate at each entry
        self._hop_rate = beta[send] * f_hat[send]
        # where unpack derives y: each first hop's outflow, each hop's inflow, each one-VNF flow's own columns
        self._lead, self._entry, self._beta0 = lead, entry, beta[entry]
        self._into, self._solo = send + 1, solo
        self._split = np.cumsum(length)[:-1], np.cumsum(length - 1)[:-1]  # where unpack cuts each flow

        dc = np.arange(I)
        # y_cols[s, i]: the s-th one-VNF flow entering datacenter i; x_cols[h, i, j]: hop h moving from i to j
        self.y_cols = y_cols = off[single][:, None] + dc
        self.x_cols = x_cols = (off[sender] + pos[send] * I * I)[:, None, None] + I * dc[:, None] + dc
        hop_in = x_cols.transpose(0, 2, 1)  # hop_in[h, j, i] = x_cols[h, i, j]: what enters entry send+1 at j
        cells = np.arange(M * I)
        self.a_cap = _csr(
            [np.repeat(vnf[send + 1, None] * I + dc, I), np.repeat(vnf[entry, None] * I + dc, I),
             (vnf[solo, None] * I + dc).ravel(), cells],
            [hop_in.ravel(), x_cols[lead].ravel(), y_cols.ravel(), cells],
            [np.ones(x_cols.size), np.repeat(1.0 / beta[entry], I * I), np.ones(y_cols.size),
             -inst.capacity.reshape(-1)],
            (M * I, n),
        )

        # arrival rates at the chain entries only; balance at each intermediate position implies the rest
        balance = active.size + np.arange(mid.size * I)
        self.a_eq = _csr(
            [np.repeat(sender[lead], I * I), np.repeat(np.flatnonzero(single), I),
             np.repeat(balance, I), np.repeat(balance, I)],
            [x_cols[lead].ravel(), y_cols.ravel(), hop_in[hop_of[mid - 1]].ravel(), x_cols[hop_of[mid]].ravel()],
            [np.repeat(1.0 / beta[entry], I * I), np.ones(y_cols.size), np.repeat(beta[mid], I * I),
             -np.ones(mid.size * I * I)],
            (active.size + balance.size, n),
        )
        self.b_eq = np.concatenate([rate, np.zeros(balance.size)])

        # delay per unit of traffic, each leg's delay weight divided by the
        # flow's rate on it: the source leg at each chain entry, the
        # destination leg at each chain end, and every hop
        delays, nodes = inst.delay.values, inst.dc_nodes
        weight = slot.delay_weights[active]
        source = np.array([inst.flows[k].source for k in rates.active], dtype=np.intp)
        destination = np.array([inst.flows[k].destination for k in rates.active], dtype=np.intp)
        endpoint = np.zeros((flow.size, I))
        endpoint[first] += weight[:, None] * delays[source[:, None], nodes] / rate[:, None]
        endpoint[last] += weight[:, None] * delays[nodes, destination[:, None]] / (bar[last] * rate)[:, None]
        enter = inst.ingress_cost + inst.egress_cost * beta[:, None] + endpoint  # price of entering each entry
        hop = weight[sender, None, None] * inst.dc_delays() / (beta[send] * bar[send] * rate[sender])[:, None, None]
        # traffic staying inside one datacenter on a hop moves for free
        hop[:, dc, dc] -= inst.ingress_cost + inst.egress_cost
        hop += enter[send + 1, None, :]
        hop[lead] += (enter[entry] / beta[entry, None])[:, :, None]
        self.cost = np.zeros(n)
        self.cost[: self.num_q] = slot.run_costs.reshape(-1)
        self.cost[y_cols] = enter[solo]
        self.cost[x_cols] = hop

    # --- rows and prices (built once, in __init__) -----------------------------
    def capacity_rows(self):
        """Processing-capacity rows and their zero right-hand side; see ``a_cap``."""
        return self.a_cap, np.zeros(self.num_q)

    def demand_rows(self):
        """Arrival-rate rows: traffic entering each chain's first VNF sums to the flow's rate.

        One row per active flow, in ``rates.active`` order: the first rows of
        ``a_eq``.  On hop columns the row reads ``sum x[0] / beta_0 = rate``.
        Balance with positive rate-change ratios implies the rate at every
        later position.
        """
        n = len(self.rates.active)
        return self.a_eq[:n], self.b_eq[:n]

    def conservation_rows(self):
        """Flow balance at every intermediate position: the rows of ``a_eq`` after the demand rows.

        Row (flow, pos, i), for 0 < pos < L-1 and in that order, reads
        ``beta_pos * sum_k x[pos-1, k, i] - sum_j x[pos, i, j] = 0``: the
        traffic entering position pos at datacenter i, scaled by its
        rate-change ratio, leaves on the next hop.
        """
        n = len(self.rates.active)
        return self.a_eq[n:], self.b_eq[n:]

    def count_caps(self, prev_q: np.ndarray):
        """Upper bounds on the counts whose rent is zero: (q columns, caps).

        ORFA's per-slot subproblem needs them: with zero rent and zero deploy
        cost nothing else bounds such a count.  Each cap is one instance
        beyond the larger of the previous count ``prev_q`` and what the
        slot's whole demand needs, so the cap never forces a count below
        either.  The horizon LP sets none.
        """
        free = np.flatnonzero(self.cost[: self.num_q] <= 0.0)
        caps = np.maximum(np.asarray(prev_q, dtype=float), self.demand[:, None] / self.inst.capacity) + 1.0
        return free, caps.reshape(-1)[free]

    def routing_cost(self) -> np.ndarray:
        """Transfer plus delay cost per unit of each routing variable (zeros on q).

        Each column pays for the traffic it moves on its hop and for the
        traffic it delivers into a position (ingress plus scaled egress plus
        endpoint delay); a hop staying inside one datacenter is refunded its
        transfer charge.
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
    def unpack(self, v: np.ndarray) -> SlotPlan:
        """The slot's plan held in solution vector ``v``, with ``y`` derived from ``x``."""
        x = v[self.x_cols]
        y = np.empty((self._f_hat.size, self.inst.num_datacenters))
        y[self._entry] = x[self._lead].sum(axis=2) / self._beta0[:, None]
        y[self._into] = x.sum(axis=1)
        y[self._solo] = v[self.y_cols]
        q = v[: self.num_q].reshape(self.inst.num_vnfs, self.inst.num_datacenters).copy()
        return SlotPlan(self.slot.t, q, dict(zip(self.rates.active, np.split(y, self._split[0]))),
                        dict(zip(self.rates.active, np.split(x, self._split[1]))))

    def spread_evenly(self):
        """A strictly positive routing assignment spreading every flow evenly.

        Every hop moves ``1 / I^2`` of its traffic between each datacenter
        pair, and a one-VNF flow enters each datacenter with ``1 / I`` of its
        rate.  That meets the arrival and balance rows exactly and gives an
        interior starting point once paired with generous instance counts.
        """
        I = self.inst.num_datacenters
        v = np.zeros(self.n_vars)
        v[self.y_cols] = (self._f_hat[self._solo] / I)[:, None]
        v[self.x_cols] = (self._hop_rate / (I * I))[:, None, None]
        return v
