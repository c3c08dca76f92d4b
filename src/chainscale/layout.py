"""One slot's program: its variables, its rows and its prices.

A layout is built once per slot and is that slot's handle: every per-slot
step (the regularized subproblem, each rounding policy, the redirection LP)
takes the layout and reads the instance and the slot from it.  Building it
rejects a slot whose observables are malformed (wrong shapes, non-finite or
negative values).  It owns everything the slot's programs price: the
capacity rows ``a_cap``, the equality rows ``a_eq``/``b_eq`` (arrival rates,
then flow balance) and the cost vector ``cost`` (rent, transfer and
linearized delay).  Four consumers read them: the per-slot regularized
subproblem (every column), the flow-redirection LP (the routing columns that
the rounded counts let carry traffic, with counts times capacity as the
capacity right-hand side), the offline horizon-wide LP (every slot's blocks
stacked with coupling rows, solved over a working set of its routing
columns) and the dual certificate's reduced costs.  The same vector prices every plan of the
slot: ``price`` packs the plan into the layout's columns and splits its cost
into rent, deployment, transfer and delay.

Rows and index maps are built once per active-flow pattern, not once per
slot.  Everything that depends only on the instance and on which flows are
active (the column map, ``a_cap``, ``a_eq`` and the index arrays that price,
unpack and spread a slot) lives in a private ``_SlotPattern``.  The first
layout with a given active-flow tuple builds it and keeps it in the
instance's pattern store, and every later slot of that instance with the
same active flows shares it, read-only.  A layout then computes only its
slot's numbers: the rates, the right-hand side ``b_eq``, the demand and the
cost vector.  The online loop's active flows change rarely (3 distinct sets
over mid's 12 slots, 13 over the 200 paper-scale slots of seed 0), so most
slots pay only for their numbers.

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
from .rates import CostBreakdown, slot_rates, vnf_demand

__all__ = ["SlotLayout", "SlotPlan", "routing_columns"]


@dataclass(frozen=True)
class SlotPlan:
    """One slot's decisions: instance counts and routing.

    ``q`` is fractional from ORFA or the horizon LP and integer once rounded.
    New deployments are not stored: ``SlotLayout.price`` charges them from
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


class _SlotPattern:
    """The part of a slot's layout that the instance and the slot's active flows fix.

    Slots whose active flows (``rates.active``) are the same share one
    pattern: ``of`` builds it the first time such a slot arrives and keeps it
    in the instance's pattern store.  It holds the column map (``n_vars``,
    ``x_cols``, ``y_cols``); the rows ``a_cap`` and ``a_eq``, whose entries are
    rate-change ratios, ones and capacities, so no slot's numbers enter them;
    the flat (flow, position) and hop index arrays the layout prices,
    unpacks and spreads with; the instance's prices per chain entry,
    endpoint leg and datacenter pair; and the transfer share of each routing
    column's price, which no slot's numbers enter.  Every array is read-only.
    """

    @classmethod
    def of(cls, inst: ProblemInstance, rates) -> _SlotPattern:
        """The pattern of the slot with rate profile ``rates``, built and stored on first use."""
        store = inst._slot_patterns
        pattern = store.get(rates.active)
        if pattern is None:
            pattern = store[rates.active] = cls(inst, rates)
        return pattern

    def __init__(self, inst: ProblemInstance, rates):
        I, M = inst.num_datacenters, inst.num_vnfs
        self.num_q = num_q = M * I
        self.active = active = np.array(rates.active, dtype=np.intp)
        chains = [inst.chain_of(k) for k in rates.active]
        length, size = routing_columns(chains, I)  # a one-VNF flow's y block, else its x block
        single = length == 1
        off = num_q + np.cumsum(size) - size
        self.n_vars = n = num_q + int(size.sum())
        self.starts = off - num_q  # each flow's first routing column

        # one entry per (active flow, position), flows in rates.active order
        self.flow = flow = np.repeat(np.arange(active.size), length)  # flow of each entry, 0..F-1
        self.first = first = np.cumsum(length) - length  # each flow's first entry
        self.last = last = first + length - 1
        pos = np.arange(flow.size) - first[flow]
        vnf = np.array([m for c in chains for m in c.vnfs], dtype=np.intp)
        beta = np.array([b for c in chains for b in c.beta])
        self.bar = bar = np.array([b for k in rates.active for b in rates.beta_bar[k]])
        self.bar_last = bar[last]
        # one hop per entry that is not its flow's last, sent from entry ``send`` to ``send + 1``
        self.send = send = np.flatnonzero(pos + 1 < length[flow])
        self.sender = sender = flow[send]
        self.hop_beta, self.hop_scale = beta[send], beta[send] * bar[send]
        self.lead = lead = np.flatnonzero(pos[send] == 0)  # each multi-VNF flow's first hop
        self.entry = entry = send[lead]  # ... and the chain entry it leaves
        self.solo = solo = first[single]  # the entry of each one-VNF flow
        hop_of = np.zeros(flow.size, dtype=np.intp)
        hop_of[send] = np.arange(send.size)
        mid = np.flatnonzero((pos > 0) & (pos + 1 < length[flow]))  # intermediate entries
        # where unpack derives y: each first hop's outflow, each hop's inflow, each one-VNF flow's own columns
        self.beta0, self.into = beta[entry], send + 1
        self.split = np.cumsum(length)[:-1], np.cumsum(length - 1)[:-1]  # where unpack cuts each flow

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
        self.n_balance = balance.size
        self.a_eq = _csr(
            [np.repeat(sender[lead], I * I), np.repeat(np.flatnonzero(single), I),
             np.repeat(balance, I), np.repeat(balance, I)],
            [x_cols[lead].ravel(), y_cols.ravel(), hop_in[hop_of[mid - 1]].ravel(), x_cols[hop_of[mid]].ravel()],
            [np.repeat(1.0 / beta[entry], I * I), np.ones(y_cols.size), np.repeat(beta[mid], I * I),
             -np.ones(mid.size * I * I)],
            (active.size + balance.size, n),
        )

        # the instance's prices: each flow's source and destination legs, the
        # price of entering each entry before its delay, and the hop delays
        delays, nodes = inst.delay.values, inst.dc_nodes
        source = np.array([inst.flows[k].source for k in rates.active], dtype=np.intp)
        destination = np.array([inst.flows[k].destination for k in rates.active], dtype=np.intp)
        self.source_delay = delays[source[:, None], nodes]
        self.destination_delay = delays[nodes, destination[:, None]]
        self.base_enter = inst.ingress_cost + inst.egress_cost * beta[:, None]
        self.dc_delays = inst.dc_delays()
        self.stay = inst.ingress_cost + inst.egress_cost  # refunded to traffic staying in one datacenter
        # the transfer share of each routing column's price: the entry prices without their delay
        self.transfer = self.routing_prices(self.base_enter, np.zeros(x_cols.shape))

        for value in vars(self).values():
            _read_only(value)

    def routing_prices(self, enter: np.ndarray, hop: np.ndarray) -> np.ndarray:
        """Each routing column's price, from each entry's price ``enter`` and each hop's own price ``hop``.

        ``hop`` is overwritten.  A hop column pays its own price less the
        refund ``stay`` on a hop staying in one datacenter, plus the price of
        entering the position it reaches; a first hop also pays the chain
        entry's price over ``beta_0``, and a one-VNF flow's column its entry's.
        """
        dc = np.arange(hop.shape[1])
        hop[:, dc, dc] -= self.stay
        hop += enter[self.into, None, :]
        hop[self.lead] += (enter[self.entry] / self.beta0[:, None])[:, :, None]
        price = np.zeros(self.n_vars - self.num_q)
        price[self.y_cols - self.num_q] = enter[self.solo]
        price[self.x_cols - self.num_q] = hop
        return price


def _read_only(value) -> None:
    """Make ``value``'s arrays read-only: an array, a sparse matrix's three arrays, or each item of a tuple."""
    if isinstance(value, tuple):
        for item in value:
            _read_only(item)
    elif sp.issparse(value):
        _read_only((value.data, value.indices, value.indptr))
    elif isinstance(value, np.ndarray):
        value.setflags(write=False)


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

    Built from the slot, after checking its observables.  The column map,
    the rows and the index maps depend only on the instance and on which
    flows are active, so they are built by index arithmetic over flat
    (flow, position) and hop arrays once per active-flow pattern and shared,
    read-only, by every slot of the instance with that pattern:

    * ``a_cap`` — processing-capacity rows, one per (VNF, datacenter),
      m-major: the derived ``y`` of every position run there, ``-capacity``
      on the q columns, right-hand side zero.  The hop columns entering
      position p at i add 1 to the row of (vnf[p], i); a first hop
      ``x[0, i, j]`` also adds ``1 / beta_0`` to the row of (vnf[0], i).
      Each row's count entry comes first in its CSR row.  Every routing
      entry is positive, so with the counts fixed a row with count 0 forces
      the routing columns it touches to 0: the redirection LP drops them.
    * ``a_eq`` — one arrival-rate row per active flow, at its chain entry,
      in ``rates.active`` order; then the balance rows (see
      ``conservation_rows``).  A flow has 1 + max(L-2, 0)*I rows.

    Each layout computes its own slot's numbers:

    * ``b_eq`` — the active flows' rates, then zeros for the balance rows.
    * ``cost`` — rent on q.  A hop column carries its transfer and delay
      price plus the entry price (ingress, beta-scaled egress, endpoint
      delay) of the position it enters; a first-hop column also carries the
      chain entry's price divided by ``beta_0``.  A one-VNF flow's entry
      column carries its entry price.
    * ``transfer`` — the transfer share of each routing column's price
      (ingress, beta-scaled egress, less the refund of a hop staying in one
      datacenter), over the routing columns only.  It is shared by every
      slot of the pattern; the rest of a routing column's price is delay.
    * ``demand`` is each VNF's total arrival rate.

    ``y >= 0`` needs no row: it follows from ``x >= 0`` and positive
    rate-change ratios.  ``inst`` and ``slot`` are the instance and the slot
    it was built from.
    """

    def __init__(self, inst: ProblemInstance, slot: SlotInput):
        if slot.rates.shape != (inst.num_flows,):
            raise ValueError("slot rates shape does not match flow count")
        if slot.delay_weights.shape != (inst.num_flows,):
            raise ValueError("slot delay weights shape does not match flow count")
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
        self._pattern = pat = _SlotPattern.of(inst, rates)
        self.num_q, self.n_vars = pat.num_q, pat.n_vars
        self.x_cols, self.y_cols = pat.x_cols, pat.y_cols
        self.a_cap, self.a_eq = pat.a_cap, pat.a_eq
        self.transfer = pat.transfer
        self.demand = vnf_demand(inst, rates)
        rate = slot.rates[pat.active]
        self._f_hat = f_hat = rate[pat.flow] * pat.bar  # arrival rate at each entry
        self._hop_rate = pat.hop_beta * f_hat[pat.send]
        self.b_eq = np.concatenate([rate, np.zeros(pat.n_balance)])

        # delay per unit of traffic, each leg's delay weight divided by the
        # flow's rate on it: the source leg at each chain entry, the
        # destination leg at each chain end, and every hop
        weight = slot.delay_weights[pat.active]
        endpoint = np.zeros((pat.flow.size, inst.num_datacenters))
        endpoint[pat.first] += weight[:, None] * pat.source_delay / rate[:, None]
        endpoint[pat.last] += weight[:, None] * pat.destination_delay / (pat.bar_last * rate)[:, None]
        enter = pat.base_enter + endpoint  # price of entering each entry
        hop = weight[pat.sender, None, None] * pat.dc_delays / (pat.hop_scale * rate[pat.sender])[:, None, None]
        self.cost = np.concatenate([slot.run_costs.reshape(-1), pat.routing_prices(enter, hop)])

    # --- rows and prices (built in __init__) -----------------------------------
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
        pat = self._pattern
        x = v[self.x_cols]
        y = np.empty((self._f_hat.size, self.inst.num_datacenters))
        y[pat.entry] = x[pat.lead].sum(axis=2) / pat.beta0[:, None]
        y[pat.into] = x.sum(axis=1)
        y[pat.solo] = v[self.y_cols]
        q = v[: self.num_q].reshape(self.inst.num_vnfs, self.inst.num_datacenters).copy()
        return SlotPlan(self.slot.t, q, dict(zip(self.rates.active, np.split(y, pat.split[0]))),
                        dict(zip(self.rates.active, np.split(x, pat.split[1]))))

    def pack(self, plan) -> np.ndarray:
        """``plan`` as one vector in the layout's variable order: the inverse of ``unpack``.

        Reads the counts ``q``, each longer flow's hop traffic ``x`` and each
        one-VNF flow's entry traffic ``y[0]``; a longer flow's ``y`` is derived
        from its ``x`` and is not read.  ``plan`` needs only those attributes.
        """
        I, pat = self.inst.num_datacenters, self._pattern
        active = self.rates.active
        v = np.zeros(self.n_vars)
        v[: self.num_q] = np.asarray(plan.q, dtype=float).reshape(-1)
        if active:
            v[self.x_cols] = np.concatenate([np.reshape(plan.x[k], (-1, I, I)) for k in active])
            v[self.y_cols] = np.reshape([plan.y[active[f]][0] for f in pat.flow[pat.solo]], (-1, I))
        return v

    def price(self, plan, prev_q) -> CostBreakdown:
        """The slot's cost of ``plan``, split into rent, deployment, transfer and delay.

        ``plan`` holds fractional or integer counts.  Deployments are charged
        on the positive part of the count increase over ``prev_q``.  Transfer
        and delay are the plan's routing columns priced by ``transfer`` and
        by the rest of ``cost``, so every plan pays what the slot's programs
        optimize.  Negative counts or traffic raise ``ValueError``.
        """
        q = np.asarray(plan.q, dtype=float)
        if np.any(q < -1e-12):
            raise ValueError("plan has negative instance counts")
        route = self.pack(plan)[self.num_q :]
        low = np.flatnonzero(route < -1e-12)
        if low.size:
            flow = self.rates.active[np.searchsorted(self._pattern.starts, low[0], side="right") - 1]
            raise ValueError(f"plan routes negative traffic for flow {flow}")
        run = float(np.sum(self.slot.run_costs * q))
        deploy = float(np.sum(self.inst.deploy_cost * np.maximum(0.0, q - np.asarray(prev_q, dtype=float))))
        transfer = float(self.transfer @ route)
        return CostBreakdown(run, deploy, transfer, float((self.cost[self.num_q :] - self.transfer) @ route))

    def spread_evenly(self):
        """A strictly positive routing assignment spreading every flow evenly.

        Every hop moves ``1 / I^2`` of its traffic between each datacenter
        pair, and a one-VNF flow enters each datacenter with ``1 / I`` of its
        rate.  That meets the arrival and balance rows exactly and gives an
        interior starting point once paired with generous instance counts.
        """
        I = self.inst.num_datacenters
        v = np.zeros(self.n_vars)
        v[self.y_cols] = (self._f_hat[self._pattern.solo] / I)[:, None]
        v[self.x_cols] = (self._hop_rate / (I * I))[:, None, None]
        return v
