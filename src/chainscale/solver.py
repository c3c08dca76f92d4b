"""Generic solver layer: linear programs and entropy-regularized programs.

Two problem classes are handled behind one result type:

* plain LPs, delegated to HiGHS via scipy, with duals mapped to a fixed
  sign convention and KKT residuals recomputed independently; an infeasible
  or unbounded LP gets a plain status and no solution.  An LP result
  converts its multipliers and computes its dual bound and KKT residuals on
  first read, against the bounds its own solve had, so a caller that reads
  only the primal point pays for none of them.  ``solve_lp`` goes through
  ``linprog`` with presolve off.
  ``LpModel`` hands the program to one HiGHS instance as arrays and runs the
  dual simplex without presolve, either once or again after column bound
  changes, from the last basis, as in branch-and-bound;
* convex programs whose objective is linear plus weighted shifted
  relative-entropy terms (``solve_entropy``), solved by a primal-dual
  path-following interior-point method written here, since the per-slot
  deployment subproblem needs accurate dual multipliers and bit-reproducible
  output.  The caller supplies a strictly interior start point; the solve is
  ``OPTIMAL`` only once its own KKT test passes.  Each Newton step factors
  the constraint system once, in block-arrow form: one dense block per group
  of equality rows that share columns (one per flow in a slot), joined only
  through the inequality rows.  The blocks of one row count are factored
  together, as one stack, so a step makes one factorization call per block
  size and one for the border.  The step's predictor and corrector both
  solve with that one factorization.  The blocks, their size groups and the
  place of every product term are found once per distinct constraint
  matrix: the last call's analysis is kept and reused while the rows
  repeat, as they do from slot to slot while the same flows are active.

Sign convention for duals, used everywhere downstream: with the Lagrangian
``c'v + y'(A_eq v - b_eq) + lam'(A_ub v - b_ub) - z_lo'(v - lb) + z_hi'(v - ub)``
stationarity reads ``grad f + A_eq'y + A_ub'lam - z_lo + z_hi = 0`` and
``lam, z_lo, z_hi >= 0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dtrtri
from scipy.optimize import linprog
from scipy.optimize._highspy import _core as _highs  # private module: pyproject pins the scipy floor
from scipy.sparse.csgraph import connected_components

__all__ = [
    "LinearProgram",
    "EntropyRegularizedProgram",
    "SolveResult",
    "LpModel",
    "OPTIMAL",
    "INFEASIBLE",
    "UNBOUNDED",
    "ITERATION_LIMIT",
    "solve_lp",
    "solve_entropy",
    "entropy_value",
    "entropy_gradient",
]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration-limit"

DEFAULT_TOL = 1e-7
#: Newton steps per ``solve_entropy`` call
MAX_NEWTON = 200


@dataclass
class LinearProgram:
    """min c'v  s.t.  a_eq v = b_eq,  a_ub v <= b_ub,  lb <= v <= ub.

    Matrices may be given dense or scipy sparse, and a missing constraint
    block as None; ``lb`` defaults to zero and ``ub`` to +inf.  Each block is
    stored as CSR, with 0 rows and an empty right-hand side when absent.
    """

    c: np.ndarray
    a_eq: object = None
    b_eq: np.ndarray = None
    a_ub: object = None
    b_ub: np.ndarray = None
    lb: np.ndarray = None
    ub: np.ndarray = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        n = self.c.size
        self.lb = np.zeros(n) if self.lb is None else np.asarray(self.lb, dtype=float)
        self.ub = np.full(n, np.inf) if self.ub is None else np.asarray(self.ub, dtype=float)
        self.a_eq, self.b_eq = _rows(self.a_eq, self.b_eq, n)
        self.a_ub, self.b_ub = _rows(self.a_ub, self.b_ub, n)

    @property
    def n(self) -> int:
        return self.c.size

    def eq_matrix(self) -> sp.csr_matrix:
        return self.a_eq

    def ub_matrix(self) -> sp.csr_matrix:
        return self.a_ub


def _rows(a, b, n: int):
    """One constraint block as (CSR matrix, right-hand side); no rows when ``a`` is None."""
    if a is None:
        return sp.csr_matrix((0, n)), np.zeros(0)
    return sp.csr_matrix(a), np.asarray(b, dtype=float)


@dataclass
class EntropyRegularizedProgram:
    """A linear program plus per-variable shifted relative-entropy terms.

    Variable j adds ``weight[j] * ((v_j + shift[j]) * ln((v_j + shift[j]) /
    (reference[j] + shift[j])) + reference[j] - v_j)`` to the objective.  A
    strictly positive shift keeps the term defined at v_j = 0 even when the
    reference is 0.  ``weight`` may be zero for variables with no such term.
    """

    lp: LinearProgram
    weight: np.ndarray
    reference: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        n = self.lp.n
        self.weight = np.asarray(self.weight, dtype=float)
        self.reference = np.asarray(self.reference, dtype=float)
        self.shift = np.asarray(self.shift, dtype=float)
        for name, arr in (("weight", self.weight), ("reference", self.reference), ("shift", self.shift)):
            if arr.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},)")
        if np.any(self.weight < 0):
            raise ValueError("entropy weights must be nonnegative")
        active = self.weight > 0
        if np.any(self.shift[active] <= 0):
            raise ValueError("entropy shifts must be positive where weights are positive")
        if np.any(self.reference[active] < 0):
            raise ValueError("entropy references must be nonnegative")


@dataclass
class SolveResult:
    """Primal-dual solution with solver-independent KKT diagnostics.

    ``eq_duals`` and ``ub_duals`` come from ``duals``, and ``dual_objective``
    and ``kkt`` from ``diagnose``: each is a function of no arguments
    returning the pair, called on the first read of either of its two
    values.  With no ``duals`` the multipliers are None; with no
    ``diagnose`` the diagnostics are NaN and empty.  An optimal LP result
    keeps HiGHS's solution as its solve left it and converts the
    multipliers only when they are read, and its ``diagnose`` holds a copy
    of the bounds its solve had, so no value depends on when it is read,
    even after its ``LpModel`` has moved its bounds and solved again.
    ``solve_entropy`` computes all four before it returns.
    """

    status: str
    x: np.ndarray = None
    objective: float = np.nan
    iterations: int = 0
    duals: object = field(default=None, repr=False, compare=False)
    diagnose: object = field(default=None, repr=False, compare=False)

    @cached_property
    def _duals(self) -> tuple:
        return (None, None) if self.duals is None else self.duals()

    @property
    def eq_duals(self) -> np.ndarray:
        return self._duals[0]

    @property
    def ub_duals(self) -> np.ndarray:
        return self._duals[1]

    @cached_property
    def _diagnosis(self) -> tuple:
        return (np.nan, {}) if self.diagnose is None else self.diagnose()

    @property
    def dual_objective(self) -> float:
        return self._diagnosis[0]

    @property
    def kkt(self) -> dict:
        return self._diagnosis[1]


def entropy_value(prog: EntropyRegularizedProgram, v: np.ndarray) -> float:
    """Objective value of the entropy-regularized program at v."""
    w, r, s = prog.weight, prog.reference, prog.shift
    val = float(prog.lp.c @ v)
    act = w > 0
    if np.any(act):
        va, ra, sa = v[act] + s[act], r[act] + s[act], s[act]
        val += float(np.sum(w[act] * (va * np.log(va / ra) + r[act] - v[act])))
    return val


def entropy_gradient(prog: EntropyRegularizedProgram, v: np.ndarray) -> np.ndarray:
    """Gradient of the entropy-regularized objective at v."""
    g = prog.lp.c.copy()
    act = prog.weight > 0
    if np.any(act):
        g[act] += prog.weight[act] * np.log((v[act] + prog.shift[act]) / (prog.reference[act] + prog.shift[act]))
    return g


def _reduced_costs(lp: LinearProgram, grad, y, lam) -> np.ndarray:
    """``grad + A_eq'y + A_ub'lam``: the Lagrangian's gradient before the bound multipliers."""
    return grad + lp.a_eq.T @ y + lp.a_ub.T @ lam


def _dual_bound(lp: LinearProgram, weight, reference, shift, y, lam, ct=None) -> float:
    """Lagrangian dual value at (y, lam>=0): a true lower bound on the optimum.

    Minimizes the Lagrangian coordinate-wise over the box [lb, ub]; entropy
    coordinates have a closed-form minimizer.  Returns -inf when some linear
    coordinate makes the Lagrangian unbounded below.  ``ct`` may pass in the
    reduced costs ``c + A_eq'y + A_ub'lam`` already computed; they are
    recomputed with ``lam`` clipped at 0 when some entry of ``lam`` is negative.
    """
    if ct is None or np.any(lam < 0):
        ct = _reduced_costs(lp, lp.c, y, np.maximum(lam, 0.0))
    lam = np.maximum(lam, 0.0)
    if weight is None:  # a plain LP: every coordinate is linear
        weight = reference = shift = np.zeros(lp.n)
    lo, hi = lp.lb, lp.ub
    ent = weight > 0
    up = ~ent & (ct > 1e-11)  # linear coordinates that sit at their lower bound
    down = ~ent & (ct < -1e-11)  # ... and at their upper bound
    if not (np.all(np.isfinite(lo[up])) and np.all(np.isfinite(hi[down]))):
        return -np.inf
    terms = np.zeros(lp.n)
    terms[up] = ct[up] * lo[up]
    terms[down] = ct[down] * hi[down]
    w, r, s, c = weight[ent], reference[ent], shift[ent], ct[ent]
    vstar = np.minimum(np.maximum((r + s) * np.exp(-c / w) - s, lo[ent]), hi[ent])
    vs = vstar + s
    terms[ent] = c * vstar + w * (vs * np.log(vs / (r + s)) + r - vstar)
    return float(np.sum(terms)) - float(y @ lp.b_eq) - float(lam @ lp.b_ub)


def _kkt_residuals(lp: LinearProgram, ct, x, lam, z_lo, z_hi=None) -> dict:
    """Stationarity, feasibility and complementarity, given the reduced costs ``ct`` (``_reduced_costs``)."""
    stat = ct - z_lo
    if z_hi is not None:
        stat += z_hi
    slack = lp.b_ub - lp.a_ub @ x
    lo_gap = x - lp.lb
    finite_lo, finite_hi = np.isfinite(lp.lb), np.isfinite(lp.ub)
    feas = max(
        float(np.max(np.abs(lp.a_eq @ x - lp.b_eq), initial=0.0)),
        float(np.max(-slack, initial=0.0)),
        float(np.max(-lo_gap[finite_lo], initial=0.0)),
        float(np.max((x - lp.ub)[finite_hi], initial=0.0)),
    )
    comp = max(
        float(np.max(np.abs(lam * slack), initial=0.0)),
        float(np.max(np.abs(z_lo[finite_lo] * lo_gap[finite_lo]), initial=0.0)),
    )
    return {"stationarity": float(np.max(np.abs(stat), initial=0.0)), "feasibility": feas, "complementarity": comp}


def solve_lp(lp: LinearProgram) -> SolveResult:
    """Solve an LP with HiGHS, with primal and dual values.

    An infeasible or unbounded LP gets a plain ``INFEASIBLE`` or
    ``UNBOUNDED`` status and no solution.  Presolve is off, as in
    ``LpModel``: on the horizon relaxation it costs more than it saves.  CPU
    medians on a 2-core host with one BLAS thread, presolve on and off: the
    mid relaxation (21,960 columns) 86 and 57 ms, the desk one (2,368
    columns) 15 and 13 ms, a 347,440-column one 2.5 and 1.6 s, with peak
    RSS 470-490 and 370 MB.  The simplex takes about 1 % more iterations,
    and the objectives of all three agree bit for bit.
    """
    res = linprog(
        lp.c,
        A_ub=lp.a_ub,
        b_ub=lp.b_ub,
        A_eq=lp.a_eq,
        b_eq=lp.b_eq,
        bounds=np.column_stack([lp.lb, lp.ub]),
        method="highs",
        options={"presolve": False},
    )
    if res.status == 2:
        return SolveResult(status=INFEASIBLE)
    if res.status == 3:
        return SolveResult(status=UNBOUNDED)
    if res.status != 0:
        return SolveResult(status=ITERATION_LIMIT, x=res.x, objective=res.fun if res.x is not None else np.nan)
    # linprog stacks the rows as (a_ub, a_eq) and splits HiGHS's column duals by bound
    solution = SimpleNamespace(row_dual=np.concatenate([res.ineqlin.marginals, res.eqlin.marginals]),
                               col_dual=res.lower.marginals + res.upper.marginals)
    return _lp_solution(lp, res.x, res.fun, solution, res.nit)


def _lp_solution(lp: LinearProgram, x, objective, solution, iterations) -> SolveResult:
    """An optimal HiGHS solution in this module's sign convention.

    ``solution.row_dual`` and ``solution.col_dual`` are HiGHS's duals of the
    rows stacked as ``(a_ub, a_eq)`` and of the columns, read on the first
    read of a multiplier or a diagnostic: ``y = -row_dual[m_ub:]``, ``lam =
    -row_dual[:m_ub]``, and ``z_lo`` and ``z_hi`` are the positive and
    negative parts of ``col_dual``.  The dual bound and KKT residuals are
    left to the first read, against a copy of ``lp``'s bounds taken now.
    """
    m_ub = lp.a_ub.shape[0]
    x = np.asarray(x, dtype=float)
    lb, ub = lp.lb.copy(), lp.ub.copy()

    @cache
    def duals():
        row_dual = np.asarray(solution.row_dual, dtype=float)
        return -row_dual[m_ub:], -row_dual[:m_ub]

    def diagnose():
        solved = replace(lp, lb=lb, ub=ub)
        y, lam = duals()
        z = np.asarray(solution.col_dual, dtype=float)
        z_lo, z_hi = np.maximum(z, 0.0), np.maximum(-z, 0.0)
        ct = _reduced_costs(solved, solved.c, y, lam)
        return _dual_bound(solved, None, None, None, y, lam, ct), _kkt_residuals(solved, ct, x, lam, z_lo, z_hi)

    return SolveResult(status=OPTIMAL, x=x, objective=float(objective), iterations=int(iterations), duals=duals,
                       diagnose=diagnose)


class LpModel:
    """One LP held in a HiGHS instance, solved once or re-solved warm after column bound changes.

    The model is handed to HiGHS once, as arrays: the rows stacked as
    ``(a_ub, a_eq)`` in row-wise CSR form.  HiGHS runs the dual simplex with
    presolve off and no output.  A one-shot solve calls ``solve()`` with no
    arguments.  A re-solve changes the bounds of the given columns and re-runs
    HiGHS, which starts the dual simplex from the basis of the previous solve:
    after a bound change that basis stays dual feasible, so a branch-and-bound
    node takes a few pivots instead of a cold solve (Land & Doig 1960).
    Columns not named keep the bounds they had, so a caller that moves a set
    of columns passes all of them every time.  ``lp`` holds the current
    bounds, updated in place, and the result, its duals, dual bound and KKT
    residuals follow the same conventions as ``solve_lp`` on that program.
    The multipliers are converted from HiGHS's solution, and the dual bound
    and KKT residuals computed against a copy of the bounds taken at the
    solve, on first read, so a later solve does not change them.
    ``take_basis`` starts the next solve from another model's last basis.
    A program with no columns is ``OPTIMAL`` at the empty point when
    its rows hold at 0, and ``INFEASIBLE`` otherwise.  Deterministic: the
    same sequence of solves gives identical results.  Two models can solve
    at once in two threads, since HiGHS releases the GIL while it runs; one
    model must not be used by two threads at once.
    """

    def __init__(self, lp: LinearProgram):
        self.lp = replace(lp, lb=lp.lb.copy(), ub=lp.ub.copy())
        a = sp.vstack([lp.a_ub, lp.a_eq], format="csr")
        self._highs = _highs._Highs()
        for option, value in (("output_flag", False), ("presolve", "off"),
                              ("simplex_strategy", int(_highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual))):
            self._highs.setOptionValue(option, value)
        status = self._highs.passModel(
            lp.n, a.shape[0], a.nnz, int(_highs.MatrixFormat.kRowwise), int(_highs.ObjSense.kMinimize), 0.0,
            lp.c, self.lp.lb, self.lp.ub,
            np.concatenate([np.full(lp.b_ub.size, -np.inf), lp.b_eq]), np.concatenate([lp.b_ub, lp.b_eq]),
            a.indptr[:-1].astype(np.int32), a.indices.astype(np.int32), a.data, np.zeros(lp.n, np.int32),
        )
        if status == _highs.HighsStatus.kError:
            raise ValueError("HiGHS rejected the LP")

    def take_basis(self, other: LpModel) -> None:
        """Start the next solve from ``other``'s last basis; both models must hold the same rows and columns."""
        if self._highs.setBasis(other._highs.getBasis()) == _highs.HighsStatus.kError:
            raise ValueError("HiGHS rejected the basis")

    def solve(self, cols=None, lower=None, upper=None) -> SolveResult:
        """Set ``lb[cols] = lower`` and ``ub[cols] = upper`` if ``cols`` is given; solve from the last basis."""
        if cols is not None:
            cols = np.asarray(cols, dtype=np.int32)
            lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
            if self._highs.changeColsBounds(cols.size, cols, lower, upper) == _highs.HighsStatus.kError:
                raise ValueError("column index out of range")
            self.lp.lb[cols], self.lp.ub[cols] = lower, upper
        self._highs.run()
        status = self._highs.getModelStatus()
        if status == _highs.HighsModelStatus.kModelEmpty:  # no columns: the rows alone decide
            lp = self.lp
            if np.any(lp.b_eq != 0) or np.any(lp.b_ub < 0):
                return SolveResult(status=INFEASIBLE)
            m = lp.b_ub.size + lp.b_eq.size
            return _lp_solution(lp, np.zeros(0), 0.0, SimpleNamespace(row_dual=np.zeros(m), col_dual=np.zeros(0)), 0)
        if status == _highs.HighsModelStatus.kInfeasible:
            return SolveResult(status=INFEASIBLE)
        if status == _highs.HighsModelStatus.kUnbounded:
            return SolveResult(status=UNBOUNDED)
        if status != _highs.HighsModelStatus.kOptimal:
            return SolveResult(status=ITERATION_LIMIT)
        sol, info = self._highs.getSolution(), self._highs.getInfo()  # a copy: the next run leaves it as it is
        return _lp_solution(self.lp, sol.col_value, info.objective_function_value, sol, info.simplex_iteration_count)


class _ArrowSystem:
    """The Newton system ``A diag(d) A'`` of one constraint matrix, in block-arrow form.

    The equality rows (the first ``m_eq`` rows of ``a``) split into blocks, the
    connected components of the graph in which two rows meet when they share
    a column; for a slot layout that is one block per active flow, its
    arrival-rate row and its balance rows.  The remaining rows form the
    border (capacity rows and count caps, each with its slack column).  Blocks
    meet only through the border, so the system matrix is block-arrow::

        [ S_1          C_1 ]
        [      ...     ... ]
        [          S_K C_K ]
        [ C_1' ... C_K' S_b ]

    The blocks are grouped by row count (a generated slot, with chains of 2
    to 5 VNFs over I datacenters, has at most four sizes: 1, 1 + I, 1 + 2I
    and 1 + 3I rows), and the equality rows are renumbered group by group,
    block by block.  The place of every product term
    ``a_rj * a_sj`` in one flat buffer is derived once, so that each group's
    blocks lie in it as a ``(K, n, n)`` stack, the couplings of all equality
    rows as one ``(m_eq, m_b)`` matrix ``C`` over the whole border (zero where
    a block does not touch a border row), and ``S_b`` as a square.  ``factor``
    fills the buffer with one sparse product per step, factors each group's
    stack by one ``np.linalg.cholesky`` call, inverts each block's factor
    (LAPACK ``dtrtri``), forms ``W = L^-1 C`` by one stacked product per group
    and the border Schur complement ``S_b - W'W`` by one product over all
    rows, and factors that.  Rank-deficient rows raise
    ``np.linalg.LinAlgError``.  Blocks of different sizes are never padded to
    one size, and the inverted factors are applied by matrix products: on
    blocks of tens of rows that beats triangular solves, whose small calls
    could also stall for milliseconds in the BLAS thread pool of a loaded
    2-core host.  The returned ``_ArrowFactor`` solves any number of
    right-hand sides with those factors.
    """

    def __init__(self, a, m_eq: int):
        a = sp.csc_matrix(a)
        m = a.shape[0]
        pattern = sp.csc_matrix((np.ones(a.nnz), a.indices, a.indptr), shape=a.shape)[:m_eq]
        n_blocks, label = connected_components(pattern @ pattern.T, directed=False) if m_eq else (0, np.zeros(0, int))
        sizes = np.bincount(label, minlength=n_blocks)
        rank = np.empty(n_blocks, dtype=np.intp)  # each block's place in size order
        rank[np.argsort(sizes, kind="stable")] = np.arange(n_blocks)
        self.order = np.argsort(rank[label], kind="stable")  # the equality rows, group by group, block by block
        place = np.empty(m_eq, dtype=np.intp)
        place[self.order] = np.arange(m_eq)
        self.m_b = m_b = m - m_eq
        block = np.concatenate([label, np.full(m_b, -1)]).astype(np.intp)
        start = np.cumsum(np.concatenate([[0], np.sort(sizes)]))  # each block's first renumbered row, in size order
        # each row's place in its block, or in the border
        pos = np.concatenate([place - start[rank[label]], np.arange(m_b)])

        # every product term a_rj * a_sj: one pair of nonzeros in column j
        per_col = np.diff(a.indptr)
        col = np.repeat(np.arange(a.shape[1]), per_col)
        partners = per_col[col]
        left = np.repeat(np.arange(a.nnz), partners)
        right = a.indptr[col[left]] + np.arange(left.size) - np.repeat(np.cumsum(partners) - partners, partners)
        r, s = a.indices[left], a.indices[right]
        br, bs = block[r], block[s]
        diag, coup, bord = (br >= 0) & (bs == br), (br >= 0) & (bs < 0), (br < 0) & (bs < 0)

        # the buffer: the blocks in size order, then C by renumbered row, then S_b
        off_diag = np.cumsum(np.concatenate([[0], np.sort(sizes) ** 2]))
        self.off_coup = off_diag[-1]
        self.off_border = self.off_coup + m_eq * m_b
        # (row count n, block count K, first buffer entry, first renumbered row) of each group
        n_of, k_of = np.unique(sizes, return_counts=True)
        first = np.cumsum(np.concatenate([[0], k_of]))[:-1]
        self.groups = [(int(n), int(k), int(off_diag[f]), int(start[f])) for n, k, f in zip(n_of, k_of, first)]
        keep = diag | coup | bord
        dest = np.empty(r.size, dtype=np.intp)
        dest[diag] = off_diag[rank[br[diag]]] + pos[r[diag]] * sizes[br[diag]] + pos[s[diag]]
        dest[coup] = self.off_coup + place[r[coup]] * m_b + pos[s[coup]]
        dest[bord] = self.off_border + pos[r[bord]] * m_b + pos[s[bord]]
        # buffer = fill @ d; the terms run in column order, so fill is CSC as it stands
        kept = col[left][keep]
        self.fill = sp.csc_matrix((a.data[left][keep] * a.data[right][keep], dest[keep],
                                   np.searchsorted(kept, np.arange(a.shape[1] + 1))),
                                  shape=(self.off_border + m_b * m_b, a.shape[1]))

    def factor(self, d: np.ndarray) -> _ArrowFactor:
        """The factors of ``A diag(d) A'`` for positive ``d``."""
        buf = self.fill @ d
        m_eq, m_b = self.order.size, self.m_b
        coup = buf[self.off_coup : self.off_border].reshape(m_eq, m_b)
        w = np.empty((m_eq, m_b))
        groups = []
        for n, k, od, r0 in self.groups:
            l_inv = _inverse_factors(buf[od : od + k * n * n].reshape(k, n, n))
            rows = slice(r0, r0 + k * n)
            np.matmul(l_inv, coup[rows].reshape(k, n, m_b), out=w[rows].reshape(k, n, m_b))
            groups.append((rows, l_inv))
        border_inv = _inverse_factors((buf[self.off_border :].reshape(m_b, m_b) - w.T @ w)[None])[0] if m_b else None
        return _ArrowFactor(self.order, groups, w, border_inv)


class _ArrowFactor:
    """One factorization of an ``_ArrowSystem``: each group's stack of ``L_k^-1``, ``W`` and ``L_b^-1``."""

    def __init__(self, order: np.ndarray, groups: list, w: np.ndarray, border_inv):
        self.order, self.groups, self.w, self.border_inv = order, groups, w, border_inv

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``(A diag(d) A')^-1 rhs``: forward through each group, the border solve, then back-substitution."""
        m_eq = self.order.size
        eq = rhs[self.order]
        z = np.empty(m_eq)
        for rows, l_inv in self.groups:
            k, n, _ = l_inv.shape
            np.matmul(l_inv, eq[rows].reshape(k, n, 1), out=z[rows].reshape(k, n, 1))
        rhs_b = rhs[m_eq:] - self.w.T @ z
        if self.border_inv is not None:
            rhs_b = self.border_inv.T @ (self.border_inv @ rhs_b)
        eq = z - self.w @ rhs_b
        for rows, l_inv in self.groups:
            k, n, _ = l_inv.shape
            np.matmul(l_inv.transpose(0, 2, 1), eq[rows].reshape(k, n, 1), out=z[rows].reshape(k, n, 1))
        dy = np.empty(rhs.size)
        dy[self.order] = z
        dy[m_eq:] = rhs_b
        return dy


def _inverse_factors(s: np.ndarray) -> np.ndarray:
    """``L^-1`` for the Cholesky factor ``L L' = s`` of each matrix of the stack ``s``.

    One ``np.linalg.cholesky`` call factors the stack, which raises
    ``np.linalg.LinAlgError`` unless every matrix is positive definite; each
    factor is inverted by ``dtrtri``, far cheaper on small matrices than
    ``np.linalg.inv`` on the stack.
    """
    l = np.linalg.cholesky(s)
    l_inv = np.empty_like(l)
    for i in range(l.shape[0]):
        l_inv[i] = dtrtri(l[i].T, lower=0)[0].T  # l[i].T is the upper factor, in Fortran order
    return l_inv


def _slack_rows(lp: LinearProgram):
    """``[A_eq 0; A_ub I]`` and its right-hand side: every row as an equality over (v, slack).

    Built as one CSR by index arithmetic: each inequality row keeps its terms
    and gains its slack column after them.
    """
    a_eq, a_ub = lp.a_eq, lp.a_ub
    m_ub = a_ub.shape[0]
    slack_at = a_ub.indptr[1:] + np.arange(m_ub)  # each slack term's place among the inequality terms
    terms = np.ones(a_ub.nnz + m_ub, dtype=bool)
    terms[slack_at] = False
    indices = np.empty(terms.size, dtype=a_ub.indices.dtype)
    indices[terms], indices[slack_at] = a_ub.indices, lp.n + np.arange(m_ub)
    data = np.ones(terms.size)
    data[terms] = a_ub.data
    indptr = np.concatenate([a_eq.indptr, a_eq.nnz + slack_at + 1])
    a = sp.csr_matrix((np.concatenate([a_eq.data, data]), np.concatenate([a_eq.indices, indices]), indptr),
                      shape=(a_eq.shape[0] + m_ub, lp.n + m_ub))
    return a, np.concatenate([lp.b_eq, lp.b_ub])


#: the previous ``solve_entropy`` call's rows: (slack-row matrix, equality-row count, transpose, ``_ArrowSystem``)
_last_rows = None


def _newton_rows(a_full: sp.csr_matrix, m_eq: int):
    """The transpose and the ``_ArrowSystem`` of ``a_full``, reused from the previous call when its rows are the same.

    Both are functions of the matrix's shape, ``indptr``, ``indices`` and
    ``data`` and of ``m_eq`` alone, so reusing them gives the bits a fresh
    analysis would.  Consecutive slots with the same active flows and the
    same zero-rent counts have the same rows; any difference rebuilds both
    and replaces the kept entry.  The entry is read once and replaced whole,
    so concurrent callers each see a consistent one.
    """
    global _last_rows
    last = _last_rows
    if last is not None and last[1] == m_eq and last[0].shape == a_full.shape:
        kept = last[0]
        if (np.array_equal(kept.indptr, a_full.indptr) and np.array_equal(kept.indices, a_full.indices)
                and np.array_equal(kept.data, a_full.data)):
            return last[2], last[3]
    at, arrow = a_full.T.tocsr(), _ArrowSystem(a_full, m_eq)
    _last_rows = (a_full, m_eq, at, arrow)
    return at, arrow


def solve_entropy(prog: EntropyRegularizedProgram, x0: np.ndarray, tol: float = DEFAULT_TOL) -> SolveResult:
    """Primal-dual path-following solve of a linear-plus-entropy program, started from ``x0``.

    Inequalities are converted to equality rows with slack variables, so every
    variable of the extended problem has only a lower bound, with multiplier
    ``z``.  Each step is one Mehrotra predictor-corrector step on the
    perturbed KKT conditions (stationarity, the equality rows, ``z * gap =
    target`` with ``gap`` the distance to the lower bounds), in the manner of
    Wright, *Primal-Dual Interior-Point Methods* (SIAM 1997, ch. 10), with
    ``mu = z'gap / n``.  The predictor is the affine direction, aimed at
    ``z * gap = 0``; the complementarity ``mu_aff`` it would reach at its
    longest step sets ``sigma = min(1, (mu_aff / mu)^3)``.  The corrector
    aims each coordinate at ``sigma * mu`` less the predictor's second-order
    term ``dv * dz``.  Both directions solve with one factorization.  The
    target never drops below ``0.999 * mu_end``, a floor set by ``tol``, so
    the solve ends on the central path at that weight, not wherever the last
    step left it.  One fraction-to-boundary step (0.995) keeps ``gap`` and
    ``z`` positive; there are no barrier stages and no backtracking.  The
    Hessian stays diagonal (entropy terms plus ``z / gap``), so each step
    reduces to solves with the constraint Schur complement ``A H^-1 A'``.
    That matrix is factored in block-arrow form (``_ArrowSystem``): one
    stacked Cholesky factorization per size of the blocks of equality rows
    that share columns, then one of the inequality border's Schur
    complement; no dense matrix over all rows is formed.  The analysis of
    the rows is reused from the previous call when its rows are the same
    (``_newton_rows``).  The equality rows must have full row rank (every
    slot layout's rows do); rank-deficient rows raise
    ``np.linalg.LinAlgError``.  Every variable must carry a finite lower
    bound; upper bounds are not supported directly, express them as ``a_ub``
    rows.

    The start point ``x0`` is required.  It must lie strictly above the lower
    bounds and strictly inside the inequality rows, or ``ValueError`` is
    raised; it need not satisfy the equality rows.  The status is
    ``OPTIMAL`` once ``mu <= mu_end`` and the stationarity and equality
    residuals are each at most 1e-11 times one plus their own scale (the
    largest cost; the largest right-hand side); ``ITERATION_LIMIT`` when that
    takes more than ``MAX_NEWTON`` steps, and ``UNBOUNDED`` when the iterate
    runs off past 1e14.  ``iterations`` counts the Newton steps, one
    factorization each.  Deterministic: identical inputs give identical
    results, whatever was solved before.
    """
    lp = prog.lp
    if not np.all(np.isfinite(lp.lb)):
        raise ValueError("solve_entropy requires finite lower bounds on all variables")
    if np.any(np.isfinite(lp.ub)):
        raise ValueError("express upper bounds as inequality rows for solve_entropy")

    n = lp.n
    m_eq, m_ub = lp.a_eq.shape[0], lp.a_ub.shape[0]

    # extended problem: v_ext = (v, slack), all-equality constraints; only the
    # columns ``ent`` carry entropy terms, and no slack does
    a_full, b_full = _slack_rows(lp)
    c_ext = np.concatenate([lp.c, np.zeros(m_ub)])
    ent = np.flatnonzero(prog.weight > 0)
    w, s, r = prog.weight[ent], prog.shift[ent], prog.reference[ent]
    rs = r + s
    lb_ext = np.concatenate([lp.lb, np.zeros(m_ub)])

    v = np.concatenate([x0, lp.b_ub - lp.a_ub @ x0])
    gap = v - lb_ext
    if np.any(gap <= 0):
        raise ValueError("starting point is not strictly interior")
    # nudge barely-interior coordinates away from the boundary
    v = np.where(gap < 1e-9, lb_ext + 1e-9, v)

    n_ext = n + m_ub
    vs = v[ent] + s
    # over the zero-padded vector: c @ v[:n] can differ from it in the last bit
    f0 = abs(float(c_ext @ v) + float(np.sum(w * (vs * np.log(vs / rs) + r - v[ent]))))
    mu_end = min(tol * (1.0 + f0) / (10.0 * n_ext), 1e-9)
    # each residual against its own scale: the largest cost for stationarity,
    # the largest right-hand side for the rows
    dual_tol = 1e-11 * (1.0 + float(np.max(np.abs(lp.c), initial=0.0)))
    prim_tol = 1e-11 * (1.0 + float(np.max(np.abs(b_full), initial=0.0)))
    y = np.zeros(a_full.shape[0])
    z = max(1e-2, (1.0 + f0) / n_ext) / (v - lb_ext)

    at, arrow = _newton_rows(a_full, m_eq)
    steps, status = 0, ITERATION_LIMIT
    while True:
        gap = v - lb_ext
        mu = float(z @ gap) / n_ext
        grad = c_ext.copy()
        grad[ent] += w * np.log((v[ent] + s) / rs)
        grad_l = grad + at @ y
        r_prim = a_full @ v - b_full
        if (
            mu <= mu_end
            and np.max(np.abs(grad_l - z), initial=0.0) <= dual_tol
            and np.max(np.abs(r_prim), initial=0.0) <= prim_tol
        ):
            status = OPTIMAL
            break
        if steps >= MAX_NEWTON:
            break
        hess = z / gap
        hess[ent] += w / (v[ent] + s)
        dinv = 1.0 / hess
        factor = arrow.factor(dinv)
        # predictor: the affine direction, aimed at z * gap = 0
        dy = factor.solve(r_prim - a_full @ (dinv * grad_l))
        dv_aff = -dinv * (grad_l + at @ dy)
        dz_aff = -z - z * dv_aff / gap
        a_aff = min(1.0, _step_to_boundary(gap, dv_aff), _step_to_boundary(z, dz_aff))
        mu_aff = float((z + a_aff * dz_aff) @ (gap + a_aff * dv_aff)) / n_ext
        # corrector: aim at sigma * mu, less the affine step's second-order term
        target = max(min(1.0, (mu_aff / mu) ** 3) * mu, 0.999 * mu_end) - dv_aff * dz_aff
        r_cent = grad_l - target / gap
        dy = factor.solve(r_prim - a_full @ (dinv * r_cent))
        dv = -dinv * (r_cent + at @ dy)
        dz = (target - z * gap - z * dv) / gap
        steps += 1
        alpha = min(1.0, 0.995 * _step_to_boundary(gap, dv), 0.995 * _step_to_boundary(z, dz))
        v, y, z = v + alpha * dv, y + alpha * dy, z + alpha * dz
        if not np.all(np.isfinite(v)) or float(np.max(np.abs(v))) > 1e14:
            return SolveResult(status=UNBOUNDED, x=v[:n], iterations=steps)

    x = v[:n]
    eq_duals = y[:m_eq]
    lam = np.maximum(y[m_eq:], 0.0)
    kkt = _kkt_residuals(lp, _reduced_costs(lp, entropy_gradient(prog, x), eq_duals, lam), x, lam, z[:n])
    kkt["barrier"] = mu
    dual = _dual_bound(lp, prog.weight, prog.reference, prog.shift, eq_duals, lam)
    return SolveResult(
        status=status,
        x=x,
        objective=entropy_value(prog, x),
        iterations=steps,
        duals=lambda: (eq_duals, lam),
        diagnose=lambda: (dual, kkt),
    )


def _step_to_boundary(u: np.ndarray, du: np.ndarray) -> float:
    """The longest step ``t`` with ``u + t * du >= 0`` for positive ``u``; inf when ``du >= 0``."""
    neg = du < 0
    return float(np.min(u[neg] / -du[neg], initial=np.inf))
