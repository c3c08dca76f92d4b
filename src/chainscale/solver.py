"""Generic solver layer: linear programs and entropy-regularized programs.

Two problem classes are handled behind one result type:

* plain LPs (``solve_lp``), delegated to HiGHS via scipy, with duals mapped
  to a fixed sign convention and KKT residuals recomputed independently;
* convex programs whose objective is linear plus weighted shifted
  relative-entropy terms (``solve_entropy``), solved by a log-barrier Newton
  method written here, since the per-slot deployment subproblem needs
  accurate dual multipliers and bit-reproducible output.  Each Newton step
  factors the constraint system in block-arrow form: one dense block per
  group of equality rows that share columns (one per flow in a slot), joined
  only through the inequality rows.

Sign convention for duals, used everywhere downstream: with the Lagrangian
``c'v + y'(A_eq v - b_eq) + lam'(A_ub v - b_ub) - z_lo'(v - lb) + z_hi'(v - ub)``
stationarity reads ``grad f + A_eq'y + A_ub'lam - z_lo + z_hi = 0`` and
``lam, z_lo, z_hi >= 0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dtrtri
from scipy.optimize import linprog
from scipy.sparse.csgraph import connected_components

__all__ = [
    "LinearProgram",
    "EntropyRegularizedProgram",
    "SolveResult",
    "OPTIMAL",
    "INFEASIBLE",
    "UNBOUNDED",
    "ITERATION_LIMIT",
    "solve_lp",
    "solve_entropy",
    "dump_program",
    "entropy_value",
    "entropy_gradient",
]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration-limit"

DEFAULT_TOL = 1e-7


@dataclass
class LinearProgram:
    """min c'v  s.t.  a_eq v = b_eq,  a_ub v <= b_ub,  lb <= v <= ub.

    Matrices may be dense arrays or scipy sparse; ``lb`` defaults to zero and
    ``ub`` to +inf.  Missing constraint blocks may be None.
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
        if self.lb is None:
            self.lb = np.zeros(n)
        else:
            self.lb = np.asarray(self.lb, dtype=float)
        if self.ub is None:
            self.ub = np.full(n, np.inf)
        else:
            self.ub = np.asarray(self.ub, dtype=float)
        if self.b_eq is not None:
            self.b_eq = np.asarray(self.b_eq, dtype=float)
        if self.b_ub is not None:
            self.b_ub = np.asarray(self.b_ub, dtype=float)

    @property
    def n(self) -> int:
        return self.c.size

    def eq_matrix(self):
        return sp.csr_matrix((0, self.n)) if self.a_eq is None else sp.csr_matrix(self.a_eq)

    def ub_matrix(self):
        return sp.csr_matrix((0, self.n)) if self.a_ub is None else sp.csr_matrix(self.a_ub)


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
    """Primal-dual solution with solver-independent KKT diagnostics."""

    status: str
    x: np.ndarray = None
    objective: float = np.nan
    eq_duals: np.ndarray = None
    ub_duals: np.ndarray = None
    lb_duals: np.ndarray = None
    dual_objective: float = np.nan
    kkt: dict = field(default_factory=dict)
    certificate: object = None
    iterations: int = 0


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


def _dual_bound(lp: LinearProgram, weight, reference, shift, y, lam) -> float:
    """Lagrangian dual value at (y, lam>=0): a true lower bound on the optimum.

    Minimizes the Lagrangian coordinate-wise over the box [lb, ub]; entropy
    coordinates have a closed-form minimizer.  Returns -inf when some linear
    coordinate makes the Lagrangian unbounded below.
    """
    lam = np.maximum(lam, 0.0) if lam is not None and lam.size else lam
    ct = lp.c.copy()
    if y is not None and y.size:
        ct += lp.eq_matrix().T @ y
    if lam is not None and lam.size:
        ct += lp.ub_matrix().T @ lam
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
    total = float(np.sum(terms))
    if y is not None and y.size:
        total -= float(y @ lp.b_eq)
    if lam is not None and lam.size:
        total -= float(lam @ lp.b_ub)
    return float(total)


def _kkt_residuals(lp: LinearProgram, grad, x, y, lam, z_lo, z_hi=None) -> dict:
    a_eq, a_ub = lp.eq_matrix(), lp.ub_matrix()
    stat = grad.copy()
    if y is not None and y.size:
        stat += a_eq.T @ y
    if lam is not None and lam.size:
        stat += a_ub.T @ lam
    if z_lo is not None:
        stat -= z_lo
    if z_hi is not None:
        stat += z_hi
    res = {"stationarity": float(np.max(np.abs(stat), initial=0.0))}
    feas = 0.0
    if lp.b_eq is not None and lp.b_eq.size:
        feas = max(feas, float(np.max(np.abs(a_eq @ x - lp.b_eq))))
    comp = 0.0
    if lp.b_ub is not None and lp.b_ub.size:
        slack = lp.b_ub - a_ub @ x
        feas = max(feas, max(0.0, float(np.max(-slack, initial=0.0))))
        if lam is not None and lam.size:
            comp = max(comp, float(np.max(np.abs(lam * slack), initial=0.0)))
    lo_gap = x - lp.lb
    finite_lo = np.isfinite(lp.lb)
    if np.any(finite_lo):
        feas = max(feas, max(0.0, float(np.max(-lo_gap[finite_lo], initial=0.0))))
        if z_lo is not None:
            comp = max(comp, float(np.max(np.abs(z_lo[finite_lo] * lo_gap[finite_lo]), initial=0.0)))
    finite_hi = np.isfinite(lp.ub)
    if np.any(finite_hi):
        feas = max(feas, max(0.0, float(np.max((x - lp.ub)[finite_hi], initial=0.0))))
    res["feasibility"] = feas
    res["complementarity"] = comp
    return res


def dump_program(lp: LinearProgram, path, weight=None, reference=None, shift=None) -> None:
    """Debug dump of a program in a plain text format.

    Sections: ``objective`` (one coefficient per line, entropy columns when
    given), ``bounds``, then one line per constraint row as
    ``eq|ub <sparse terms> <relation> <rhs>``.
    """
    a_eq, a_ub = lp.eq_matrix(), lp.ub_matrix()
    with open(path, "w") as fh:
        fh.write(f"# variables: {lp.n}\n")
        fh.write("objective\n")
        for j in range(lp.n):
            extra = ""
            if weight is not None and weight[j] > 0:
                extra = f" entropy w={weight[j]:.12g} ref={reference[j]:.12g} shift={shift[j]:.12g}"
            fh.write(f"v{j} {lp.c[j]:.12g}{extra}\n")
        fh.write("bounds\n")
        for j in range(lp.n):
            fh.write(f"v{j} [{lp.lb[j]:.12g}, {lp.ub[j]:.12g}]\n")
        fh.write("constraints\n")
        for kind, mat, rhs, rel in (("eq", a_eq, lp.b_eq, "="), ("ub", a_ub, lp.b_ub, "<=")):
            for r in range(mat.shape[0]):
                row = mat.getrow(r).tocoo()
                terms = " + ".join(f"{v:.12g}*v{j}" for j, v in zip(row.col, row.data))
                fh.write(f"{kind} {terms} {rel} {rhs[r]:.12g}\n")


def solve_lp(lp: LinearProgram, tol: float = DEFAULT_TOL) -> SolveResult:
    """Solve an LP to optimality with primal and dual values.

    Infeasibility is certified by re-solving a phase-1 problem whose positive
    optimum equals the minimum total constraint violation; unboundedness by a
    feasible ray along which the objective decreases.
    """
    res = linprog(
        lp.c,
        A_ub=lp.a_ub,
        b_ub=lp.b_ub,
        A_eq=lp.a_eq,
        b_eq=lp.b_eq,
        bounds=np.column_stack([lp.lb, lp.ub]),
        method="highs",
    )
    if res.status == 2:
        return SolveResult(status=INFEASIBLE, certificate={"phase1": _phase1_violation(lp)})
    if res.status == 3:
        return SolveResult(status=UNBOUNDED, certificate={"ray": _unbounded_ray(lp)})
    if res.status != 0:
        return SolveResult(status=ITERATION_LIMIT, x=res.x, objective=res.fun if res.x is not None else np.nan)

    x = np.asarray(res.x, dtype=float)
    y = -np.asarray(res.eqlin.marginals, dtype=float) if lp.b_eq is not None and lp.b_eq.size else np.zeros(0)
    lam = -np.asarray(res.ineqlin.marginals, dtype=float) if lp.b_ub is not None and lp.b_ub.size else np.zeros(0)
    z_lo = np.asarray(res.lower.marginals, dtype=float)
    z_hi = -np.asarray(res.upper.marginals, dtype=float)
    kkt = _kkt_residuals(lp, lp.c, x, y, lam, z_lo, z_hi)
    dual = _dual_bound(lp, None, None, None, y, lam)
    return SolveResult(
        status=OPTIMAL,
        x=x,
        objective=float(res.fun),
        eq_duals=y,
        ub_duals=lam,
        lb_duals=z_lo,
        dual_objective=dual,
        kkt=kkt,
        iterations=int(res.nit),
    )


def _phase1_violation(lp: LinearProgram) -> float:
    """Minimum total constraint violation; positive iff the LP is infeasible."""
    n = lp.n
    a_eq, a_ub = lp.eq_matrix(), lp.ub_matrix()
    m_eq, m_ub = a_eq.shape[0], a_ub.shape[0]
    c = np.concatenate([np.zeros(n), np.ones(2 * m_eq + m_ub)])
    blocks_eq = sp.hstack([a_eq, sp.identity(m_eq), -sp.identity(m_eq), sp.csr_matrix((m_eq, m_ub))]) if m_eq else None
    blocks_ub = sp.hstack([a_ub, sp.csr_matrix((m_ub, 2 * m_eq)), -sp.identity(m_ub)]) if m_ub else None
    lb = np.concatenate([lp.lb, np.zeros(2 * m_eq + m_ub)])
    ub = np.concatenate([lp.ub, np.full(2 * m_eq + m_ub, np.inf)])
    res = linprog(
        c,
        A_eq=blocks_eq,
        b_eq=lp.b_eq if m_eq else None,
        A_ub=blocks_ub,
        b_ub=lp.b_ub if m_ub else None,
        bounds=np.column_stack([lb, ub]),
        method="highs",
    )
    return float(res.fun) if res.status == 0 else np.inf


def _unbounded_ray(lp: LinearProgram):
    """A feasible direction with c'd = -1, certifying unboundedness."""
    n = lp.n
    a_eq, a_ub = lp.eq_matrix(), lp.ub_matrix()
    lb = np.where(np.isfinite(lp.lb), 0.0, -np.inf)
    ub = np.where(np.isfinite(lp.ub), 0.0, np.inf)
    a_eq_full = sp.vstack([a_eq, sp.csr_matrix(lp.c)]) if a_eq.shape[0] else sp.csr_matrix(lp.c)
    b_eq_full = np.concatenate([lp.b_eq * 0.0, [-1.0]]) if a_eq.shape[0] else np.array([-1.0])
    res = linprog(
        np.zeros(n),
        A_eq=a_eq_full,
        b_eq=b_eq_full,
        A_ub=a_ub if a_ub.shape[0] else None,
        b_ub=np.zeros(a_ub.shape[0]) if a_ub.shape[0] else None,
        bounds=np.column_stack([lb, ub]),
        method="highs",
    )
    return np.asarray(res.x) if res.status == 0 else None


def _interior_start(lp: LinearProgram):
    """Strictly interior feasible point via a max-margin phase-1 LP."""
    n = lp.n
    a_eq, a_ub = lp.eq_matrix(), lp.ub_matrix()
    m_ub = a_ub.shape[0]
    # variables (v, tau): maximize tau with tau-margins on every inequality/bound
    c = np.zeros(n + 1)
    c[-1] = -1.0
    rows, rhs = [], []
    if m_ub:
        rows.append(sp.hstack([a_ub, sp.csr_matrix(np.ones((m_ub, 1)))]))
        rhs.append(lp.b_ub)
    rows.append(sp.hstack([-sp.identity(n), sp.csr_matrix(np.ones((n, 1)))]))
    rhs.append(-lp.lb)
    a_ub_full = sp.vstack(rows)
    b_ub_full = np.concatenate(rhs)
    a_eq_full = sp.hstack([a_eq, sp.csr_matrix((a_eq.shape[0], 1))]) if a_eq.shape[0] else None
    bounds = np.column_stack([np.concatenate([np.full(n, -np.inf), [0.0]]),
                              np.concatenate([np.full(n, np.inf), [1.0]])])
    res = linprog(c, A_ub=a_ub_full, b_ub=b_ub_full, A_eq=a_eq_full,
                  b_eq=lp.b_eq if a_eq.shape[0] else None, bounds=bounds, method="highs")
    if res.status == 2:
        return None, INFEASIBLE
    if res.status != 0 or res.x is None:
        return None, ITERATION_LIMIT
    tau = res.x[-1]
    if tau <= 1e-10:
        return None, "no-interior"
    return np.asarray(res.x[:n], dtype=float), OPTIMAL


class _ArrowSystem:
    """The Newton system ``A diag(d) A'`` of one constraint matrix, in block-arrow form.

    The equality rows (the first ``m_eq`` rows of ``a``) split into blocks, the
    connected components of the graph in which two rows meet when they share
    a column; for a slot layout that is one block per active flow, its
    arrival-rate row and its conservation rows.  The remaining rows form the
    border (capacity rows and count caps, each with its slack column).  Blocks
    meet only through the border, so the system matrix is block-arrow::

        [ S_1          C_1 ]
        [      ...     ... ]
        [          S_K C_K ]
        [ C_1' ... C_K' S_b ]

    The structure, and the place in one flat buffer of every product term
    ``a_rj * a_sj`` of the blocks ``S_k``, the couplings ``C_k`` (kept only
    over the border rows block k touches) and ``S_b``, is derived once.
    ``solve`` then fills the buffer with one ``bincount`` per step and
    factors each block and the border Schur complement ``S_b - sum W_k'W_k``,
    with ``W_k = L_k^-1 C_k``, by ``np.linalg.cholesky``.  Rank-deficient
    rows raise ``np.linalg.LinAlgError``.  Each factor is inverted once
    (LAPACK ``dtrtri``) and applied by matrix products: on blocks of tens of
    rows that beats triangular solves with a matrix right-hand side, whose
    small calls could also stall for milliseconds in the BLAS thread pool of
    a loaded 2-core host.
    """

    def __init__(self, a, m_eq: int):
        a = sp.csc_matrix(a)
        m = a.shape[0]
        pattern = sp.csc_matrix((np.ones(a.nnz), a.indices, a.indptr), shape=a.shape)[:m_eq]
        n_blocks, label = connected_components(pattern @ pattern.T, directed=False) if m_eq else (0, np.zeros(0, int))
        order = np.argsort(label, kind="stable")
        sizes = np.bincount(label, minlength=n_blocks)
        self.rows = np.split(order, np.cumsum(sizes)[:-1]) if n_blocks else []
        self.border = np.arange(m_eq, m)
        m_b = self.border.size
        block = np.concatenate([label, np.full(m_b, -1)]).astype(np.intp)
        pos = np.empty(m, dtype=np.intp)  # each row's place in its block, or in the border
        for rows in self.rows:
            pos[rows] = np.arange(rows.size)
        pos[self.border] = np.arange(m_b)

        # every product term a_rj * a_sj: one pair of nonzeros in column j
        per_col = np.diff(a.indptr)
        col = np.repeat(np.arange(a.shape[1]), per_col)
        partners = per_col[col]
        left = np.repeat(np.arange(a.nnz), partners)
        right = a.indptr[col[left]] + np.arange(left.size) - np.repeat(np.cumsum(partners) - partners, partners)
        r, s = a.indices[left], a.indices[right]
        br, bs = block[r], block[s]
        diag, coup, bord = (br >= 0) & (bs == br), (br >= 0) & (bs < 0), (br < 0) & (bs < 0)

        # the border rows each block touches, sorted, and their place in that list
        key, tpos = np.unique(br[coup] * m_b + pos[s[coup]], return_inverse=True)
        key_block = key // m_b
        first = np.searchsorted(key_block, np.arange(n_blocks))
        self.touch = np.split(key % m_b, first[1:]) if n_blocks else []
        tpos = tpos - first[br[coup]]

        widths = np.array([t.size for t in self.touch], dtype=np.intp)
        off_diag = np.cumsum(np.concatenate([[0], sizes * sizes]))
        off_coup = off_diag[-1] + np.cumsum(np.concatenate([[0], sizes * widths]))
        self.off_border = off_coup[-1]
        self.size = self.off_border + m_b * m_b
        self.off_diag, self.off_coup = off_diag[:-1], off_coup[:-1]
        keep = diag | coup | bord
        dest = np.empty(r.size, dtype=np.intp)
        dest[diag] = off_diag[br[diag]] + pos[r[diag]] * sizes[br[diag]] + pos[s[diag]]
        dest[coup] = off_coup[br[coup]] + pos[r[coup]] * widths[br[coup]] + tpos
        dest[bord] = self.off_border + pos[r[bord]] * m_b + pos[s[bord]]
        self.dest, self.col = dest[keep], col[left][keep]
        self.coef = a.data[left][keep] * a.data[right][keep]

    def solve(self, d: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """``(A diag(d) A')^-1 rhs`` for positive ``d``."""
        buf = np.bincount(self.dest, weights=self.coef * d[self.col], minlength=self.size)
        m_b = self.border.size
        s_b = buf[self.off_border :].reshape(m_b, m_b)
        rhs_b = rhs[self.border]
        factors = []
        for rows, touch, od, oc in zip(self.rows, self.touch, self.off_diag, self.off_coup):
            n_k = rows.size
            l_inv = _inverse_factor(buf[od : od + n_k * n_k].reshape(n_k, n_k))
            w_k = l_inv @ buf[oc : oc + n_k * touch.size].reshape(n_k, touch.size)
            z_k = l_inv @ rhs[rows]
            s_b[np.ix_(touch, touch)] -= w_k.T @ w_k
            rhs_b[touch] -= w_k.T @ z_k
            factors.append((l_inv, w_k, z_k))
        if m_b:
            l_inv = _inverse_factor(s_b)
            rhs_b = l_inv.T @ (l_inv @ rhs_b)
        dy = np.empty(rhs.size)
        dy[self.border] = rhs_b
        for rows, touch, (l_inv, w_k, z_k) in zip(self.rows, self.touch, factors):
            dy[rows] = l_inv.T @ (z_k - w_k @ rhs_b[touch])
        return dy


def _inverse_factor(s: np.ndarray) -> np.ndarray:
    """``L^-1`` for the Cholesky factor ``L L' = s``; ``np.linalg.LinAlgError`` unless ``s`` is positive definite."""
    l = np.linalg.cholesky(s)
    return dtrtri(l.T, lower=0)[0].T  # l.T is the upper factor, in Fortran order


def _slack_rows(lp: LinearProgram):
    """``[A_eq 0; A_ub I]`` and its right-hand side: every row as an equality over (v, slack)."""
    a_eq, a_ub = lp.eq_matrix(), lp.ub_matrix()
    m_eq, m_ub = a_eq.shape[0], a_ub.shape[0]
    a = sp.vstack([sp.hstack([a_eq, sp.csr_matrix((m_eq, m_ub))]), sp.hstack([a_ub, sp.identity(m_ub)])]).tocsr()
    return a, np.concatenate([lp.b_eq if m_eq else np.zeros(0), lp.b_ub if m_ub else np.zeros(0)])


def solve_entropy(
    prog: EntropyRegularizedProgram,
    tol: float = DEFAULT_TOL,
    x0: np.ndarray = None,
    max_newton: int = 200,
) -> SolveResult:
    """Barrier-Newton solve of a linear-plus-entropy program.

    Inequalities are converted to equality rows with slack variables, so the
    Newton Hessian stays diagonal and each step reduces to a solve with the
    constraint Schur complement ``A H^-1 A'``.  That matrix is factored in
    block-arrow form (``_ArrowSystem``): one Cholesky factorization per block
    of equality rows that share columns, then one of the inequality border's
    Schur complement; no dense matrix over all rows is formed.  The equality
    rows must have full row rank (every slot layout's rows do); rank-deficient
    rows raise ``np.linalg.LinAlgError``.  Every variable must carry a finite
    lower bound; upper bounds are not supported directly, express them as
    ``a_ub`` rows.

    ``x0``, when given, must be strictly above the lower bounds and strictly
    inside the inequalities; otherwise an interior point is found with an
    auxiliary LP.  Deterministic: identical inputs give identical results.
    """
    lp = prog.lp
    if not np.all(np.isfinite(lp.lb)):
        raise ValueError("solve_entropy requires finite lower bounds on all variables")
    if np.any(np.isfinite(lp.ub)):
        raise ValueError("express upper bounds as inequality rows for solve_entropy")

    n = lp.n
    a_eq, a_ub = lp.eq_matrix(), lp.ub_matrix()
    m_eq, m_ub = a_eq.shape[0], a_ub.shape[0]

    if x0 is None:
        x0, st = _interior_start(lp)
        if x0 is None:
            if st == INFEASIBLE:
                return SolveResult(status=INFEASIBLE, certificate={"phase1": _phase1_violation(lp)})
            raise ValueError(f"could not find a strictly interior starting point ({st})")

    # extended problem: v_ext = (v, slack), all-equality constraints
    a_full, b_full = _slack_rows(lp)
    w_ext = np.concatenate([prog.weight, np.zeros(m_ub)])
    s_ext = np.concatenate([np.where(prog.weight > 0, prog.shift, 1.0), np.ones(m_ub)])
    ext = EntropyRegularizedProgram(LinearProgram(np.concatenate([lp.c, np.zeros(m_ub)])), w_ext,
                                    np.concatenate([prog.reference, np.zeros(m_ub)]), s_ext)
    lb_ext = np.concatenate([lp.lb, np.zeros(m_ub)])

    v = np.concatenate([x0, (lp.b_ub - a_ub @ x0) if m_ub else np.zeros(0)])
    gap0 = v - lb_ext
    if np.any(gap0 <= 0):
        raise ValueError("starting point is not strictly interior")
    # nudge barely-interior coordinates away from the boundary
    v = np.where(gap0 < 1e-9, lb_ext + 1e-9, v)

    y = np.zeros(a_full.shape[0])
    act = w_ext > 0

    n_barrier = n + m_ub
    res_scale = float(np.max(np.abs(ext.lp.c), initial=1.0))
    mu = max(1e-2, (1.0 + abs(entropy_value(ext, v))) / n_barrier)
    mu_end = tol * (1.0 + abs(entropy_value(ext, v))) / (10.0 * n_barrier)
    mu_end = min(mu_end, 1e-9)

    at = a_full.T.tocsr()
    arrow = _ArrowSystem(a_full, m_eq)
    total_newton = 0
    status = OPTIMAL
    while True:
        for _ in range(60):
            if total_newton >= max_newton:
                status = ITERATION_LIMIT
                break
            gap = v - lb_ext
            g = entropy_gradient(ext, v) - mu / gap
            h = np.where(act, w_ext / np.where(act, v + s_ext, 1.0), 0.0) + mu / gap**2
            r_dual = g + at @ y
            r_prim = a_full @ v - b_full
            res_norm = np.sqrt(float(r_dual @ r_dual) + float(r_prim @ r_prim))
            # loose centering on the way down, tight only at the final barrier weight
            if res_norm <= (max(1e-12, min(1e-6, 1e-3 * mu)) if mu > mu_end else 1e-11 * (1.0 + res_scale)):
                break
            dinv = 1.0 / h
            # dy solves (A H^-1 A') dy = r_prim - A H^-1 r_dual, then dv from H dv = -(r_dual + A' dy)
            dy = arrow.solve(dinv, r_prim - a_full @ (dinv * r_dual))
            dv = -dinv * (r_dual + at @ dy)
            total_newton += 1

            neg = dv < 0
            alpha = 1.0
            if np.any(neg):
                alpha = min(1.0, 0.995 * float(np.min(gap[neg] / -dv[neg])))
            # backtrack on the KKT residual norm (infeasible-start Newton)
            for _bt in range(40):
                v_try = v + alpha * dv
                y_try = y + alpha * dy
                gap_try = v_try - lb_ext
                if np.any(gap_try <= 0):
                    alpha *= 0.5
                    continue
                g_try = entropy_gradient(ext, v_try) - mu / gap_try
                rd = g_try + at @ y_try
                rp = a_full @ v_try - b_full
                if np.sqrt(float(rd @ rd) + float(rp @ rp)) <= (1.0 - 0.01 * alpha) * res_norm:
                    break
                alpha *= 0.5
            step = alpha * float(np.max(np.abs(dv), initial=0.0))
            v, y = v + alpha * dv, y + alpha * dy
            if not np.all(np.isfinite(v)) or float(np.max(np.abs(v))) > 1e14:
                return SolveResult(status=UNBOUNDED, x=v[:n])
            if step <= 1e-13 * (1.0 + float(np.max(np.abs(v)))):
                break  # at the numerical floor for this barrier weight
        if status == ITERATION_LIMIT or mu <= mu_end:
            break
        mu = max(mu * 0.12, mu_end * 0.999)

    x = v[:n]
    z_ext = mu / (v - lb_ext)
    eq_duals = y[:m_eq] if m_eq else np.zeros(0)
    lam = np.maximum(y[m_eq:], 0.0) if m_ub else np.zeros(0)
    z_lo = z_ext[:n]
    grad_orig = entropy_gradient(prog, x)
    kkt = _kkt_residuals(lp, grad_orig, x, eq_duals, lam, z_lo)
    kkt["barrier"] = mu
    if (
        status == ITERATION_LIMIT
        and mu <= 2.0 * mu_end
        and kkt["feasibility"] <= tol
        and kkt["stationarity"] <= tol * (1.0 + res_scale)
    ):
        status = OPTIMAL  # converged; the cap only cut off redundant polish steps
    dual = _dual_bound(lp, prog.weight, prog.reference, prog.shift, eq_duals, lam)
    return SolveResult(
        status=status,
        x=x,
        objective=entropy_value(prog, x),
        eq_duals=eq_duals,
        ub_duals=lam,
        lb_duals=z_lo,
        dual_objective=dual,
        kkt=kkt,
        iterations=total_newton,
    )
