"""Textbook two-phase dense simplex, used as an independent LP oracle.

Deliberately simple and separate from the package's solver layer: full
tableau, Bland's rule (no cycling), artificials driven out or their rows
dropped.  Slow but trustworthy at test scale.
"""

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _pivot(T, basis, cost, allowed, tol=1e-9):
    """Run Bland-rule simplex iterations on tableau T in place."""
    m = T.shape[0] - 0
    while True:
        cb = cost[basis]
        red = cost[allowed] - cb @ T[:, allowed]
        entering = -1
        for j, r in zip(allowed, red):
            if r < -tol:
                entering = j
                break
        if entering < 0:
            return OPTIMAL
        col = T[:, entering]
        rows = np.where(col > tol)[0]
        if rows.size == 0:
            return UNBOUNDED
        ratios = T[rows, -1] / col[rows]
        best = ratios.min()
        # Bland tie-break: smallest basis variable index among minimal ratios
        cand = rows[np.abs(ratios - best) <= tol * (1.0 + abs(best))]
        leave_row = min(cand, key=lambda r: basis[r])
        piv = T[leave_row, entering]
        T[leave_row] /= piv
        for r in range(T.shape[0]):
            if r != leave_row and abs(T[r, entering]) > 0:
                T[r] -= T[r, entering] * T[leave_row]
        basis[leave_row] = entering


def simplex_standard(c, A, b, maxiter=50_000):
    """min c'x s.t. Ax = b, x >= 0.  Returns (status, x, objective)."""
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    c = np.array(c, dtype=float)
    m, n = A.shape
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    T = np.hstack([A, np.eye(m), b[:, None]])
    basis = list(range(n, n + m))
    cost1 = np.concatenate([np.zeros(n), np.ones(m), [0.0]])
    status = _pivot(T, basis, cost1, list(range(n)))
    phase1_obj = float(cost1[basis] @ T[:, -1])
    if phase1_obj > 1e-7:
        return INFEASIBLE, None, np.nan

    # drive artificials out of the basis, or drop redundant rows
    drop = []
    for r in range(m):
        if basis[r] >= n:
            pivot_col = -1
            for j in range(n):
                if abs(T[r, j]) > 1e-9:
                    pivot_col = j
                    break
            if pivot_col < 0:
                drop.append(r)
                continue
            piv = T[r, pivot_col]
            T[r] /= piv
            for rr in range(m):
                if rr != r and abs(T[rr, pivot_col]) > 0:
                    T[rr] -= T[rr, pivot_col] * T[r]
            basis[r] = pivot_col
    if drop:
        keep = [r for r in range(m) if r not in drop]
        T = T[keep]
        basis = [basis[r] for r in keep]

    cost2 = np.concatenate([c, np.full(m, 1e18), [0.0]])  # artificials must never re-enter
    status = _pivot(T, basis, cost2, list(range(n)))
    if status == UNBOUNDED:
        return UNBOUNDED, None, np.nan
    x = np.zeros(n)
    for r, bv in enumerate(basis):
        if bv < n:
            x[bv] = T[r, -1]
    return OPTIMAL, x, float(c @ x)


def oracle_solve_lp(lp):
    """Solve a package LinearProgram with the oracle simplex.

    General form is reduced to standard form: shift out finite lower bounds,
    slack the inequalities and finite upper bounds.  Variables with infinite
    lower bounds are not supported (none of the tested programs need them).
    Returns (status, x, objective) in the original variable space.
    """
    n = lp.n
    lb, ub = lp.lb, lp.ub
    if not np.all(np.isfinite(lb)):
        raise ValueError("oracle handles finite lower bounds only")
    a_eq, b_eq = lp.eq_matrix().toarray(), lp.b_eq
    a_ub, b_ub = lp.ub_matrix().toarray(), lp.b_ub

    # x = lb + u with u >= 0
    b_eq2 = b_eq - a_eq @ lb
    b_ub2 = b_ub - a_ub @ lb
    fin_ub = np.where(np.isfinite(ub))[0]
    m_eq, m_ub, m_box = a_eq.shape[0], a_ub.shape[0], fin_ub.size
    n_std = n + m_ub + m_box
    A = np.zeros((m_eq + m_ub + m_box, n_std))
    bvec = np.zeros(m_eq + m_ub + m_box)
    A[:m_eq, :n] = a_eq
    bvec[:m_eq] = b_eq2
    A[m_eq : m_eq + m_ub, :n] = a_ub
    A[m_eq : m_eq + m_ub, n : n + m_ub] = np.eye(m_ub)
    bvec[m_eq : m_eq + m_ub] = b_ub2
    for r, j in enumerate(fin_ub):
        A[m_eq + m_ub + r, j] = 1.0
        A[m_eq + m_ub + r, n + m_ub + r] = 1.0
        bvec[m_eq + m_ub + r] = ub[j] - lb[j]
    c_std = np.concatenate([lp.c, np.zeros(m_ub + m_box)])
    status, u, obj = simplex_standard(c_std, A, bvec)
    if status != OPTIMAL:
        return status, None, np.nan
    x = lb + u[:n]
    return OPTIMAL, x, float(lp.c @ x)
