"""Convex QPs with a planted KKT point: an exact oracle for every solver path.

Pick x*, z* >= 0 with x*'z* = 0, y*, Q >= 0 and A, then set
c = -Q x* + A'y* + z* and b = A x*. The point (x*, y*, z*) satisfies the KKT
conditions of min 1/2 x'Qx + c'x s.t. Ax = b, x_I >= 0, so its objective is
the optimal value, whatever the solver under test does (Rosen & Suzuki 1965).
"""
import numpy as np

from sparseipm.problems import quadratic_program

STRUCTURES = ("plain", "degenerate", "ill-conditioned", "diagonal", "free",
              "rank-deficient", "slack", "all-slack", "diagonal-pairs")


def planted_qp(structure: str, n: int, m: int, seed: int):
    """(program, optimal objective) of one planted QP.

    ``plain``: coupled Q = BB'/n, half the coordinates basic (x* > 0 = z*).
    Each other structure changes one thing about it:
    ``degenerate``: 30% of the coordinates have x* = z* = 0;
    ``ill-conditioned``: Q has eigenvalues from 1 down to 1e-6;
    ``diagonal``: Q is diagonal, and half of it zero (linear coordinates);
    ``free``: 20% of the coordinates are free, not non-negative;
    ``rank-deficient``: the last 5 rows of A repeat its first 5;
    ``slack``: 4 more rows of A, each with its own declared split pairs
    (x+, x-), whose columns are a e_i and -a e_i and which Q does not touch;
    the last row holds two pairs. Each x+ is basic and each x- is not. The
    program then has m + 4 rows and n + 10 columns;
    ``all-slack``: the same with one pair in each of the m rows of A and no
    rows added, so every row holds a slack pair: n + 2m columns;
    ``diagonal-pairs``: ``diagonal`` with ``slack``'s rows and pairs, and 3
    more split pairs whose columns are S and -S, dense, which Q does not
    touch; each x+ is basic and each x- is not: m + 4 rows, n + 16 columns.
    """
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    if structure == "rank-deficient":
        A[-5:] = A[:5]
    if structure in ("diagonal", "diagonal-pairs"):
        Q = np.diag(rng.uniform(0.5, 2.0, n) * (rng.random(n) < 0.5))
    elif structure == "ill-conditioned":
        U, _ = np.linalg.qr(rng.standard_normal((n, n)))
        Q = (U * np.logspace(0, -6, n)) @ U.T
        Q = 0.5 * (Q + Q.T)
    else:
        B = rng.standard_normal((n, n))
        Q = B @ B.T / n
    order = rng.permutation(n)
    basic, nonbasic = order[:n // 2], order[n // 2:]
    if structure == "degenerate":
        nonbasic = nonbasic[int(0.3 * n):]
    x = np.zeros(n)
    z = np.zeros(n)
    x[basic] = rng.uniform(0.5, 2.0, basic.size)
    z[nonbasic] = rng.uniform(0.5, 2.0, nonbasic.size)
    nonneg = np.arange(n)
    if structure == "free":
        free = basic[:int(0.2 * n)]
        x[free] = rng.standard_normal(free.size)
        nonneg = np.setdiff1d(nonneg, free)
    pairs = np.zeros((2, 0), dtype=int)
    if structure in ("slack", "all-slack", "diagonal-pairs"):
        rows = np.arange(m) if structure == "all-slack" else m + np.array([0, 1, 2, 3, 3])
        k = rows.size
        a = rng.uniform(0.5, 2.0, k) * rng.choice([-1.0, 1.0], k)
        if structure != "all-slack":
            A = np.vstack([A, rng.standard_normal((4, n))])
        slack = np.zeros((A.shape[0], 2 * k))
        slack[rows, np.arange(k)] = a
        slack[rows, k + np.arange(k)] = -a
        columns = [slack]
        if structure == "diagonal-pairs":
            S = rng.standard_normal((A.shape[0], 3))
            columns.append(np.hstack([S, -S]))
        for block in columns:  # each block: k plus members, then their k minus members
            k, first = block.shape[1] // 2, A.shape[1]
            A = np.hstack([A, block])
            Q = np.pad(Q, (0, 2 * k))
            x = np.concatenate([x, rng.uniform(0.5, 2.0, k), np.zeros(k)])
            z = np.concatenate([z, np.zeros(k), rng.uniform(0.5, 2.0, k)])
            pairs = np.hstack([pairs, first + np.arange(2 * k).reshape(2, k)])
        nonneg = np.arange(A.shape[1])
    c = -Q @ x + A.T @ rng.standard_normal(A.shape[0]) + z
    prog = quadratic_program(Q, c, A, A @ x, nonneg=nonneg, pairs=pairs)
    return prog, prog.objective(x)
