"""SPD solvers, condition-number estimation and Matrix Market export for
the assembled systems."""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cho_factor, cho_solve, eigvalsh_tridiagonal


SOLVERS = ("direct", "cg", "dense")


class NotSpdError(RuntimeError):
    """Raised when a matrix expected to be SPD shows negative curvature."""


class ConvergenceError(RuntimeError):
    def __init__(self, msg, iterations):
        super().__init__(msg)
        self.iterations = iterations


def solve_cg(A, b, tol=1e-12, max_iter=None, preconditioner="none"):
    """Conjugate gradients with explicit negative-curvature detection.

    preconditioner is "none", "jacobi" or a callable r -> M^-1 r with M
    symmetric positive definite (see two_level_preconditioner).
    Returns (x, iterations); raises NotSpdError on negative curvature and
    ConvergenceError when the relative residual stays above tol.
    """
    n = A.shape[0]
    if max_iter is None:
        max_iter = 20 * n
    if callable(preconditioner):
        apply = preconditioner
    elif preconditioner == "jacobi":
        d = A.diagonal()
        if np.any(d <= 0):
            raise NotSpdError("non-positive diagonal entry")
        minv = 1.0 / d
        apply = lambda r: r * minv
    elif preconditioner == "none":
        apply = lambda r: r
    else:
        raise ValueError(f"unknown preconditioner {preconditioner!r}")

    b = np.asarray(b, dtype=float)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n), 0
    x = np.zeros(n)
    r = b.copy()
    z = apply(r)
    p = z.copy()
    rz = float(r @ z)
    for it in range(1, max_iter + 1):
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise NotSpdError(
                f"negative curvature p^T A p = {pAp:.3e} at iteration {it}")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        if np.linalg.norm(r) <= tol * bnorm:
            return x, it
        z = apply(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise ConvergenceError(
        f"CG did not reach tol {tol:g} in {max_iter} iterations "
        f"(relative residual {np.linalg.norm(r) / bnorm:.3e})", max_iter)


def _cholesky_inverse(A):
    """x -> A^-1 x by a dense Cholesky factor; factorization failure
    signals non-SPD."""
    if sp.issparse(A):
        A = A.toarray()
    A = np.asarray(A, dtype=float)
    if A.shape[0] > 5000:
        raise ValueError("dense Cholesky limited to dimension 5000")
    try:
        c = cho_factor(A)
    except np.linalg.LinAlgError as exc:
        raise NotSpdError(f"Cholesky factorization failed: {exc}") from exc
    return lambda x: cho_solve(c, np.asarray(x, dtype=float))


def solve_dense_cholesky(A, b):
    """Dense Cholesky solve; factorization failure signals non-SPD."""
    return _cholesky_inverse(A)(b)


# block entries gathered from the matrix per step of the smoother setup:
# it bounds the temporaries (indices, blocks, factors), so that only the
# stack of inverses is full size and the setup adds little to peak memory
_BLOCK_CHUNK = 1 << 16


def two_level_preconditioner(A, coarse, element_dofs):
    """Additive two-level Schwarz preconditioner r -> M^-1 r for the SPD
    matrix A (CSR):

        M^-1 = P (P^T A P)^-1 P^T + sum_e R_e^T (R_e A R_e^T)^-1 R_e

    P = coarse maps the coarse unknowns (the P1 hat functions) to A's
    unknowns; P^T A P is factored once.  R_e restricts to the unknowns of
    element e, the rows of element_dofs (-1 marks an eliminated DOF, whose
    slot gets an identity row).  When P is square the coarse solve is
    exact and is applied alone.  Raises NotSpdError when an element block
    is not positive definite.
    """
    n = A.shape[0]
    if n == 0:
        return lambda r: r
    nc = coarse.shape[1]
    if nc:
        coarse_solve = spla.factorized((coarse.T @ A @ coarse).tocsc())
        if nc == n:
            return lambda r: coarse @ coarse_solve(coarse.T @ r)

    T, m = element_dofs.shape
    fixed = element_dofs < 0
    gather = np.where(fixed, 0, element_dofs)
    inv = np.empty((T, m, m))
    step = max(1, _BLOCK_CHUNK // (m * m))
    for s in range(0, T, step):
        g, f = gather[s:s + step], fixed[s:s + step]
        rows = np.repeat(g, m, axis=1).ravel()
        cols = np.tile(g, (1, m)).ravel()
        blocks = np.asarray(A[rows, cols]).reshape(-1, m, m)
        e, i = np.nonzero(f)
        blocks[e, i, :] = 0.0
        blocks[e, :, i] = 0.0
        blocks[e, i, i] = 1.0
        try:
            chol = np.linalg.cholesky(blocks)
        except np.linalg.LinAlgError as exc:
            raise NotSpdError(
                f"element block not positive definite: {exc}") from exc
        linv = np.linalg.inv(chol)
        inv[s:s + step] = linv.transpose(0, 2, 1) @ linv
    # eliminated slots gather a zero and scatter to a discarded slot n
    slots = np.where(fixed, n, element_dofs)
    flat = slots.ravel()

    def apply(r):
        z_loc = inv @ np.append(r, 0.0)[slots][..., None]
        z = np.bincount(flat, weights=z_loc.ravel(), minlength=n + 1)[:n]
        if nc:
            z += coarse @ coarse_solve(coarse.T @ r)
        return z

    return apply


def solve_spd(A, b, method="direct", tol=1e-12, coarse=None,
              element_dofs=None):
    """Default solve path for assembled systems: (x, inverse), where
    inverse applies A^-1 by the factor the solve built (SuperLU for
    "direct", Cholesky for "dense") and is None for "cg".  With the
    coarse space and the per-element DOF index of
    two_level_preconditioner, "cg" is preconditioned by it; otherwise by
    the diagonal."""
    if method == "direct":
        # the systems are SPD, so a minimum-degree ordering of A^T + A
        # with diagonal pivots preferred keeps the fill far below COLAMD's
        lu = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                       options=dict(SymmetricMode=True))
        return lu.solve(np.asarray(b, dtype=float)), lu.solve
    if method == "cg":
        # A is symmetric, so the transpose of its CSC form is A in CSR,
        # with no copy
        A = A.T if A.format == "csc" else A.tocsr()
        if coarse is None:
            pre = "jacobi"
        else:
            pre = two_level_preconditioner(A, coarse, element_dofs)
        x, _ = solve_cg(A, b, tol=tol, preconditioner=pre)
        return x, None
    if method == "dense":
        inverse = _cholesky_inverse(A)
        return inverse(b), inverse
    raise ValueError(f"unknown solver {method!r}")


def _lanczos_extreme(apply, n, max_iter=None, tol=1e-10):
    """Ritz value of largest magnitude of the symmetric operator `apply`
    on R^n (the top one when the operator is positive definite), by plain
    Lanczos from the all-ones start vector.  From the 11th step on, it has
    settled once it moved by at most tol relative over the last quarter of
    the steps: near a cluster of eigenvalues it can stall for a few steps
    and then climb again.  max_iter defaults to 10 sqrt(n), at least 200,
    as the steps needed at the top of a stiffness spectrum grow like
    1/h.  Raises ConvergenceError when the value has not settled within
    max_iter < n steps."""
    if max_iter is None:
        max_iter = max(200, int(10 * np.sqrt(n)))
    q = np.ones(n) / np.sqrt(n)
    alphas, betas, ests = [], [], []
    q_prev = np.zeros(n)
    beta = 0.0
    steps = min(max_iter, n)
    for m in range(1, steps + 1):
        w = apply(q) - beta * q_prev
        alpha = float(q @ w)
        w -= alpha * q
        alphas.append(alpha)
        beta = float(np.linalg.norm(w))
        d, e = np.array(alphas), np.array(betas)
        lo, hi = (eigvalsh_tridiagonal(d, e, select="i",
                                       select_range=(i, i))[0]
                  for i in (0, m - 1))
        est = float(hi if hi >= -lo else lo)
        ests.append(est)
        settled = m > 10 and abs(est - ests[-1 - m // 4]) <= tol * abs(est)
        if settled or beta == 0.0:
            return est
        betas.append(beta)
        q_prev, q = q, w / beta
    if steps == n:
        # n steps span the whole space: the Ritz values are the spectrum
        return est
    raise ConvergenceError(
        f"Lanczos Ritz value not settled to {tol:g} in {max_iter} steps",
        max_iter)


def estimate_condition_2(A, inverse=None):
    """kappa_2 = lambda_max / lambda_min of an SPD matrix.  lambda_max is
    the extreme Ritz value of Lanczos on A, 1 / lambda_min that of Lanczos
    on A^-1.  inverse applies A^-1, as solve_spd hands it out; without it
    A is factored here.  Raises NotSpdError when A is singular or either
    value is not positive, ConvergenceError when Lanczos does not
    settle."""
    n = A.shape[0]
    if n == 0:
        raise ValueError("condition number of an empty (0 x 0) matrix")
    if inverse is None:
        try:
            inverse = spla.factorized(sp.csc_matrix(A, dtype=float))
        except RuntimeError as exc:
            raise NotSpdError(f"singular matrix: {exc}") from exc
    lam_max = _lanczos_extreme(lambda x: A @ x, n)
    mu = _lanczos_extreme(inverse, n)
    if lam_max <= 0 or mu <= 0:
        raise NotSpdError(f"nonpositive extreme eigenvalue: lambda_max "
                          f"{lam_max:.3e}, 1 / lambda_min {mu:.3e}")
    return lam_max * mu


def export_matrix_market(A, path):
    from scipy.io import mmwrite
    mmwrite(path, sp.coo_matrix(A))
