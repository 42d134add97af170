"""The two solvers of the SPD skeleton system, SuperLU ("direct") and
two-level CG ("cg"); the dense Cholesky solve that tests and `hctvem
verify` check them against; condition-number estimation; and Matrix
Market export of the assembled systems."""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cho_factor, cho_solve, eigvalsh_tridiagonal


SOLVERS = ("direct", "cg")


class NotSpdError(RuntimeError):
    """A matrix expected to be SPD is singular or has negative curvature."""


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


def solve_dense_cholesky(A, b):
    """Dense Cholesky solve, the reference the sparse solves are checked
    against; factorization failure signals non-SPD."""
    if sp.issparse(A):
        A = A.toarray()
    A = np.asarray(A, dtype=float)
    if A.shape[0] > 5000:
        raise ValueError("dense Cholesky limited to dimension 5000")
    try:
        c = cho_factor(A)
    except np.linalg.LinAlgError as exc:
        raise NotSpdError(f"Cholesky factorization failed: {exc}") from exc
    return cho_solve(c, np.asarray(b, dtype=float))


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
    element e, the rows of element_dofs (an index >= n marks an
    eliminated DOF, whose slot gets an identity row).  When P is square
    the coarse solve is exact and is applied alone.  Raises NotSpdError
    when P^T A P or an element block is not positive definite.
    """
    n = A.shape[0]
    if n == 0:
        return lambda r: r
    nc = coarse.shape[1]
    if nc:
        coarse_solve = _factorized(coarse.T @ A @ coarse)
        if nc == n:
            return lambda r: coarse @ coarse_solve(coarse.T @ r)

    T, m = element_dofs.shape
    fixed = element_dofs >= n
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
    slots = np.minimum(element_dofs, n)
    flat = slots.ravel()

    def apply(r):
        z_loc = inv @ np.append(r, 0.0)[slots][..., None]
        z = np.bincount(flat, weights=z_loc.ravel(), minlength=n + 1)[:n]
        if nc:
            z += coarse @ coarse_solve(coarse.T @ r)
        return z

    return apply


def _csr(A):
    """The symmetric matrix A in a form whose products are row by row:
    the transpose of its CSC form is A in CSR, with no copy."""
    if not sp.issparse(A):
        return np.asarray(A, dtype=float)
    return A.T if A.format == "csc" else A.tocsr()


def _superlu_inverse(A):
    """x -> A^-1 x by a SuperLU factor of the SPD matrix A."""
    # a minimum-degree ordering of A^T + A with diagonal pivots preferred
    # keeps the fill far below COLAMD's
    try:
        return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                         options=dict(SymmetricMode=True)).solve
    except RuntimeError as exc:
        raise NotSpdError(f"singular matrix: {exc}") from exc


def _alternating(n):
    """The start vector of lambda_max's Lanczos, (1, -1, 1, ...): the top
    of a stiffness spectrum is oscillatory, and the all-ones vector, the
    smooth mode, is almost orthogonal to it.  Lanczos converges at a rate
    scaled by the start's component along the top eigenvector (Kaniel,
    Paige and Saad; Parlett, The Symmetric Eigenvalue Problem, ch. 12)."""
    return np.resize([1.0, -1.0], n)


def _lambda_max(A):
    """Top eigenvalue of the symmetric matrix A by Lanczos on its
    products alone, from the alternating start vector."""
    A = _csr(A)
    n = A.shape[0]
    return _lanczos_extreme(lambda x: A @ x, n, start=_alternating(n))


def _factorized(A):
    """x -> A^-1 x by spla.factorized; a singular A is not SPD."""
    try:
        return spla.factorized(sp.csc_matrix(A, dtype=float))
    except RuntimeError as exc:
        raise NotSpdError(f"singular matrix: {exc}") from exc


def _solve(A, b, method, tol, coarse, element_dofs):
    """(x, inverse): A^-1 b by the solver method, and x -> A^-1 x by the
    solve's factor, or None after CG, which builds none."""
    if method == "direct":
        inverse = _superlu_inverse(A)
        return inverse(np.asarray(b, dtype=float)), inverse
    A_rows = _csr(A)
    if coarse is None:
        pre = "jacobi"
    else:
        pre = two_level_preconditioner(A_rows, coarse, element_dofs)
    return solve_cg(A_rows, b, tol=tol, preconditioner=pre)[0], None


def solve_spd(A, b, method="direct", tol=1e-12, coarse=None,
              element_dofs=None, kappa=False, condensed=None):
    """Default solve path for assembled systems: (x, kappa_2) with kappa,
    else (x, None); an empty system has no kappa either.  "direct"
    factors A by SuperLU.  With the coarse space and the per-element DOF
    index of two_level_preconditioner, "cg" is preconditioned by it;
    otherwise by the diagonal.

    kappa is estimate_condition_2's, on the solve's own factor, of A or,
    with condensed (a pipeline.Condensation whose Schur complement is A),
    of the full system that condensed describes; after CG, A is factored
    by spla.factorized for it.  A bare A, or a decoupled condensed (its
    assembly keeps no entry of any K_ib, so its full system is A plus the
    interior blocks on its diagonal, and kappa is A's with their extremes,
    condensed.interior_spectrum), takes both Lanczos runs on this thread.
    Otherwise the products are condensed.matvec, and the inverse is
    condensed.inverse of A's; lambda_max needs only products, so it runs
    on a second thread beside the solve, and lambda_min's Lanczos, which
    needs the solve's factor, follows the solve on this one.  They overlap where they release the
    GIL: SuperLU's factorization and solves do in scipy 1.17 (a Python
    loop on another thread keeps 93-100 % of its speed during them), and
    so does the BLAS product of each class.  The thread is joined before
    this returns or raises."""
    if method not in SOLVERS:
        raise ValueError(f"unknown solver {method!r}")
    n = (A if condensed is None else condensed).shape[0]
    if not (kappa and n):
        return _solve(A, b, method, tol, coarse, element_dofs)[0], None
    if condensed is None or condensed.decoupled:
        x, inverse = _solve(A, b, method, tol, coarse, element_dofs)
        interior = (np.inf, -np.inf) if condensed is None \
            else condensed.interior_spectrum
        return x, estimate_condition_2(A, inverse, interior=interior)
    with ThreadPoolExecutor(max_workers=1) as pool:
        lam_max = pool.submit(_lanczos_extreme, condensed.matvec, n,
                              start=_alternating(n)).result
        x, inverse = _solve(A, b, method, tol, coarse, element_dofs)
        inverse = condensed.inverse(inverse or _factorized(A))
        return x, estimate_condition_2(condensed, inverse, lam_max)


def _lanczos_extreme(apply, n, *, start=None, max_iter=None, tol=1e-10):
    """Ritz value of largest magnitude of the symmetric operator `apply`
    on R^n (the top one when the operator is positive definite), by plain
    Lanczos from the vector start, all ones by default.  lambda_max starts
    from _alternating; 1 / lambda_min, the top of A^-1, whose top
    eigenvectors are smooth, from all ones.

    The Ritz values are checked at steps m = 1, 2, ..., each check
    max(1, m // 16) steps after the last: every step up to 32, then
    about 16 checks per doubling of m, as a check costs two tridiagonal
    eigenvalue solves.  From the 11th step on, the value has settled once
    it moved by at most tol relative since the last check at or before
    step m - m // 4: near a cluster of eigenvalues it can stall for a few
    steps and then climb again.  max_iter defaults to 10 sqrt(n), at
    least 200, as the steps needed at the top of a stiffness spectrum
    grow like 1/h.  Raises ConvergenceError when the value has not
    settled within max_iter < n steps."""
    if max_iter is None:
        max_iter = max(200, int(10 * np.sqrt(n)))
    steps = min(max_iter, n)
    alphas, betas = np.empty(steps), np.empty(steps)
    checks = {}                    # step -> Ritz value of that check
    q = np.ones(n) if start is None else np.asarray(start, dtype=float)
    q = q / np.linalg.norm(q)
    q_prev = np.zeros(n)
    beta = 0.0
    check = 1
    for m in range(1, steps + 1):
        w = apply(q) - beta * q_prev
        alpha = float(q @ w)
        w -= alpha * q
        alphas[m - 1] = alpha
        beta = float(np.linalg.norm(w))
        if m == check or m == steps or beta == 0.0:
            lo, hi = (eigvalsh_tridiagonal(alphas[:m], betas[:m - 1],
                                           select="i",
                                           select_range=(i, i))[0]
                      for i in (0, m - 1))
            est = float(hi if hi >= -lo else lo)
            if m > 10:
                back = max(c for c in checks if c <= m - m // 4)
                if abs(est - checks[back]) <= tol * abs(est):
                    return est
            if beta == 0.0:
                return est
            checks[m] = est
            check = m + max(1, m // 16)
        betas[m - 1] = beta
        q_prev, q = q, w / beta
    if steps == n:
        # n steps span the whole space: the Ritz values are the spectrum
        return est
    raise ConvergenceError(
        f"Lanczos Ritz value not settled to {tol:g} in {max_iter} steps",
        max_iter)


def estimate_condition_2(A, inverse=None, lam_max=None,
                         interior=(np.inf, -np.inf)):
    """kappa_2 = lambda_max / lambda_min of an SPD matrix.  lambda_max is
    the extreme Ritz value of Lanczos on A, 1 / lambda_min that of Lanczos
    on A^-1.  inverse applies A^-1; without it A is factored here.
    lam_max, when given, returns lambda_max (solve_spd hands in its
    thread's result, which is awaited after lambda_min); without it the
    Lanczos on A runs here.  Given both, A is read only for its shape.
    interior is (lambda_min, lambda_max) of SPD blocks that sit beside A
    on the diagonal of a larger matrix, (inf, -inf) for none; the kappa_2
    returned is that matrix's, and A may be empty when there are some.
    Raises NotSpdError when A is singular or either value, or the
    interior lambda_min, is not positive, ConvergenceError when Lanczos
    does not settle."""
    n = A.shape[0]
    lo, hi = interior
    if n == 0 and hi < lo:
        raise ValueError("condition number of an empty (0 x 0) matrix")
    mu = lam = 0.0
    if n:
        if inverse is None:
            inverse = _factorized(A)
        mu = _lanczos_extreme(inverse, n)
        lam = _lambda_max(A) if lam_max is None else lam_max()
        if lam <= 0 or mu <= 0:
            raise NotSpdError(f"nonpositive extreme eigenvalue: lambda_max "
                              f"{lam:.3e}, 1 / lambda_min {mu:.3e}")
    if lo <= 0:
        raise NotSpdError(f"nonpositive interior eigenvalue {lo:.3e}")
    return max(lam, hi) * max(mu, 1.0 / lo)


def export_matrix_market(A, path):
    """Write A to path + ".mtx" (to path if it ends in .mtx), as
    scipy.io.mmwrite names it.  The file is opened here, so a path that
    cannot be written raises OSError: mmwrite given the name of a file in
    a missing directory returns without writing."""
    from scipy.io import mmwrite
    path = os.fspath(path)
    with open(path if path.endswith(".mtx") else path + ".mtx", "wb") as fh:
        mmwrite(fh, sp.coo_matrix(A))
