"""Monomial bases in affine coordinates, harmonic polynomial bases and the
P_k lattice of a triangle."""

from dataclasses import dataclass

import numpy as np


def monomial_exponents(degree):
    """Graded ordering: (0,0), (1,0), (0,1), (2,0), (1,1), (0,2), ..."""
    exps = []
    for s in range(degree + 1):
        for l in range(s + 1):
            exps.append((s - l, l))
    return np.array(exps, dtype=np.int64).reshape(-1, 2)


def monomial_dim(degree):
    return (degree + 1) * (degree + 2) // 2 if degree >= 0 else 0


def lattice_multi_indices(k):
    """All (a, b, c) with a + b + c = k, a, b, c >= 0: the barycentric
    weights (times k) of the P_k lattice of a triangle."""
    out = []
    for a in range(k, -1, -1):
        for b in range(k - a, -1, -1):
            out.append((a, b, k - a - b))
    return out


@dataclass(frozen=True)
class AffineMonomialBasis:
    """Monomials in the affine coordinates lambda = J^{-1} (x - x0).

    With J the edge matrix of a triangle, the lattice Vandermonde matrix is
    that of the reference triangle, so its conditioning does not degrade on
    thin elements (unlike isotropically scaled monomials).  With J = h I
    they are the scaled monomials ((x - x0)/h)^j ((y - y0)/h)^l.
    """

    origin: np.ndarray
    jac: np.ndarray               # (2, 2), columns span the element
    degree: int

    @property
    def exponents(self):
        return monomial_exponents(self.degree)

    @property
    def dim(self):
        return monomial_dim(self.degree)

    def _local(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.linalg.solve(self.jac, (points - self.origin).T).T

    def values(self, points):
        q = self._local(points)
        e = self.exponents
        return q[:, 0:1] ** e[:, 0] * q[:, 1:2] ** e[:, 1]

    def gradients(self, points):
        """Returns (npts, dim, 2); chain rule with the inverse Jacobian."""
        q = self._local(points)
        e = self.exponents
        j, l = e[:, 0], e[:, 1]
        gl = np.zeros((len(q), self.dim, 2))
        gl[:, :, 0] = np.where(j > 0,
                               j * q[:, 0:1] ** np.maximum(j - 1, 0)
                               * q[:, 1:2] ** l, 0.0)
        gl[:, :, 1] = np.where(l > 0,
                               l * q[:, 0:1] ** j
                               * q[:, 1:2] ** np.maximum(l - 1, 0), 0.0)
        jinv = np.linalg.inv(self.jac)
        return gl @ jinv                  # d/dx_i = sum_a Jinv[a,i] d/dlam_a

    def lowered(self, drop=2):
        return AffineMonomialBasis(self.origin, self.jac, self.degree - drop)

    def laplacian_map(self):
        """Matrix L with Delta m_a = sum_b L[a, b] mu_b where mu is the
        degree-lowered basis: Delta_x = G : H_lambda, G = Jinv Jinv^T."""
        e = self.exponents
        sub = {tuple(p): i for i, p in enumerate(monomial_exponents(
            self.degree - 2))} if self.degree >= 2 else {}
        L = np.zeros((self.dim, monomial_dim(self.degree - 2)))
        jinv = np.linalg.inv(self.jac)
        G = jinv @ jinv.T
        for a, (j, l) in enumerate(e):
            if j >= 2:
                L[a, sub[(j - 2, l)]] += j * (j - 1) * G[0, 0]
            if j >= 1 and l >= 1:
                L[a, sub[(j - 1, l - 1)]] += 2.0 * j * l * G[0, 1]
            if l >= 2:
                L[a, sub[(j, l - 2)]] += l * (l - 1) * G[1, 1]
        return L


@dataclass(frozen=True)
class HarmonicBasis:
    """Pairs Re/Im of (((x-x0) + i (y-y0))/h)^j for the listed degrees."""

    origin: np.ndarray
    scale: float
    degrees: tuple

    @property
    def dim(self):
        return 2 * len(self.degrees)

    def _z(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        q = (points - self.origin) / self.scale
        return q[:, 0] + 1j * q[:, 1]

    def values(self, points):
        z = self._z(points)
        cols = []
        for j in self.degrees:
            zj = z ** j
            cols.append(zj.real)
            cols.append(zj.imag)
        return np.column_stack(cols)

    def gradients(self, points):
        z = self._z(points)
        n = len(z)
        grads = np.zeros((n, self.dim, 2))
        for i, j in enumerate(self.degrees):
            d = j * z ** (j - 1) / self.scale
            # f = Re z^j: grad = (Re d, -Im d); f = Im z^j: grad = (Im d, Re d)
            grads[:, 2 * i, 0] = d.real
            grads[:, 2 * i, 1] = -d.imag
            grads[:, 2 * i + 1, 0] = d.imag
            grads[:, 2 * i + 1, 1] = d.real
        return grads


def harmonic_basis(k, enrichment_degrees, origin=(0.0, 0.0), scale=1.0):
    """Harmonic enrichment functions of degrees strictly above k."""
    degrees = tuple(sorted(set(int(j) for j in enrichment_degrees)))
    if not degrees:
        raise ValueError("empty enrichment degree list")
    bad = [j for j in degrees if j <= k]
    if bad:
        raise ValueError(
            f"enrichment degrees {bad} not above base degree k={k}")
    return HarmonicBasis(np.asarray(origin, dtype=float), float(scale),
                         degrees)
