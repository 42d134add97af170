import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hctvem.pipeline import check_settings
from hctvem.polynomials import (AffineMonomialBasis, HarmonicBasis,
                                lattice_multi_indices, monomial_dim,
                                monomial_exponents)


def fd_gradient(f, pts, h=1e-6):
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    gx = (f(pts + ex) - f(pts - ex)) / (2 * h)
    gy = (f(pts + ey) - f(pts - ey)) / (2 * h)
    return np.stack([gx, gy], axis=-1)


def fd_laplacian(f, pts, h=1e-4):
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    return (f(pts + ex) + f(pts - ex) + f(pts + ey) + f(pts - ey)
            - 4 * f(pts)) / h ** 2


class TestExponents:
    def test_graded_ordering(self):
        e = monomial_exponents(2)
        assert e.tolist() == [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]

    @pytest.mark.parametrize("d", range(7))
    def test_dimension(self, d):
        assert len(monomial_exponents(d)) == monomial_dim(d) \
            == (d + 1) * (d + 2) // 2

    def test_negative_degree_dimension_zero(self):
        assert monomial_dim(-1) == 0


class TestAffineMonomialBasis:
    def setup_method(self):
        self.rng = np.random.default_rng(1)
        tri = np.array([[0.1, 0.0], [2.0, 0.3], [0.4, 1.5]])
        J = np.column_stack([tri[1] - tri[0], tri[2] - tri[0]])
        self.basis = AffineMonomialBasis(tri[0], J, 5)
        self.pts = self.rng.uniform(0, 1, (40, 2)) @ J.T + tri[0]
        # J = h I: the scaled monomials ((x - x0)/h)^j ((y - y0)/h)^l
        self.h = 0.7
        self.scaled = AffineMonomialBasis(np.array([0.3, -0.2]),
                                          self.h * np.eye(2), 4)
        self.scaled_rng = np.random.default_rng(0)
        self.scaled_pts = self.scaled_rng.uniform(-1, 1, (40, 2))

    def test_lattice_vandermonde_matches_reference_triangle(self):
        """The conditioning motivation: the Vandermonde at the element's
        uniform lattice equals the reference-triangle Vandermonde."""
        k = self.basis.degree
        lam = np.array(lattice_multi_indices(k), dtype=float)[:, 1:] / k
        phys = lam @ self.basis.jac.T + self.basis.origin
        V = self.basis.values(phys)
        e = self.basis.exponents
        Vref = lam[:, 0:1] ** e[:, 0] * lam[:, 1:2] ** e[:, 1]
        assert np.allclose(V, Vref, atol=1e-13)

    def test_gradients_match_finite_differences(self):
        c = self.rng.normal(size=self.basis.dim)
        grads = np.einsum("qad,a->qd", self.basis.gradients(self.pts), c)
        fd = fd_gradient(lambda p: self.basis.values(p) @ c, self.pts)
        assert np.allclose(grads, fd, atol=1e-6)

    def test_laplacian_map_matches_finite_differences(self):
        c = self.rng.normal(size=self.basis.dim)
        lap_c = self.basis.laplacian_map().T @ c
        lap = self.basis.lowered().values(self.pts) @ lap_c
        fd = fd_laplacian(lambda p: self.basis.values(p) @ c, self.pts)
        assert np.allclose(lap, fd, rtol=1e-4, atol=1e-4)

    def test_scaled_identity_values_match_direct_formula(self):
        b, pts = self.scaled, self.scaled_pts
        q = (pts - b.origin) / self.h
        for a, (j, l) in enumerate(b.exponents):
            assert np.allclose(b.values(pts)[:, a],
                               q[:, 0] ** j * q[:, 1] ** l)

    def test_scaled_identity_gradients_match_finite_differences(self):
        b, pts = self.scaled, self.scaled_pts
        c = self.scaled_rng.normal(size=b.dim)
        grads = np.einsum("qad,a->qd", b.gradients(pts), c)
        fd = fd_gradient(lambda p: b.values(p) @ c, pts)
        assert np.allclose(grads, fd, atol=1e-7)

    def test_scaled_identity_laplacian_map_matches_finite_differences(self):
        b, pts = self.scaled, self.scaled_pts
        c = self.scaled_rng.normal(size=b.dim)
        lap = b.lowered().values(pts) @ (b.laplacian_map().T @ c)
        fd = fd_laplacian(lambda p: b.values(p) @ c, pts)
        assert np.allclose(lap, fd, atol=1e-5)

    def test_lowered_keeps_origin_and_jacobian(self):
        low = self.scaled.lowered()
        assert low.degree == 2
        assert low.origin is self.scaled.origin
        assert low.jac is self.scaled.jac

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 10 ** 6))
    def test_polynomial_identity_random_triangles(self, degree, seed):
        rng = np.random.default_rng(seed)
        tri = rng.uniform(-1, 1, (3, 2))
        d1, d2 = tri[1] - tri[0], tri[2] - tri[0]
        if abs(d1[0] * d2[1] - d1[1] * d2[0]) < 0.05:
            return
        J = np.column_stack([d1, d2])
        basis = AffineMonomialBasis(tri[0], J, degree)
        # constant and linear members reproduce 1, lambda_1, lambda_2
        pts = rng.uniform(-1, 1, (10, 2))
        lam = np.linalg.solve(J, (pts - tri[0]).T).T
        V = basis.values(pts)
        assert np.allclose(V[:, 0], 1.0)
        assert np.allclose(V[:, 1], lam[:, 0])
        assert np.allclose(V[:, 2], lam[:, 1])


class TestHarmonicBasis:
    def setup_method(self):
        self.rng = np.random.default_rng(2)
        self.basis = HarmonicBasis(np.array([0.2, 0.1]), 1.3, (3, 4, 5))
        self.pts = self.rng.uniform(-1, 1, (30, 2))

    def test_dimension_two_per_degree(self):
        assert self.basis.dim == 6

    def test_members_are_harmonic(self):
        c = self.rng.normal(size=self.basis.dim)
        lap = fd_laplacian(lambda p: self.basis.values(p) @ c, self.pts)
        assert np.allclose(lap, 0.0, atol=1e-5)

    def test_gradients_match_finite_differences(self):
        c = self.rng.normal(size=self.basis.dim)
        grads = np.einsum("qad,a->qd", self.basis.gradients(self.pts), c)
        fd = fd_gradient(lambda p: self.basis.values(p) @ c, self.pts)
        assert np.allclose(grads, fd, atol=1e-7)

    def test_empty_basis(self):
        # the classic element's: no columns, at any number of points
        empty = HarmonicBasis(np.array([0.2, 0.1]), 1.3, ())
        assert empty.dim == 0
        assert empty.values(self.pts).shape == (len(self.pts), 0)
        assert empty.gradients(self.pts).shape == (len(self.pts), 0, 2)

    def test_check_settings_sorts_and_dedups(self):
        # the raising cases are rows of test_experiments'
        # test_library_and_validate_give_the_same_message
        assert check_settings("enriched", 2, (4, 3, 4)) == (3, 4)
