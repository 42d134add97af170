from math import factorial

import numpy as np
import pytest

from hctvem.quadrature import (MAX_DEGREE, QuadratureError, quad_rule_edge,
                               quad_rule_triangle)


def monomial_integral_reference(a, b):
    """Exact integral of x^a y^b over the reference triangle."""
    return factorial(a) * factorial(b) / factorial(a + b + 2)


class TestTriangleRule:
    @pytest.mark.parametrize("degree", [0, 1, 2, 5, 10, 18, MAX_DEGREE])
    def test_monomials_integrated_exactly(self, degree):
        rule = quad_rule_triangle(degree)
        ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        pts, w = rule.physical(ref)
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                got = float(w @ (pts[:, 0] ** a * pts[:, 1] ** b))
                assert got == pytest.approx(
                    monomial_integral_reference(a, b), rel=1e-13, abs=1e-16)

    def test_weights_normalized_and_positive(self):
        rule = quad_rule_triangle(7)
        assert rule.weights.sum() == pytest.approx(1.0, rel=1e-14)
        assert np.all(rule.weights > 0)
        assert np.allclose(rule.points.sum(axis=1), 1.0)

    def test_physical_mapping_scales_by_area(self):
        rule = quad_rule_triangle(4)
        tri = np.array([[1.0, 1.0], [3.0, 1.5], [1.5, 4.0]])
        pts, w = rule.physical(tri)
        d1, d2 = tri[1] - tri[0], tri[2] - tri[0]
        area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
        assert w.sum() == pytest.approx(area, rel=1e-14)
        # affine function integrates to area * value at the barycenter
        bc = tri.mean(axis=0)
        got = rule.integrate(lambda x, y: 2.0 * x - y + 1.0, tri)
        assert got == pytest.approx(area * (2 * bc[0] - bc[1] + 1), rel=1e-13)

    @pytest.mark.parametrize("e", [-12, -3, 4])
    def test_physical_weights_scale_exactly(self, e):
        # the area is the cross product, which scales by exactly 2^(2e)
        rule = quad_rule_triangle(8)
        rng = np.random.default_rng(7)
        for tri in rng.uniform(-1.0, 1.0, (50, 3, 2)):
            _, w = rule.physical(tri)
            _, got = rule.physical(np.ldexp(tri, e))
            assert got.tobytes() == np.ldexp(w, 2 * e).tobytes()

    def test_bad_degree_rejected(self):
        with pytest.raises(QuadratureError):
            quad_rule_triangle(-1)
        with pytest.raises(QuadratureError):
            quad_rule_triangle(MAX_DEGREE + 1)


class TestEdgeRule:
    @pytest.mark.parametrize("degree", [0, 1, 3, 8, 15])
    def test_powers_integrated_exactly(self, degree):
        rule = quad_rule_edge(degree)
        for p in range(degree + 1):
            assert rule.integrate(lambda t: t ** p) == pytest.approx(
                1.0 / (p + 1), rel=1e-14)

    def test_points_inside_unit_interval(self):
        rule = quad_rule_edge(9)
        assert np.all((rule.points > 0) & (rule.points < 1))
        assert rule.weights.sum() == pytest.approx(1.0, rel=1e-14)

    def test_bad_degree_rejected(self):
        with pytest.raises(QuadratureError):
            quad_rule_edge(-2)
