"""Quadrature on triangles (collapsed Gauss / Duffy) and on edges."""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .mesh import signed_areas

MAX_DEGREE = 30


class QuadratureError(ValueError):
    pass


@dataclass(frozen=True)
class TriangleQuadRule:
    """Rule on the reference triangle in barycentric form.

    Weights are normalized to sum to 1; multiply by the physical triangle
    area when integrating.
    """

    degree: int
    points: np.ndarray    # (n, 3) barycentric
    weights: np.ndarray   # (n,)

    def physical(self, coords):
        """Map to a physical triangle given its 3x2 vertex array."""
        coords = np.asarray(coords, dtype=float)
        return self.points @ coords, self.weights * abs(signed_areas(coords))

    def integrate(self, f, coords):
        pts, w = self.physical(coords)
        return float(np.dot(w, f(pts[:, 0], pts[:, 1])))


@dataclass(frozen=True)
class EdgeQuadRule:
    """Gauss rule on [0, 1]; weights sum to 1."""

    degree: int
    points: np.ndarray
    weights: np.ndarray

    def integrate(self, f):
        return float(np.dot(self.weights, f(self.points)))


@lru_cache(maxsize=None)
def quad_rule_edge(degree):
    if not 0 <= degree <= 2 * MAX_DEGREE:
        raise QuadratureError(f"unsupported edge quadrature degree {degree}")
    n = degree // 2 + 1
    x, w = np.polynomial.legendre.leggauss(n)
    return EdgeQuadRule(degree, 0.5 * (x + 1.0), 0.5 * w)


@lru_cache(maxsize=None)
def quad_rule_triangle(degree):
    """Duffy-collapsed tensor Gauss rule exact to `degree`."""
    if not 0 <= degree <= MAX_DEGREE:
        raise QuadratureError(f"unsupported triangle quadrature degree {degree}")
    n = (degree + 2 + 1) // 2  # ceil((degree+2)/2): the Duffy factor adds one
    gx, gw = np.polynomial.legendre.leggauss(n)
    u = 0.5 * (gx + 1.0)
    wu = 0.5 * gw
    # x = u, y = v (1 - u); dx dy = (1 - u) du dv on the unit triangle
    uu, vv = np.meshgrid(u, u, indexing="ij")
    x = uu.ravel()
    y = (vv * (1.0 - uu)).ravel()
    w = (np.outer(wu * (1.0 - u), wu)).ravel()
    bary = np.column_stack([1.0 - x - y, x, y])
    weights = w / 0.5  # normalize: reference area is 1/2
    return TriangleQuadRule(degree, bary, weights)
