"""Manufactured solutions with homogeneous Dirichlet data on the unit
square."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ManufacturedSolution:
    name: str
    u: callable
    lap_u: callable
    lap_f: callable = None       # Laplacian of f = -lap_u (load rule "vem")

    def f(self, x, y):
        return -self.lap_u(x, y)


def _sin_sin():
    pi = np.pi

    def u(x, y):
        return np.sin(pi * x) * np.sin(pi * y)

    def lap_u(x, y):
        return -2.0 * pi ** 2 * np.sin(pi * x) * np.sin(pi * y)

    def lap_f(x, y):
        return -4.0 * pi ** 4 * np.sin(pi * x) * np.sin(pi * y)

    return ManufacturedSolution("sinsin", u, lap_u, lap_f)


def _bubble_poly():
    # x(1-x)y(1-y): polynomial case, reproduced exactly for k >= 4
    def u(x, y):
        return x * (1 - x) * y * (1 - y)

    def lap_u(x, y):
        return -2.0 * y * (1 - y) - 2.0 * x * (1 - x)

    def lap_f(x, y):
        return np.full(np.broadcast(x, y).shape, -8.0)

    return ManufacturedSolution("bubble4", u, lap_u, lap_f)


_REGISTRY = {s.name: s for s in (_sin_sin(), _bubble_poly())}
SOLUTIONS = tuple(_REGISTRY)


def get_solution(name):
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown manufactured solution {name!r}; "
                       f"available: {sorted(_REGISTRY)}") from None
