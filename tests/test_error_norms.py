"""The error norms of pipeline.Field: the per-class triangular factors
against the quadrature-point sum, the constants they must measure without
cancellation, the fields they must refuse to compare, and the reference
field's cost at k = 1."""

import dataclasses

import numpy as np
import pytest

from conftest import element_classes, quadrature_error_norms

from hctvem import pipeline
from hctvem.classic_vem import solve_classic_vem, solve_enriched_vem
from hctvem.mesh import generate_mesh
from hctvem.problems import get_solution
from hctvem.sf_vem import solve_sf_vem

PROBLEM = get_solution("sinsin")
MESHES = [("uniform", 4), ("irregular8", 3)]


def solve(method, k, mesh):
    if method == "sf-hct":
        return solve_sf_vem(mesh, k, PROBLEM)
    if method == "classic":
        return solve_classic_vem(mesh, k, PROBLEM)
    return solve_enriched_vem(mesh, k, PROBLEM, harmonic_degrees=(k + 1,))


CASES = ([("sf-hct", k) for k in range(1, 7)]
         + [("classic", k) for k in range(1, 5)] + [("enriched", 2)])


@pytest.mark.parametrize("family, level", MESHES)
@pytest.mark.parametrize("method, k", CASES)
def test_factors_match_long_double_quadrature_sum(method, k, family, level):
    sol = solve(method, k, generate_mesh(family, level))
    uh, ref = sol.solution_field(), sol.reference_field(PROBLEM)
    got = uh.error_norms(ref)
    want = quadrature_error_norms(uh, ref)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("k", range(1, 7))
def test_constant_measured_without_cancellation(k):
    # The constants are the kernel of the H1 Gram, so d^T S d of a
    # constant cancels to 2e-7..5e-6 |c| here.  The factors must add no
    # more than 1e-14 |c| to what the projected constant itself has:
    # |Pi c|_H1 is round-off of Pi, from about 1e-14 |c| at k = 1 to 3e-11 |c|
    # at k = 6 on this mesh, and so is ||Pi c||_L2 - |c| (the unit square).
    c = -2.75
    mesh = generate_mesh("irregular8", 3)
    classes = element_classes("sf-hct", mesh, k)
    const, zero = [], []
    for ec, idx in classes:
        d = np.zeros((len(idx), ec.ndof))
        d[:, :ec.n_boundary] = c        # -Delta c = 0: interior DOFs 0
        const.append((ec, idx, d))
        zero.append((ec, idx, np.zeros_like(d)))
    field = pipeline.Field(mesh, k, const)
    none = pipeline.Field(mesh, k, zero)
    l2, h1 = field.error_norms(none)
    want_l2, want_h1 = quadrature_error_norms(field, none)
    assert abs(l2 - want_l2) <= 1e-14 * abs(c)
    assert abs(h1 - want_h1) <= 1e-14 * abs(c)


@pytest.mark.parametrize("k", [1, 2])
def test_fields_of_different_methods_rejected(k):
    # at k = 1 and 2 sf-hct and classic have the same local DOF count, so
    # nothing but the element classes tells their DOF batches apart
    mesh = generate_mesh("uniform", 3)
    sf = solve_sf_vem(mesh, k, PROBLEM)
    classic = solve_classic_vem(mesh, k, PROBLEM)
    with pytest.raises(ValueError, match="element classes"):
        sf.solution_field().error_norms(classic.reference_field(PROBLEM))
    with pytest.raises(ValueError, match="element classes"):
        classic.solution_field().error_norms(sf.reference_field(PROBLEM))


def test_unequal_part_counts_rejected():
    sol = solve_sf_vem(generate_mesh("irregular8", 2), 2, PROBLEM)
    uh, ref = sol.solution_field(), sol.reference_field(PROBLEM)
    assert len(ref.parts) > 1
    ref.parts.pop()
    with pytest.raises(ValueError):
        uh.error_norms(ref)
    with pytest.raises(ValueError):
        ref.error_norms(uh)


@pytest.mark.parametrize("method", ["sf-hct", "classic", "enriched"])
def test_degree_one_samples_no_laplacian(method):
    # with no interior DOFs dof_values calls no interior_dofs: sf-hct's
    # would sample -Delta g at every volume quadrature point, which took
    # the uniform k = 1 study of levels 2..9 from 0.9 to 1.7 s and from
    # 208 to 294 MB peak memory (2 vCPUs)
    calls = []

    def lap_u(x, y):
        calls.append(np.size(x))
        return PROBLEM.lap_u(x, y)

    counted = dataclasses.replace(PROBLEM, lap_u=lap_u)
    mesh = generate_mesh("irregular8", 3)
    v0 = mesh.vertices[mesh.triangles[:, 0]]
    sol = solve(method, 1, mesh)
    sol.reference_field(counted)
    for ec, idx in sol.classes:
        ec.dof_values(PROBLEM.u, lap_u, v0[idx])
    assert calls == []
    if method == "sf-hct":
        # the count sees the calls there are at k = 2
        solve(method, 2, mesh).reference_field(counted)
        assert calls
