import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from rksv.mesh import (BoundaryCondition, SubdivisionRule, perturbed_mesh, reference_nodes,
                       splitmix64_stream, uniform_mesh)


def test_uniform_lsv_k1_splits_at_centers():
    mesh = uniform_mesh(0.0, 2.0 * np.pi, 4, SubdivisionRule.LSV, 1,
                        BoundaryCondition.PERIODIC)
    assert np.allclose(mesh.lengths, np.pi / 2.0)
    assert np.allclose(mesh.cv_bounds[:, 1], mesh.centers)


def test_derived_geometry_is_computed_once_and_read_only():
    mesh = perturbed_mesh(8, 3, SubdivisionRule.RRSV, 2, BoundaryCondition.PERIODIC)
    expected = {"lengths": np.diff(mesh.boundaries),
                "centers": 0.5 * (mesh.boundaries[:-1] + mesh.boundaries[1:]),
                "cv_widths": np.diff(mesh.cv_bounds, axis=1)}
    for name, value in expected.items():
        got = getattr(mesh, name)
        assert got is getattr(mesh, name) and np.array_equal(got, value)
        with pytest.raises(ValueError):
            got[0] = 1.0


@pytest.mark.parametrize("a, b, n", [(0.0, 2.0 * np.pi, 128), (-1.0, 3.0, 7), (0.1, 0.7, 33)])
@pytest.mark.parametrize("rule", list(SubdivisionRule))
def test_uniform_lengths_are_exact(a, b, n, rule):
    # every element has the length (b-a)/N bit for bit, so the operator rows of
    # a constant coefficient are identical; np.diff of the rounded boundaries
    # differs from it by rounding, within 4 ulp of the boundaries themselves
    mesh = uniform_mesh(a, b, n, rule, 3, BoundaryCondition.PERIODIC, alpha=np.cos)
    assert np.all(mesh.lengths == (b - a) / n)
    ulp = np.spacing(np.maximum(np.abs(mesh.boundaries[:-1]), np.abs(mesh.boundaries[1:])))
    assert np.all(np.abs(mesh.lengths - np.diff(mesh.boundaries)) <= 4.0 * ulp)
    assert np.max(np.abs(mesh.cv_widths.sum(axis=1) - mesh.lengths)) < 1e-14


def test_uniform_rrsv_k1_interior_point():
    mesh = uniform_mesh(0.0, 1.0, 2, SubdivisionRule.RRSV, 1,
                        BoundaryCondition.INFLOW_ZERO)
    local = (mesh.cv_bounds[:, 1] - mesh.centers) * 2.0 / mesh.lengths
    assert np.allclose(local, -1.0 / 3.0, atol=1e-15)


def test_uniform_rrsv_k2_interior_points():
    mesh = uniform_mesh(0.0, 1.0, 2, SubdivisionRule.RRSV, 2, BoundaryCondition.PERIODIC)
    local = (mesh.cv_bounds[:, 1:3] - mesh.centers[:, None]) * 2.0 / mesh.lengths[:, None]
    r6 = math.sqrt(6.0)
    assert np.allclose(local, [(-1.0 - r6) / 5.0, (-1.0 + r6) / 5.0], atol=1e-14)


def test_uniform_rejects_bad_input():
    with pytest.raises(ValueError):
        uniform_mesh(0.0, 1.0, 1, SubdivisionRule.LSV, 1, BoundaryCondition.PERIODIC)
    with pytest.raises(ValueError):
        uniform_mesh(1.0, 0.0, 4, SubdivisionRule.LSV, 1, BoundaryCondition.PERIODIC)
    with pytest.raises(ValueError):
        uniform_mesh(0.0, 1.0, 4, SubdivisionRule.LSV, 0, BoundaryCondition.PERIODIC)


@pytest.mark.parametrize("a, b", ((0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan),
                                  (math.nan, 1.0)))
def test_uniform_rejects_non_finite_endpoints(a, b):
    # an infinite domain would leave NaN CV bounds, which no '<= 0' check sees
    with pytest.raises(ValueError, match=re.escape(f"need finite a < b, got [{a}, {b}]")):
        uniform_mesh(a, b, 4, SubdivisionRule.LSV, 1, BoundaryCondition.PERIODIC)


def test_mesh_rejects_non_finite_geometry():
    # the checks hold for a mesh from any builder, and a NaN fails them
    mesh = uniform_mesh(0.0, 1.0, 4, SubdivisionRule.LSV, 1, BoundaryCondition.PERIODIC)
    for field, value in (("boundaries", np.array([0.0, 0.25, 0.5, 0.75, math.inf])),
                         ("lengths", np.full(4, math.nan)),
                         ("cv_bounds", np.full((4, 3), math.nan))):
        with pytest.raises(ValueError, match="strictly increasing"):
            dataclasses.replace(mesh, **{field: value})


@pytest.mark.parametrize("rule,k", list(itertools.product(
    (SubdivisionRule.LSV, SubdivisionRule.RRSV), (1, 2, 3, 4))))
def test_cvs_tile_each_element(rule, k):
    mesh = uniform_mesh(-1.0, 3.0, 7, rule, k, BoundaryCondition.PERIODIC)
    assert np.max(np.abs(mesh.cv_widths.sum(axis=1) - mesh.lengths)) < 1e-14


@pytest.mark.parametrize("rule", (SubdivisionRule.LSV, SubdivisionRule.RRSV))
def test_affine_map_consistency(rule):
    mesh = perturbed_mesh(16, 3, rule, 3, BoundaryCondition.PERIODIC)
    ref = reference_nodes(rule, 3)
    for i in (0, 5, 15):
        y = (mesh.cv_bounds[i] - mesh.centers[i]) * (2 / mesh.lengths[i])
        assert np.max(np.abs(y - ref)) < 1e-14


def test_k_range_checked_for_every_rule():
    for rule in SubdivisionRule:
        for k in (0, 13):
            with pytest.raises(ValueError, match=f"k must be in 1..12, got {k}"):
                reference_nodes(rule, k)


def test_left_oriented_rsv_nodes_are_mirrored():
    right = reference_nodes(SubdivisionRule.RSV_ADAPTIVE, 4)
    assert np.array_equal(right, reference_nodes(SubdivisionRule.RRSV, 4))
    assert np.array_equal(reference_nodes(SubdivisionRule.RSV_ADAPTIVE, 4, True), -right[::-1])
    for rule in (SubdivisionRule.LSV, SubdivisionRule.RRSV):
        assert np.array_equal(reference_nodes(rule, 4, True), reference_nodes(rule, 4))
    assert right[0] == -1.0 and right[-1] == 1.0 and not right.flags.writeable


def test_perturbed_endpoints_exact_and_deterministic():
    a = perturbed_mesh(32, 1, SubdivisionRule.LSV, 1, BoundaryCondition.PERIODIC)
    b = perturbed_mesh(32, 1, SubdivisionRule.LSV, 1, BoundaryCondition.PERIODIC)
    assert a.boundaries[0] == 0.0 and a.boundaries[-1] == 2.0 * np.pi
    assert np.array_equal(a.boundaries, b.boundaries)
    assert np.array_equal(a.cv_bounds, b.cv_bounds)
    c = perturbed_mesh(32, 2, SubdivisionRule.LSV, 1, BoundaryCondition.PERIODIC)
    assert not np.array_equal(a.boundaries, c.boundaries)


def test_perturbed_amplitude_bound():
    n = 32
    mesh = perturbed_mesh(n, 1, SubdivisionRule.LSV, 1, BoundaryCondition.PERIODIC)
    drift = mesh.boundaries - 2.0 * np.pi * np.arange(n + 1) / n
    assert np.max(np.abs(drift)) <= 1.0 / (100.0 * n)
    assert np.all(np.diff(mesh.boundaries) > 0)


def test_perturbed_rejects_small_n():
    with pytest.raises(ValueError):
        perturbed_mesh(3, 1, SubdivisionRule.LSV, 1, BoundaryCondition.PERIODIC)


def test_rsv_adaptive_orientation_follows_sign_of_alpha():
    mesh = uniform_mesh(0.0, 2.0 * np.pi, 16, SubdivisionRule.RSV_ADAPTIVE, 2,
                        BoundaryCondition.PERIODIC, alpha=np.sin)
    inside_pos = (mesh.boundaries[:-1] > 0) & (mesh.boundaries[1:] < np.pi)
    inside_neg = (mesh.boundaries[:-1] > np.pi) & (mesh.boundaries[1:] < 2.0 * np.pi)
    assert not mesh.left_oriented[inside_pos].any()
    assert mesh.left_oriented[inside_neg].all()
    # left-oriented elements use the mirrored Radau points
    left = np.nonzero(mesh.left_oriented)[0][0]
    right = np.nonzero(~mesh.left_oriented)[0][0]
    y_left, y_right = ((mesh.cv_bounds[i] - mesh.centers[i]) * (2 / mesh.lengths[i])
                       for i in (left, right))
    assert np.allclose(y_left, -y_right[::-1])


def test_rsv_adaptive_sign_change_falls_back_to_right():
    # boundary exactly at pi: the downward crossing lands inside one element
    mesh = uniform_mesh(0.5, 2.0 * np.pi - 0.5, 5, SubdivisionRule.RSV_ADAPTIVE, 1,
                        BoundaryCondition.INFLOW_ZERO, alpha=np.sin)
    a = np.sin(mesh.boundaries)
    straddle = (a[:-1] > 0) & (a[1:] < 0)
    assert straddle.any()
    assert not mesh.left_oriented[straddle].any()


def test_rsv_adaptive_requires_alpha():
    with pytest.raises(ValueError):
        uniform_mesh(0.0, 1.0, 4, SubdivisionRule.RSV_ADAPTIVE, 1,
                     BoundaryCondition.PERIODIC)


def test_splitmix64_range_and_determinism():
    s1 = splitmix64_stream(42)
    s2 = splitmix64_stream(42)
    vals = [next(s1) for _ in range(1000)]
    assert vals == [next(s2) for _ in range(1000)]
    assert all(0.0 < v < 1.0 for v in vals)


def test_regularity_ratio_reported():
    mesh = perturbed_mesh(16, 5, SubdivisionRule.RRSV, 2, BoundaryCondition.PERIODIC)
    assert mesh.regularity_ratio >= 1.0
    assert mesh.regularity_ratio < 1.1
