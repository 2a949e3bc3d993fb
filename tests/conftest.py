import numpy as np
import pytest

from rksv.mesh import BoundaryCondition, SubdivisionRule, uniform_mesh
from rksv.sv_space import BandedOperator, SvState, workspace


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_coeffs(rng, mesh):
    return rng.uniform(-1.0, 1.0, size=(mesh.n_elements, mesh.k + 1))


def periodic_mesh(n, rule, k):
    return uniform_mesh(0.0, 2.0 * np.pi, n, rule, k, BoundaryCondition.PERIODIC)


def state_from_coeffs(mesh, coeffs):
    """SvState whose CV integrals are the exact integrals of the given polynomial."""
    mass = workspace(mesh).table("mass")
    values = 0.5 * mesh.lengths[:, None] * np.einsum("ijm,im->ij", mass, coeffs)
    return SvState(mesh, values, 0.0)


BOTH_RULES = (SubdivisionRule.LSV, SubdivisionRule.RRSV)


def pair_parts(band):
    """(hi, lo) of a (hi, lo) pair band (blocks of 2(k+1) rows), each a float64
    band on the pair's offsets."""
    k1 = band._grid.shape[3]
    return tuple(BandedOperator(np.broadcast_to(g, (len(band.blocks),) + g.shape[1:]),
                                band.offsets, negligible=-1.0)
                 for g in (band._grid[:, :k1], band._grid[:, k1:]))
