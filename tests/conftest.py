import math

import pytest

from builders import (cylinder_immersion, flat_chart, hyperbolic_chart,
                      identity_map, sphere_chart, sphere_immersion)

EQUATOR_BAND = (math.pi / 2 - 0.6, math.pi / 2 + 0.6)
FD_PATCH_THETA = (math.pi / 2 - 0.2, math.pi / 2 + 0.2)
FD_PATCH_PHI = (0.0, 0.4)


@pytest.fixture(scope="session")
def sphere_jet():
    psi = sphere_immersion(EQUATOR_BAND, (0.0, 1.2), 33)
    return psi, psi.jet()


@pytest.fixture(scope="session")
def sphere_fd_jets():
    """Finite-difference jets of the sphere patch at the grid ladder."""
    jets = {}
    for res in (33, 65, 129):
        psi = sphere_immersion(FD_PATCH_THETA, FD_PATCH_PHI, res, mode="fd")
        jets[res] = (psi, psi.jet())
    return jets


@pytest.fixture(scope="session")
def cylinder_jet():
    psi = cylinder_immersion(resolution=33)
    return psi, psi.jet()


@pytest.fixture(scope="session")
def flat_identity():
    return identity_map(extent=0.26, resolution=29)


def make_flat(lo=-2.0, hi=2.0, res=33, dim=2, scale=1.0, mode="analytic"):
    return flat_chart(lo, hi, res, dim=dim, scale=scale, mode=mode)


def make_sphere(res=33, mode="analytic", theta=(0.7, math.pi - 0.7),
                phi=(0.0, 1.4), rho=1.0):
    return sphere_chart(theta, phi, res, rho=rho, mode=mode)


def make_hyperbolic(res=33, mode="analytic"):
    return hyperbolic_chart(resolution=res, mode=mode)
