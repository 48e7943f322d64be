"""The paper's correspondence as an end-to-end oracle.

A smooth plane quartic's 28 bitangents are the 28 nodes of its sextic
double cone.  The Hessian quartic of an octad's net has 28 rational
bitangents, certified in octad.py by pairs of octad points; each one,
read as a dual point, must lift through cone.py to a certified node, and
the 28 nodes must be distinct.  This joins the octad linear algebra to
the covariant pipeline, so neither side can break silently.
"""

import itertools

import pytest

from quartic_cones.cone import NotDualSingular, classify_and_lift, cone_equation, node_certificate
from quartic_cones.covariants import QuarticCurve, covariants
from quartic_cones.octad import all_bitangents, hessian_quartic


@pytest.fixture(scope="module")
def hessian_pair(standard_net):
    hess = hessian_quartic(standard_net)
    assert hess.smooth
    return covariants(QuarticCurve(hess.quartic))


def test_bitangents_lift_to_28_distinct_nodes(standard_net, standard_octad, hessian_pair):
    cone = cone_equation(hessian_pair)
    lifts = []
    for cert in all_bitangents(standard_octad, standard_net):
        lift = classify_and_lift(hessian_pair, cert.line)
        assert node_certificate(cone, lift)
        lifts.append(lift)
    assert len(lifts) == 28
    assert all(a != b for a, b in itertools.combinations(lifts, 2))


def test_non_bitangent_dual_point_is_rejected(standard_net, standard_octad, hessian_pair):
    point = (1, 2, 3)
    assert all(cert.line != point for cert in all_bitangents(standard_octad, standard_net))
    with pytest.raises(NotDualSingular):
        classify_and_lift(hessian_pair, point)
