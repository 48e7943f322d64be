"""The paper's correspondence as an end-to-end oracle.

A smooth plane quartic's 28 bitangents are the 28 nodes of its sextic
double cone.  The Hessian quartic of an octad's net has 28 rational
bitangents, certified in octad.py by pairs of octad points; each one,
read as a dual point, must lift through cone.py to a certified node, and
the 28 nodes must be distinct.  This joins the octad linear algebra to
the covariant pipeline, so neither side can break silently.
"""

import itertools
import random

import pytest

from quartic_cones.cone import NotDualSingular, classify_and_lift, cone_equation, node_certificate
from quartic_cones.covariants import QuarticCurve, covariants
from quartic_cones.octad import all_bitangents, eighth_point, hessian_quartic, net_from_heptad


@pytest.fixture(scope="module")
def hessian_pair(standard_net):
    hess = hessian_quartic(standard_net)
    assert hess.smooth
    return covariants(QuarticCurve(hess.quartic))


def assert_bitangents_lift_to_28_distinct_nodes(octad, net, pair):
    cone = cone_equation(pair)
    lifts = []
    for cert in all_bitangents(octad, net):
        lift = classify_and_lift(pair, cert.line)
        assert node_certificate(cone, lift)
        lifts.append(lift)
    assert len(lifts) == 28
    assert all(a != b for a, b in itertools.combinations(lifts, 2))


def test_bitangents_lift_to_28_distinct_nodes(standard_net, standard_octad, hessian_pair):
    assert_bitangents_lift_to_28_distinct_nodes(standard_octad, standard_net, hessian_pair)


def test_random_heptad_bitangents_lift_to_28_distinct_nodes():
    # seven seeded points with nonzero coordinates in [-9, 9]: an Aronhold
    # heptad whose octad coordinates run to 18 digits
    rng = random.Random(1)
    heptad = [tuple(rng.choice([c for c in range(-9, 10) if c]) for _ in range(4))
              for _ in range(7)]
    net = net_from_heptad(heptad)
    octad = eighth_point(net)
    hess = hessian_quartic(net)
    assert hess.smooth
    assert_bitangents_lift_to_28_distinct_nodes(octad, net, covariants(QuarticCurve(hess.quartic)))


def test_non_bitangent_dual_point_is_rejected(standard_net, standard_octad, hessian_pair):
    point = (1, 2, 3)
    assert all(cert.line != point for cert in all_bitangents(standard_octad, standard_net))
    with pytest.raises(NotDualSingular):
        classify_and_lift(hessian_pair, point)
