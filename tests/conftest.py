import random

import pytest
from hypothesis import settings

from quartic_cones import octad as octad_mod
from quartic_cones.polyio import parse_poly

# Tier-1 draws the same Hypothesis examples on every run and keeps no
# example database, so a tree's verdict depends only on the tree.  The
# opt-in "explore" profile draws fresh examples
# (pytest --hypothesis-profile=explore, and --hypothesis-seed=N to replay
# a run); pin what it finds as an @example.
settings.register_profile("repeatable", derandomize=True, database=None)
settings.register_profile("explore", database=None)


def pytest_configure(config):
    if not config.getoption("--hypothesis-profile"):
        settings.load_profile("repeatable")

# Coordinate simplex plus three generic points; every test that needs an
# Aronhold heptad uses this one.
STANDARD_HEPTAD = [
    (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
    (1, 1, 1, 1), (1, 2, 3, 4), (1, 4, 9, 25),
]
SIMPLEX = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
TWISTED_CUBIC = [(1, t, t * t, t * t * t) for t in range(7)]
COPLANAR = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 0),
            (1, 1, 1, 1), (1, 2, 3, 4), (1, 4, 9, 25)]
# Heptads 1, 2 and 4 of perfbench's octad-pipeline stream at seed 1.
# Heptad 4's net has dimension 3, but points 2, 4, 5, 6 are coplanar: it
# is not Aronhold.
SEED1_HEPTADS = {
    1: [(-3, -2, -3, 9), (-8, 7, 5, 3), (4, -3, -8, -6), (-9, 7, 7, -8),
        (-3, -5, 9, -5), (-4, -6, 7, 9), (-3, -7, -5, -2)],
    2: SIMPLEX + [(4, -2, -4, -6), (-1, 4, -3, 1), (-7, 1, -8, 5)],
    4: SIMPLEX + [(-2, 4, -3, -1), (4, -6, 6, -3), (4, 6, 2, 5)],
}


def P(text, names="x y z s t u"):
    return parse_poly(text, names.split())


@pytest.fixture(scope="session")
def standard_net():
    return octad_mod.net_from_heptad(STANDARD_HEPTAD)


@pytest.fixture(scope="session")
def standard_octad(standard_net):
    return octad_mod.eighth_point(standard_net, rng=random.Random(0))
