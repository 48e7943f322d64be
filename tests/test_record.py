"""The record contract that the package's immutable value classes keep.

Each class below is built by ``quartic_cones.record.record``: construction
by position and by keyword, ``__post_init__`` validation, assignment and
deletion that raise AttributeError, and field-wise ``==``, ``hash`` and
``repr``.
"""

import pytest

from quartic_cones import cone, covariants, octad, theta


def _star(i):
    return tuple(theta.ThetaChar.from_pair(i, k) for k in range(1, 9) if k != i)


# (class, field values, other field values, (bad field values, error) or None).
# Classes that validate nothing take placeholder values: a record does not
# check the types of its fields.
VALIDATED = [
    (cone.PluckerCounts, (28, 0, 24), (27, 1, 22), ((1, 2, 3), cone.InfeasibleCounts)),
    (theta.AronholdSystem, (_star(8),), (_star(1),),
     ((_star(8)[:6] + _star(8)[:1],), theta.ThetaError)),
]
UNVALIDATED = [
    covariants.LineRestriction, covariants.CovariantPair, covariants.DualCurve,
    cone.S4FamilyData, octad.HessianQuartic, octad.AronholdReport, octad.PencilFiber,
    octad.BitangentCertificate, octad.GaleReport, octad.CremonaResult,
]
CASES = VALIDATED + [
    (cls, tuple(f"{name}-1" for name in cls.__annotations__),
     tuple(f"{name}-2" for name in cls.__annotations__), None)
    for cls in UNVALIDATED
]


@pytest.mark.parametrize("cls, values, other, bad", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_record_contract(cls, values, other, bad):
    names = tuple(cls.__annotations__)
    a = cls(*values)
    b = cls(**dict(zip(names, values)))
    assert tuple(getattr(a, name) for name in names) == values
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert repr(a).startswith(f"{cls.__name__}({names[0]}=")
    assert a != cls(*other)
    assert a != values
    with pytest.raises(AttributeError):
        setattr(a, names[0], values[0])
    with pytest.raises(AttributeError):
        delattr(a, names[-1])
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})
    if bad is not None:
        bad_values, error = bad
        with pytest.raises(error):
            cls(*bad_values)

