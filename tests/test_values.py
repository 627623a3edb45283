"""Value semantics of the library's immutable value types."""

import copy
import pickle

import pytest

from spgroth.coxeter import FpfInvolution, Permutation, ShiftedFpfInvolution
from spgroth.grothendieck import Expansion, RecurrenceCheck, TransitionCheck
from spgroth.polyring import BetaInt, MultiPoly
from spgroth.stable import GPRecurrenceCertificate, Window

Z = FpfInvolution(oneline=(4, 3, 2, 1))
SHIFTED = ShiftedFpfInvolution(Z, offset=2)

# (value built by keyword, its field names and values in order, pinned repr)
CASES = [
    (Permutation(oneline=(2, 1)), {"oneline": (2, 1)}, "Permutation(21)"),
    (Z, {"oneline": (4, 3, 2, 1)}, "FpfInvolution(4321)"),
    (SHIFTED, {"base": Z, "offset": 2},
     "ShiftedFpfInvolution(FpfInvolution(4321), offset=2)"),
    (BetaInt(coeffs=(1, 2)), {"coeffs": (1, 2)}, "BetaInt([1,2])"),
    (Expansion(terms=((Permutation((2, 1)), BetaInt((1,))),)),
     {"terms": ((Permutation((2, 1)), BetaInt((1,))),)},
     "Expansion(terms=((Permutation(21), BetaInt([1])),))"),
    (TransitionCheck(lhs=1, rhs=2, equal=True),
     {"lhs": 1, "rhs": 2, "equal": True, "signed_equal": None},
     "TransitionCheck(lhs=1, rhs=2, equal=True, signed_equal=None)"),
    (RecurrenceCheck(z=Z, v=FpfInvolution((3, 4, 1, 2)), j=1, k=3, l=4, i_list=(2,),
                     certified=True, lhs=1, rhs=1),
     {"z": Z, "v": FpfInvolution((3, 4, 1, 2)), "j": 1, "k": 3, "l": 4, "i_list": (2,),
      "certified": True, "lhs": 1, "rhs": 1},
     "RecurrenceCheck(z=FpfInvolution(4321), v=FpfInvolution(3412), j=1, k=3, l=4, "
     "i_list=(2,), certified=True, lhs=1, rhs=1)"),
    (Window(nvars=4, maxdeg=6), {"nvars": 4, "maxdeg": 6}, "Window(nvars=4, maxdeg=6)"),
    (GPRecurrenceCertificate(z=SHIFTED, v=SHIFTED, j=-1, k=1, l=2, i_list=(),
                             terms=((SHIFTED, BetaInt((1,))),), verified=False),
     {"z": SHIFTED, "v": SHIFTED, "j": -1, "k": 1, "l": 2, "i_list": (),
      "terms": ((SHIFTED, BetaInt((1,))),), "verified": False},
     "GPRecurrenceCertificate(z=ShiftedFpfInvolution(FpfInvolution(4321), offset=2), "
     "v=ShiftedFpfInvolution(FpfInvolution(4321), offset=2), j=-1, k=1, l=2, i_list=(), "
     "terms=((ShiftedFpfInvolution(FpfInvolution(4321), offset=2), BetaInt([1])),), "
     "verified=False)"),
]
IDS = [type(value).__name__ for value, _, _ in CASES]


@pytest.mark.parametrize("value, fields, text", CASES, ids=IDS)
def test_fields_and_repr(value, fields, text):
    assert {name: getattr(value, name) for name in fields} == fields
    assert repr(value) == text


@pytest.mark.parametrize("value, fields, text", CASES, ids=IDS)
def test_hash_is_the_hash_of_the_field_tuple(value, fields, text):
    # so set and dict iteration order follows the fields
    assert hash(value) == hash(tuple(fields.values()))


@pytest.mark.parametrize("value, fields, text", CASES, ids=IDS)
def test_equality_within_the_class(value, fields, text):
    same = type(value)(**fields)
    assert same == value and not same != value
    assert hash(same) == hash(value)
    others = [v for v, _, _ in CASES if type(v) is not type(value)]
    assert all(value != other for other in others)


def test_equal_fields_of_another_class_compare_unequal():
    word = (3, 4, 1, 2)
    assert hash(Permutation(word)) == hash(FpfInvolution(word))
    assert Permutation(word) != FpfInvolution(word)
    assert len({Permutation(word), FpfInvolution(word)}) == 2


@pytest.mark.parametrize("value, fields, text", CASES, ids=IDS)
def test_fields_are_read_only(value, fields, text):
    for name, field in fields.items():
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, field)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
        assert getattr(value, name) == field
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("value, fields, text", CASES, ids=IDS)
def test_copy_deepcopy_and_pickle(value, fields, text):
    for again in (copy.copy(value), copy.deepcopy(value),
                  pickle.loads(pickle.dumps(value))):
        assert type(again) is type(value)
        assert again == value
        assert repr(again) == text


def test_records_holding_polynomials():
    # a polynomial is unhashable, and so is a record that holds one
    x1 = MultiPoly.x(1, 2)
    check = TransitionCheck(x1, x1 + 1, False)
    with pytest.raises(TypeError):
        hash(check)
    for again in (copy.copy(check), copy.deepcopy(check), pickle.loads(pickle.dumps(check))):
        assert again == check
    assert copy.deepcopy(check).lhs is not x1


def test_defaults_and_keywords():
    assert Permutation() == Permutation(()) == Permutation.identity()
    assert repr(Permutation()) == "Permutation(id)"
    assert FpfInvolution() == FpfInvolution.theta_involution()
    assert BetaInt().coeffs == ()
    assert ShiftedFpfInvolution(Z).offset == 0
    assert ShiftedFpfInvolution(base=Z) == ShiftedFpfInvolution(Z, 0)
    assert TransitionCheck(1, 2, False).signed_equal is None
    assert Window(nvars=4, maxdeg=6) == Window(4, 6)


def test_constructors_still_normalize_and_validate():
    assert BetaInt((1, 2, 0, 0)).coeffs == (1, 2)
    assert ShiftedFpfInvolution(FpfInvolution((2, 1, 6, 5, 4, 3)), 4) == SHIFTED
    with pytest.raises(ValueError, match="not canonical"):
        Permutation((2, 1, 3))
    with pytest.raises(ValueError, match="even length"):
        FpfInvolution((2, 1, 3))
    with pytest.raises(ValueError, match="even and nonnegative"):
        ShiftedFpfInvolution(Z, 1)
    with pytest.raises(ValueError, match="nvars >= 1"):
        Window(nvars=0, maxdeg=6)
