"""Record against a frozen-dataclass oracle: each record shape has a dataclass twin."""

import dataclasses
from dataclasses import dataclass

import pytest

from conjsim.family import SimParams
from conjsim.selftest import family_experiment
from conjsim.sixstate import Honest, ZPremeasure
from conjsim.states import Record, replace


class EmptyR(Record):
    pass


@dataclass(frozen=True)
class EmptyD:
    pass


class DefaultsR(Record):
    a: int
    b: str = "x"
    c: object = None


@dataclass(frozen=True)
class DefaultsD:
    a: int
    b: str = "x"
    c: object = None


class SubclassR(DefaultsR):
    d: float = 0.5


@dataclass(frozen=True)
class SubclassD(DefaultsD):
    d: float = 0.5


class CheckedR(Record):
    kind: str
    dims: tuple = (2,)

    def __post_init__(self):
        if self.kind not in ("ok", "fine"):
            raise ValueError(f"unknown kind {self.kind!r}")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))


@dataclass(frozen=True)
class CheckedD:
    kind: str
    dims: tuple = (2,)

    def __post_init__(self):
        if self.kind not in ("ok", "fine"):
            raise ValueError(f"unknown kind {self.kind!r}")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))


class OwnInitR(Record):
    dims: tuple
    total: int

    def __init__(self, dims, total):
        if total != sum(dims):
            raise ValueError("total must be the sum of dims")
        object.__setattr__(self, "dims", tuple(dims))
        object.__setattr__(self, "total", total)


@dataclass(frozen=True)
class OwnInitD:
    dims: tuple
    total: int

    def __init__(self, dims, total):
        if total != sum(dims):
            raise ValueError("total must be the sum of dims")
        object.__setattr__(self, "dims", tuple(dims))
        object.__setattr__(self, "total", total)


# (record class, dataclass twin, calls: (args, kwargs), changes passed to replace)
SHAPES = {
    "no_fields": (EmptyR, EmptyD, [((), {}), ((1,), {}), ((), {"a": 1})], [{}, {"a": 1}]),
    "defaults": (DefaultsR, DefaultsD, [
        ((1,), {}), ((1, "y", [3]), {}), ((), {"a": 1, "c": 2}), ((1,), {"c": 2.5}),
        ((), {}), ((), {"b": "y"}), ((1, "y", 3, 4), {}), ((1,), {"d": 4}),
        ((1,), {"a": 2}), ((1, "y"), {"b": "z"}),
    ], [{}, {"a": 5}, {"b": "z", "c": (1,)}, {"d": 4}]),
    "subclass": (SubclassR, SubclassD, [
        ((1,), {}), ((1, "y", 3, 0.25), {}), ((), {"a": 1, "d": 2}), ((1, "y", 3, 4, 5), {}),
        ((), {"d": 1}),
    ], [{}, {"d": 1.5, "a": 2}, {"e": 1}]),
    "post_init": (CheckedR, CheckedD, [
        (("ok",), {}), (("ok", [2.0, 3]), {}), ((), {"kind": "fine", "dims": "23"}),
        (("bogus",), {}), ((), {}), (("ok",), {"kind": "ok"}),
    ], [{}, {"kind": "fine"}, {"kind": "bogus"}, {"dims": [4.0]}, {"dims": "x"}]),
    "own_init": (OwnInitR, OwnInitD, [
        (((1, 2), 3), {}), ((), {"dims": [4], "total": 4}), (((1, 2), 4), {}),
        (((1, 2),), {}), (((1,), 1, 1), {}), (((1,), 1), {"dims": (1,)}),
    ], [{}, {"dims": (3,), "total": 3}, {"total": 9}, {"extra": 1}]),
}


def outcome(fn):
    """What ``fn()`` gives: ("ok", value) or ("raises", the exception's type)."""
    try:
        return "ok", fn()
    except Exception as err:        # noqa: BLE001 - the type is the outcome
        return "raises", type(err)


def state(obj) -> tuple:
    """Type-free view of a record or twin: its field values and its repr minus the class name."""
    names = [f.name for f in dataclasses.fields(obj)] if dataclasses.is_dataclass(obj) \
        else list(obj._fields)
    return tuple(getattr(obj, n) for n in names), repr(obj)[len(type(obj).__name__):]


def same_outcome(record_fn, twin_fn):
    got, want = outcome(record_fn), outcome(twin_fn)
    if want[0] == "ok":
        assert got[0] == "ok", got
        assert state(got[1]) == state(want[1])
    else:
        assert got == want


@pytest.mark.parametrize("shape", SHAPES)
def test_construction_matches_the_dataclass(shape):
    rec, twin, calls, _ = SHAPES[shape]
    assert rec._fields == tuple(f.name for f in dataclasses.fields(twin))
    for args, kwargs in calls:
        same_outcome(lambda: rec(*args, **kwargs), lambda: twin(*args, **kwargs))


@pytest.mark.parametrize("shape", SHAPES)
def test_assignment_and_deletion_raise_attribute_error(shape):
    rec, twin, calls, _ = SHAPES[shape]
    args, kwargs = calls[0]
    for obj in (rec(*args, **kwargs), twin(*args, **kwargs)):
        for name in (*(f.name for f in dataclasses.fields(twin)), "other"):
            with pytest.raises(AttributeError):
                setattr(obj, name, 1)
            with pytest.raises(AttributeError):
                delattr(obj, name)


@pytest.mark.parametrize("shape", SHAPES)
def test_equality_and_hash_match_the_dataclass(shape):
    rec, twin, calls, _ = SHAPES[shape]
    made = [(rec(*a, **k), twin(*a, **k)) for a, k in calls
            if outcome(lambda: twin(*a, **k))[0] == "ok"]
    for r1, d1 in made:
        assert r1 != d1 and d1 != r1 and r1 != state(r1)[0]
        assert outcome(lambda: hash(r1)) == outcome(lambda: hash(d1))
        for r2, d2 in made:
            assert (r1 == r2, r1 != r2) == (d1 == d2, d1 != d2)


@pytest.mark.parametrize("shape", SHAPES)
def test_replace_rebuilds_through_init(shape):
    rec, twin, calls, changes = SHAPES[shape]
    args, kwargs = calls[0]
    r, d = rec(*args, **kwargs), twin(*args, **kwargs)
    for change in changes:
        same_outcome(lambda: replace(r, **change), lambda: dataclasses.replace(d, **change))


def test_replace_revalidates_a_package_record():
    exp = family_experiment(SimParams(0.5, 0.5), "extended")
    with pytest.raises(ValueError, match="unknown test kind"):
        replace(exp, kind="bogus")
    with pytest.raises(ValueError, match="must name a qubit register"):
        replace(exp, flag_registers={"A": 0, "B": 0})
    with pytest.raises(ValueError, match="exceeds sqrt"):
        replace(SimParams(0.5, 0.5), a=0.0)
    assert replace(SimParams(0.5, 0.5), c=0.25) == SimParams(0.5, 0.25)


def test_records_of_different_classes_never_compare_equal():
    p = SimParams(0.5, 0.5)
    assert Honest(p) != ZPremeasure(p) and not Honest(p) == ZPremeasure(p)
    assert Honest(p) == Honest(SimParams(0.5, 0.5))
    assert hash(Honest(p)) == hash(Honest(SimParams(0.5, 0.5)))
