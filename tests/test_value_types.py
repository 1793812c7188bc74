"""The package's value types: construction, value semantics, immutability, checks."""

import copy
import math
import pickle
import re

import numpy as np
import pytest

from rootforms import (
    Basis2,
    DegenerateBasis,
    DegenerateLattice,
    DensityGrid,
    GridSpec,
    InvalidGridSpec,
    LatticeError,
    NegativeConorm,
    ObtuseSuperbase,
    OrientedRootForm,
    QTPoint,
    RootForm,
    Superbase2,
    Vec2,
    VoronoiDomainPolygon,
    VoronoiVector,
    reconstruct_superbase,
    reduce_to_obtuse,
    root_form_from_values,
    superbase_from_basis,
)
from rootforms.records import LatticeRecord

# v1 = (2, 0), v2 = (-1, 2), v0 = -(v1 + v2): conorms (2, 2, 3), all positive
V0, V1, V2 = Vec2(-1.0, -2.0), Vec2(2.0, 0.0), Vec2(-1.0, 2.0)
SPEC = GridSpec(0.0, 1.0, 0.0, 1.0, 2)


def _cases():
    """(type, positional args, keyword args) building the same value both ways."""
    return [
        (Vec2, (1.0, 2.0), dict(x=1.0, y=2.0)),
        (Basis2, (V1, V2), dict(v1=V1, v2=V2)),
        (Superbase2, (V0, V1, V2), dict(v0=V0, v1=V1, v2=V2)),
        (ObtuseSuperbase, (V0, V1, V2, 3), dict(v0=V0, v1=V1, v2=V2, reduction_steps=3)),
        (QTPoint, (0.25, 0.125, -0.25), dict(x=0.25, y=0.125, signed_x=-0.25)),
        (RootForm, (0.5, 1.0, 1.5), dict(r12=0.5, r01=1.0, r02=1.5)),
        (OrientedRootForm, (0.5, 1.5, 1.0), dict(first=0.5, second=1.5, third=1.0)),
        (LatticeRecord, ("a", "basis", (2.0, 0.0, -1.0, 2.0), 7),
         dict(id="a", kind="basis", params=(2.0, 0.0, -1.0, 2.0), line=7)),
        (GridSpec, (0.0, 1.0, 0.0, 0.5, 4),
         dict(x_min=0.0, x_max=1.0, y_min=0.0, y_max=0.5, resolution=4)),
        (DensityGrid, (SPEC, {1: 3}, 2), dict(spec=SPEC, counts={1: 3}, overflow_count=2)),
        (VoronoiVector, ((1, 0), V1, True), dict(coeffs=(1, 0), vector=V1, strict=True)),
        (VoronoiDomainPolygon, ((Vec2(0.5, 0.5), Vec2(-0.5, 0.5)),),
         dict(vertices=(Vec2(0.5, 0.5), Vec2(-0.5, 0.5)))),
    ]


CASES = _cases()
IDS = [t.__name__ for t, _, _ in CASES]


@pytest.mark.parametrize("cls, args, kwargs", CASES, ids=IDS)
class TestContract:
    def test_positional_equals_keyword(self, cls, args, kwargs):
        a, b = cls(*args), cls(**kwargs)
        assert a == b
        assert type(a) is type(b) is cls
        for name, value in kwargs.items():
            assert getattr(a, name) == value

    def test_equal_by_value_and_hash(self, cls, args, kwargs):
        a, b = cls(*args), cls(*copy.deepcopy(args))
        assert a == b and not (a != b)
        if cls is DensityGrid:  # counts is a dict, so a grid has no hash
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)
            assert len({a, b}) == 1

    def test_attributes_are_read_only(self, cls, args, kwargs):
        obj = cls(*args)
        name = next(iter(kwargs))
        with pytest.raises(AttributeError):
            setattr(obj, name, kwargs[name])
        with pytest.raises(AttributeError):
            obj.not_a_field = 1
        assert obj == cls(*args)

    def test_pickle_and_copy_round_trip(self, cls, args, kwargs):
        obj = cls(*args)
        for clone in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
            assert clone == obj and type(clone) is cls

    def test_make_and_replace_round_trip(self, cls, args, kwargs):
        obj = cls._make(args)
        assert obj == cls(*args) and type(obj) is cls
        name, value = next(iter(kwargs.items()))
        assert obj._replace() == obj and type(obj._replace()) is cls
        assert obj._replace(**{name: value}) == obj


class TestDefaultsAndFields:
    def test_record_line_defaults_to_zero(self):
        rec = LatticeRecord("a", "cell2", (1.0, 1.0, 90.0))
        assert rec.line == 0
        assert rec == LatticeRecord(id="a", kind="cell2", params=(1.0, 1.0, 90.0), line=0)

    def test_obtuse_reduction_steps(self):
        assert ObtuseSuperbase(V0, V1, V2).reduction_steps == 0
        assert ObtuseSuperbase(V0, V1, V2, 3).reduction_steps == 3
        assert ObtuseSuperbase(V0, V1, V2, reduction_steps=3).reduction_steps == 3
        assert ObtuseSuperbase(V0, V1, V2, 3) != ObtuseSuperbase(V0, V1, V2, 4)

    def test_superbase_keeps_three_vectors(self):
        with pytest.raises(TypeError):
            Superbase2(V0, V1, V2, 0)
        assert Superbase2(V0, V1, V2).vectors() == (V0, V1, V2)
        assert ObtuseSuperbase(V0, V1, V2, 5).vectors() == (V0, V1, V2)

    def test_reduction_returns_a_superbase(self):
        s = superbase_from_basis(Basis2(Vec2(1.0, 0.0), Vec2(7.0, 1.0)))
        obt = reduce_to_obtuse(s)
        assert isinstance(obt, ObtuseSuperbase) and isinstance(obt, Superbase2)
        assert obt.reduction_steps > 0
        same = reduce_to_obtuse(Superbase2(V0, V1, V2))
        assert isinstance(same, Superbase2)
        assert (same.v0, same.v1, same.v2, same.reduction_steps) == (V0, V1, V2, 0)

    def test_repr_names_the_fields(self):
        assert repr(Vec2(1.0, 2.0)) == "Vec2(x=1.0, y=2.0)"
        assert repr(ObtuseSuperbase(V0, V1, V2, 3)) == (
            "ObtuseSuperbase(v0=Vec2(x=-1.0, y=-2.0), v1=Vec2(x=2.0, y=0.0), "
            "v2=Vec2(x=-1.0, y=2.0), reduction_steps=3)"
        )
        assert repr(LatticeRecord("a", "cell2", (1.0, 1.0, 90.0))) == (
            "LatticeRecord(id='a', kind='cell2', params=(1.0, 1.0, 90.0), line=0)"
        )


class TestTupleSemantics:
    """The value types are named tuples: they unpack, index and equal plain tuples."""

    def test_unpack_index_and_compare(self):
        x, y = Vec2(1.0, 2.0)
        assert (x, y) == (1.0, 2.0) and Vec2(1.0, 2.0)[1] == 2.0
        assert Vec2(1.0, 2.0) == (1.0, 2.0)
        assert Basis2(V1, V2) == (V1, V2)
        assert Superbase2(V0, V1, V2) == (V0, V1, V2)
        v0, v1, v2, steps = ObtuseSuperbase(V0, V1, V2, 3)
        assert (v0, v1, v2, steps) == (V0, V1, V2, 3)
        assert QTPoint(0.25, 0.1, -0.25) == (0.25, 0.1, -0.25)
        r12, r01, r02 = RootForm(0.0, 1.0, 1.0)
        assert (r12, r01, r02) == (0.0, 1.0, 1.0) == RootForm(0.0, 1.0, 1.0)
        assert OrientedRootForm(0.5, 1.5, 1.0) == (0.5, 1.5, 1.0)
        assert LatticeRecord("a", "cell2", (1.0, 1.0, 90.0)) == ("a", "cell2", (1.0, 1.0, 90.0), 0)
        assert tuple(GridSpec(0, 1, 0, 1, 2)) == (0, 1, 0, 1, 2)
        assert DensityGrid(SPEC, {}, 0) == (SPEC, {}, 0)
        assert VoronoiVector((1, 0), V1, True)[0] == (1, 0)
        assert len(VoronoiDomainPolygon((V1, V2))) == 1

    def test_fields(self):
        assert Superbase2._fields == ("v0", "v1", "v2")
        assert ObtuseSuperbase._fields == ("v0", "v1", "v2", "reduction_steps")
        assert LatticeRecord._field_defaults == {"line": 0}

    def test_vectors_neither_repeat_nor_order(self):
        # tuple repetition and lexicographic order mean nothing for a plane vector
        v, w = Vec2(1.0, 2.0), Vec2(2.0, 0.0)
        for op in (lambda: v * 2, lambda: 2 * v, lambda: v * w, lambda: v < w, lambda: v <= w,
                   lambda: v > w, lambda: v >= w, lambda: sorted([w, v]), lambda: max(v, w)):
            with pytest.raises(TypeError):
                op()
        # equality, hashing and the vector arithmetic stay as they were
        assert v == Vec2(1.0, 2.0) == (1.0, 2.0) and v != w
        assert hash(v) == hash((1.0, 2.0)) and len({v, Vec2(1.0, 2.0)}) == 1
        assert v + w == Vec2(3.0, 2.0) and v - w == Vec2(-1.0, 2.0) and -v == Vec2(-1.0, -2.0)

    def test_vectors_do_not_order_against_plain_tuples(self):
        # a plain tuple on either side must not lend Vec2 its lexicographic order
        v, t = Vec2(1.0, 2.0), (2.0, 0.0)
        for op in (lambda: v < t, lambda: v <= t, lambda: v > t, lambda: v >= t,
                   lambda: t < v, lambda: t <= v, lambda: t > v, lambda: t >= v,
                   lambda: sorted([t, v]), lambda: max(t, v)):
            with pytest.raises(TypeError, match="^Vec2 has no order$"):
                op()
        assert v == (1.0, 2.0) and (1.0, 2.0) == v and v != t and t != v
        assert hash(v) == hash((1.0, 2.0)) and {v, (1.0, 2.0)} == {v}

    def test_a_superbase_is_not_an_obtuse_one(self):
        # an ObtuseSuperbase carries its step count, so it never equals a Superbase2
        assert Superbase2(V0, V1, V2) != ObtuseSuperbase(V0, V1, V2)


def _raises_exactly(cls, message, fn, *args, **kwargs):
    with pytest.raises(cls, match=f"^{re.escape(message)}$") as info:
        fn(*args, **kwargs)
    assert type(info.value) is cls


class TestValidation:
    def test_non_finite_vector(self):
        _raises_exactly(ValueError, "non-finite vector (nan, 0)", Vec2, math.nan, 0)
        _raises_exactly(ValueError, "non-finite vector (1.0, inf)", Vec2, x=1.0, y=math.inf)

    def test_degenerate_basis(self):
        _raises_exactly(DegenerateBasis, "basis determinant 0 below tolerance for scale 2",
                        Basis2, Vec2(1.0, 0.0), Vec2(2.0, 0.0))

    def test_superbase_must_sum_to_zero(self):
        _raises_exactly(ValueError, "superbase vectors sum to (2, 2), not zero",
                        Superbase2, Vec2(1.0, 1.0), Vec2(1.0, 0.0), Vec2(0.0, 1.0))
        _raises_exactly(ValueError, "superbase vectors sum to (2, 2), not zero",
                        ObtuseSuperbase, Vec2(1.0, 1.0), Vec2(1.0, 0.0), Vec2(0.0, 1.0))

    def test_superbase_checks_its_basis(self):
        _raises_exactly(DegenerateBasis, "basis determinant 0 below tolerance for scale 2",
                        Superbase2, Vec2(-3.0, 0.0), Vec2(1.0, 0.0), Vec2(2.0, 0.0))

    def test_obtuse_superbase_must_be_obtuse(self):
        _raises_exactly(NegativeConorm, "superbase is not obtuse: conorms (-1.0, 2.0, 3.0)",
                        ObtuseSuperbase, Vec2(-2.0, -1.0), Vec2(1.0, 0.0), Vec2(1.0, 1.0),
                        reduction_steps=3)
        # the same vectors make a valid, non-obtuse Superbase2
        Superbase2(Vec2(-2.0, -1.0), Vec2(1.0, 0.0), Vec2(1.0, 1.0))

    def test_qt_point_signed_x(self):
        _raises_exactly(ValueError, "signed_x must be +-x", QTPoint, 1, 0, 2)
        assert QTPoint(0.25, 0.1, -0.25).signed_x == -0.25

    @pytest.mark.parametrize("args, message", [
        ((0, math.inf, 0, 1, 2), "grid bounds must be finite"),
        ((math.nan, 1, 0, 1, 2), "grid bounds must be finite"),
        ((0, 0, 0, 1, 2), "grid bounds must satisfy max > min on both axes"),
        ((0, 1, 2, 1, 2), "grid bounds must satisfy max > min on both axes"),
        ((0, 1, 0, 1, 0), "resolution must be a positive integer, got 0"),
        ((0, 1, 0, 1, -3), "resolution must be a positive integer, got -3"),
        ((0, 1, 0, 1, 2.0), "resolution must be a positive integer, got 2.0"),
        ((0, 1, 0, 1, "2"), "resolution must be a positive integer, got 2"),
        ((0, 1, 0, 1, None), "resolution must be a positive integer, got None"),
        ((0, 1, 0, 1, True), "resolution must be a positive integer, got True"),
    ])
    def test_grid_spec(self, args, message):
        _raises_exactly(InvalidGridSpec, message, GridSpec, *args)

    @pytest.mark.parametrize("f", [float, np.float64], ids=["float", "float64"])
    @pytest.mark.parametrize("cls, message, args", [
        (ValueError, "non-finite root product in (nan, 1.0, 2.0)", (math.nan, 1.0, 2.0)),
        (ValueError, "non-finite root product in (0.0, 1.0, inf)", (0.0, 1.0, math.inf)),
        (ValueError, "negative root product -2.5", (-2.5, 1.0, 1.0)),
        (ValueError, "negative root product -1", (0.5, -1.0, 2.0)),
        (DegenerateLattice, "two root products vanish", (0.0, 0.0, 1.0)),
        (DegenerateLattice, "two root products vanish", (0.0, 1.0, 0.0)),
        (ValueError, "root products (2.0, 1.0, 3.0) are not ascending", (2.0, 1.0, 3.0)),
        (ValueError, "root products (0.5, 2.0, 1.0) are not ascending", (0.5, 2.0, 1.0)),
    ])
    def test_root_form(self, cls, message, args, f):
        # the error text shows plain floats, not np.float64(...) reprs
        _raises_exactly(cls, message, RootForm, *map(f, args))
        assert RootForm(*map(f, (-0.0, 1.0, 1.0))) == (0.0, 1.0, 1.0)

    @pytest.mark.parametrize("f", [float, np.float64], ids=["float", "float64"])
    @pytest.mark.parametrize("cls, message, args", [
        (ValueError, "non-finite root product in (0.5, 1.0, inf)", (0.5, math.inf, 1.0)),
        (ValueError, "negative root product -2.5", (1.0, -2.5, 2.0)),
        (DegenerateLattice, "two root products vanish", (0.0, 1.0, 0.0)),
        # RootForm's rule on the last two entries sorted: the first is not the smallest
        (ValueError, "root products (1.0, 0.5, 3.0) are not ascending", (1.0, 3.0, 0.5)),
    ])
    def test_oriented_root_form(self, cls, message, args, f):
        _raises_exactly(cls, message, OrientedRootForm, *map(f, args))
        # either order of the last two entries is a chirality, not an error
        assert OrientedRootForm(*map(f, (0.5, 1.5, 1.0))) == (0.5, 1.5, 1.0)
        assert OrientedRootForm(*map(f, (0.5, 1.0, 1.5))) == (0.5, 1.0, 1.5)

    def test_no_root_form_reaches_the_reconstruction_unchecked(self):
        # a negative entry once lost its sign there, and an unsorted triple was
        # taken as it came; a plain triple is made a RootForm, so it is checked too
        for cls, message, triple in (
                (ValueError, "negative root product -2.5", (-2.5, 1.0, 1.0)),
                (ValueError, "root products (2.0, 1.0, 3.0) are not ascending", (2.0, 1.0, 3.0)),
                (DegenerateLattice, "two root products vanish", (0.0, 0.0, 1.0))):
            _raises_exactly(cls, message, RootForm, *triple)
            _raises_exactly(cls, message, reconstruct_superbase, triple)
        assert reconstruct_superbase((0.0, 1.0, 1.0)) == reconstruct_superbase(
            RootForm(0.0, 1.0, 1.0))

    @pytest.mark.parametrize("cls, message, args", [
        (ValueError, "non-finite root product in (1.0, 2.0, inf)", (math.inf, 2.0, 1.0)),
        (ValueError, "negative root product -1", (2.0, 3.0, -1.0)),
        (DegenerateLattice, "two root products vanish", (5.0, 0.0, 0.0)),
    ])
    def test_root_form_from_values_sorts_then_checks(self, cls, message, args):
        _raises_exactly(cls, message, root_form_from_values, *args)
        assert root_form_from_values(3, np.float64(1.0), 2.0) == (1.0, 2.0, 3.0)

    def test_grid_spec_stores_a_plain_int(self):
        spec = GridSpec(0, 1, 0, 1, np.uint8(40))
        assert type(spec.resolution) is int and spec.resolution == 40
        assert spec == GridSpec(0, 1, 0, 1, 40)
        assert GridSpec(x_min=0, x_max=1, y_min=0, y_max=1, resolution=np.int64(3)).resolution == 3

    def test_overflow_error_is_the_base_class(self):
        with pytest.raises(LatticeError, match="^coordinates overflow") as info:
            Basis2(Vec2(1e200, 1e200), Vec2(1e200, 2e200))
        assert type(info.value) is LatticeError

    @pytest.mark.parametrize("cls, message, build", [
        (ValueError, "non-finite vector (nan, 0)", lambda: Vec2._make((math.nan, 0))),
        (ValueError, "non-finite vector (1.0, inf)", lambda: Vec2(1.0, 2.0)._replace(y=math.inf)),
        (DegenerateBasis, "basis determinant 0 below tolerance for scale 4",
         lambda: Basis2._make((V1, Vec2(4.0, 0.0)))),
        (DegenerateBasis, "basis determinant 0 below tolerance for scale 2",
         lambda: Basis2(V1, V2)._replace(v2=Vec2(-1.0, 0.0))),
        (ValueError, "superbase vectors sum to (1, 2), not zero",
         lambda: Superbase2(V0, V1, V2)._replace(v0=Vec2(0.0, 0.0))),
        (ValueError, "superbase vectors sum to (1, 2), not zero",
         lambda: Superbase2._make((Vec2(0.0, 0.0), V1, V2))),
        (NegativeConorm, "superbase is not obtuse: conorms (-1.0, 2.0, 3.0)",
         lambda: ObtuseSuperbase._make((Vec2(-2.0, -1.0), Vec2(1.0, 0.0), Vec2(1.0, 1.0), 3))),
        (ValueError, "superbase vectors sum to (1, 2), not zero",
         lambda: ObtuseSuperbase(V0, V1, V2, 3)._replace(v0=Vec2(0.0, 0.0))),
        (ValueError, "signed_x must be +-x", lambda: QTPoint(0.25, 0.1, -0.25)._replace(x=0.5)),
        (ValueError, "signed_x must be +-x", lambda: QTPoint._make((1, 0, 2))),
        (InvalidGridSpec, "resolution must be a positive integer, got 0",
         lambda: GridSpec(0, 1, 0, 1, 2)._replace(resolution=0)),
        (InvalidGridSpec, "grid bounds must satisfy max > min on both axes",
         lambda: GridSpec._make((0, 1, 1, 1, 2))),
        # numpy scalars, whose messages show plain floats
        (ValueError, "negative root product -2.5",
         lambda: RootForm._make(np.array([-2.5, 1.0, 1.0]))),
        (ValueError, "root products (2.0, 1.0, 3.0) are not ascending",
         lambda: RootForm(0.5, 1.0, 3.0)._replace(r12=np.float64(2.0))),
        (DegenerateLattice, "two root products vanish",
         lambda: OrientedRootForm._make(np.zeros(3))),
        (ValueError, "non-finite root product in (0.5, 1.0, nan)",
         lambda: OrientedRootForm(0.5, 1.0, 1.5)._replace(third=np.float64(math.nan))),
    ], ids=["Vec2._make", "Vec2._replace", "Basis2._make", "Basis2._replace",
            "Superbase2._replace", "Superbase2._make", "ObtuseSuperbase._make",
            "ObtuseSuperbase._replace", "QTPoint._replace", "QTPoint._make",
            "GridSpec._replace", "GridSpec._make", "RootForm._make", "RootForm._replace",
            "OrientedRootForm._make", "OrientedRootForm._replace"])
    def test_make_and_replace_run_the_checks(self, cls, message, build):
        _raises_exactly(cls, message, build)

    def test_replace_keeps_a_valid_value_checked_and_typed(self):
        spec = GridSpec(0, 1, 0, 1, 2)._replace(resolution=np.int64(3))
        assert spec == GridSpec(0, 1, 0, 1, 3) and type(spec.resolution) is int
        obt = ObtuseSuperbase(V0, V1, V2)._replace(reduction_steps=2)
        assert type(obt) is ObtuseSuperbase and obt.reduction_steps == 2
