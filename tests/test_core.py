import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, strategies as st

import snakealg as sa
from snakealg import Interval, MonoidElement, Snake

from conftest import translated


def gen(i, j, n=6):
    return MonoidElement.generator(Interval(i, j), n)


class TestInterval:
    def test_length_and_reflect(self):
        iv = Interval(-1, 4)
        assert iv.length == 5
        assert iv.reflect() == Interval(-4, 1)
        assert iv.reflect().reflect() == iv

    def test_translate(self):
        assert Interval(0, 2).translate(3) == Interval(3, 5)

    def test_trivial(self):
        assert sa.is_trivial(Interval(2, 2), 6)
        assert sa.is_trivial(Interval(0, 7), 6)
        assert not sa.is_trivial(Interval(0, 6), 6)


class TestMonoidElement:
    def test_trivial_generators_normalize_away(self):
        assert gen(2, 2).is_one
        assert gen(-1, 6).is_one
        assert gen(0, 7).is_one
        pairs = [(Interval(2, 2), 1), (Interval(0, 6), 1), (Interval(-1, 6), 2)]
        assert MonoidElement.from_pairs(6, pairs) == gen(0, 6)

    def test_product_and_quotient(self):
        w = gen(0, 6) * gen(-1, 4)
        assert w.quotient(gen(0, 6)) == gen(-1, 4)
        assert w.quotient(gen(1, 3)) is None
        assert w.ht == 2

    def test_quotient_of_self_is_one(self):
        w = gen(0, 6) * gen(0, 6)
        assert w.quotient(w) == MonoidElement.one(6)

    def test_negative_exponent_rejected(self):
        with pytest.raises(sa.PreconditionError):
            MonoidElement.from_exponents(6, {Interval(0, 3): -1})

    def test_out_of_bounds_generator_rejected(self):
        with pytest.raises(sa.PreconditionError):
            MonoidElement.from_exponents(3, {Interval(0, 5): 1})

    def test_rank_mismatch(self):
        with pytest.raises(sa.PreconditionError):
            gen(0, 2, 3) * gen(0, 2, 4)
        with pytest.raises(sa.PreconditionError, match=r"^rank mismatch: 3 vs 4$"):
            gen(0, 2, 3).quotient(gen(0, 2, 4))

    def test_check_messages(self):
        with pytest.raises(sa.PreconditionError,
                           match=r"^interval \(0,5\) out of bounds for rank n=3$"):
            MonoidElement.from_exponents(3, {Interval(0, 5): 1})
        with pytest.raises(sa.PreconditionError,
                           match=r"^interval \(2,1\) out of bounds for rank n=3$"):
            MonoidElement.from_pairs(3, [((2, 1), 0)])
        with pytest.raises(sa.PreconditionError, match=r"^negative exponent for \(0,3\)$"):
            MonoidElement.from_exponents(6, {(0, 3): -1})

    def test_plain_tuple_keys(self):
        w = MonoidElement.from_exponents(6, {(0, 6): 1, (-1, 4): 2, (2, 2): 1})
        assert w == gen(0, 6) * gen(-1, 4) * gen(-1, 4)
        assert all(type(iv) is Interval for iv, _ in w.exps)
        assert MonoidElement.generator((0, 7), 6).is_one

    def test_str_roundtrip(self):
        w = gen(0, 6) * gen(-1, 4) * gen(-1, 4)
        assert sa.parse_monoid_element(str(w), 6) == w
        assert sa.parse_monoid_element("1", 6) == MonoidElement.one(6)
        # repeats sum to one exponent
        w3 = sa.parse_monoid_element("w{0,6} * w{0,6}^2", 6)
        assert w3 == MonoidElement.from_pairs(6, [(Interval(0, 6), 3)])
        assert str(w3) == "w{0,6}^3"
        assert sa.parse_monoid_element(str(w3), 6) == w3

    def test_parse_errors(self):
        with pytest.raises(sa.ParseError):
            sa.parse_monoid_element("w{0,2", 3)
        with pytest.raises(sa.ParseError):
            sa.parse_monoid_element("w{0,9}", 3)

    def test_reflect_is_homomorphism(self):
        w1, w2 = gen(0, 6), gen(-1, 4) * gen(1, 3)
        assert (w1 * w2).reflect() == w1.reflect() * w2.reflect()


intervals = st.tuples(st.integers(-4, 4), st.integers(0, 7)).map(
    lambda t: Interval(t[0], t[0] + t[1]))
elements = st.lists(intervals, max_size=6).map(
    lambda ivs: MonoidElement.from_exponents(
        6, {iv: sum(1 for x in ivs if x == iv) for iv in ivs}))


class TestMonoidProperties:
    @given(elements, elements)
    def test_commutative(self, a, b):
        assert a * b == b * a

    @given(elements, elements, elements)
    def test_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(elements, elements)
    def test_quotient_inverts_product(self, a, b):
        assert (a * b).quotient(b) == a

    @given(elements)
    def test_ht_additive(self, a):
        assert (a * a).ht == 2 * a.ht


class TestSnake:
    def test_basic_access(self, sstar):
        assert sstar.r == 5
        assert sstar.iv(1) == Interval(0, 6)
        assert sstar.iv(5) == Interval(3, 4)
        with pytest.raises(sa.PreconditionError):
            sstar.iv(6)

    def test_subsnake_and_concat(self, sstar):
        t = sstar.subsnake(2, 4)
        assert t.intervals == (Interval(-1, 4), Interval(2, 5), Interval(1, 3))

    def test_weight(self, s2):
        assert s2.weight == gen(0, 2, 3) * gen(-1, 1, 3)

    def test_extrema(self, sstar):
        assert sstar.i_min == -1
        assert sstar.i_max == 3
        assert sstar.j_min == 3
        assert sstar.j_max == 6

    def test_str_roundtrip(self, sstar):
        assert sa.parse_snake(str(sstar)) == sstar

    def test_parse_errors(self):
        with pytest.raises(sa.ParseError):
            sa.parse_snake("[(0,2)]")
        with pytest.raises(sa.ParseError):
            sa.parse_snake("[] @ n=3")
        with pytest.raises(sa.ParseError):
            sa.parse_snake("[(0,2),(9)] @ n=3")
        with pytest.raises(sa.ParseError):
            sa.parse_snake("[(0,9)] @ n=3")

    def test_bad_rank(self):
        with pytest.raises(sa.PreconditionError, match=r"^rank must be >= 1$"):
            Snake(0, (Interval(0, 1),))

    def test_check_messages(self, sstar):
        with pytest.raises(sa.PreconditionError,
                           match=r"^snake must have at least one interval$"):
            Snake(3, ())
        with pytest.raises(sa.PreconditionError,
                           match=r"^interval \(0,5\) out of bounds for rank n=3$"):
            Snake(3, ((0, 2), (0, 5)))
        with pytest.raises(sa.PreconditionError, match=r"^bad slice 3..2 of length 5$"):
            sstar.subsnake(3, 2)
        with pytest.raises(sa.PreconditionError, match=r"^bad slice 0..2 of length 5$"):
            sstar.subsnake(0, 2)

    def test_reflect_translate(self, s2):
        assert s2.reflect().intervals == (Interval(-2, 0), Interval(-1, 1))
        assert translated(s2, 2).intervals == (Interval(2, 4), Interval(1, 3))


def _value_paths(sstar):
    """(name, value, twin) for a Snake and a MonoidElement reached by every
    construction path, each twin built through the public constructor."""
    ivs = sstar.intervals
    win = sa.window_snake(sstar, 1, 0, 1, 5)
    spec = sa.CorpusSpec(r_max=3, span=6, filters=frozenset({"prime"}))
    enumerated = [t for t in sa.enumerate_snakes(spec) if t.r == 3][0]
    d = [d for d in sa.pr_set(sstar) if d.kind == "window"][0]
    a, b = gen(0, 6), gen(-1, 4) * gen(1, 3)
    return [
        ("Snake()", Snake(6, tuple((iv.i, iv.j) for iv in ivs)), Snake(6, ivs)),
        ("subsnake", sstar.subsnake(2, 4), Snake(6, ivs[1:4])),
        ("reflect", sstar.reflect(), Snake(6, tuple(iv.reflect() for iv in ivs))),
        ("window_snake", win, Snake(6, ((0, 4),) + tuple(ivs[2:]))),
        ("enumerated", enumerated,
         Snake(enumerated.n, tuple((iv.i, iv.j) for iv in enumerated.intervals))),
        ("from_exponents", MonoidElement.from_exponents(6, {(0, 6): 1, (1, 3): 2}),
         MonoidElement.from_pairs(6, [(Interval(1, 3), 2), (Interval(0, 6), 1)])),
        ("__mul__", a * b, MonoidElement.from_exponents(
            6, {Interval(0, 6): 1, Interval(-1, 4): 1, Interval(1, 3): 1})),
        ("quotient", (a * b).quotient(gen(1, 3)), MonoidElement.from_exponents(
            6, {Interval(0, 6): 1, Interval(-1, 4): 1})),
        ("MonoidElement.reflect", b.reflect(), MonoidElement.from_exponents(
            6, {Interval(-4, 1): 1, Interval(-3, -1): 1})),
        ("pr_set weight", d.weight,
         MonoidElement.from_pairs(6, ((iv, 1) for iv in d.intervals))),
    ]


class TestValueSemantics:
    """Every construction path gives values that compare, hash, print,
    pickle and copy like their publicly constructed twins, and stay frozen."""

    def test_equal_and_hash_alike(self, sstar):
        for name, value, twin in _value_paths(sstar):
            assert type(value) is type(twin), name
            assert value == twin and hash(value) == hash(twin), name
            assert repr(value) == repr(twin), name

    def test_fields_are_plain_tuples_of_intervals(self, sstar):
        for name, value, _ in _value_paths(sstar):
            if isinstance(value, Snake):
                ivs = value.intervals
            else:
                ivs = tuple(iv for iv, _ in value.exps)
            assert type(ivs) is tuple, name
            assert all(type(iv) is Interval for iv in ivs), name

    def test_repr(self, sstar):
        assert repr(sstar.subsnake(4, 5)) == (
            "Snake(n=6, intervals=(Interval(i=1, j=3), Interval(i=3, j=4)))")
        assert repr(gen(0, 6) * gen(1, 3) * gen(1, 3)) == (
            "MonoidElement(n=6, exps=((Interval(i=0, j=6), 1), (Interval(i=1, j=3), 2)))")

    def test_pickle_and_copy(self, sstar):
        for name, value, twin in _value_paths(sstar):
            for back in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                         copy.deepcopy(value)):
                assert type(back) is type(value), name
                assert back == twin and hash(back) == hash(twin), name
                assert repr(back) == repr(twin), name

    def test_frozen(self, sstar):
        for name, value, _ in _value_paths(sstar):
            for field in dataclasses.fields(value):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(value, field.name, getattr(value, field.name))
