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
        with pytest.raises(sa.PreconditionError):
            Snake(0, (Interval(0, 1),))

    def test_reflect_translate(self, s2):
        assert s2.reflect().intervals == (Interval(-2, 0), Interval(-1, 1))
        assert translated(s2, 2).intervals == (Interval(2, 4), Interval(1, 3))
