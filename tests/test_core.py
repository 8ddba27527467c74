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

    @pytest.mark.parametrize("e", [1.5, 1.0, True, "2", None], ids=repr)
    def test_non_integer_exponent_rejected(self, e):
        # a fractional exponent once printed as its floor and factored into
        # a generator of multiplicity 0.5
        with pytest.raises(sa.PreconditionError,
                           match=r"^exponent of w\{-1,4\} must be an integer, got "):
            MonoidElement.from_exponents(6, {Interval(-1, 4): e, Interval(0, 5): 1})
        with pytest.raises(sa.PreconditionError,
                           match=r"^exponent of w\{-1,4\} must be an integer, got "):
            MonoidElement.from_pairs(6, [((-1, 4), e)])

    @pytest.mark.parametrize("iv", [(0, 2.5), (0.0, 2), (False, 2), ("0", "2")], ids=repr)
    def test_non_integer_endpoint_rejected(self, iv):
        with pytest.raises(sa.PreconditionError,
                           match=r"^interval endpoints must be integers, got Interval"):
            MonoidElement.from_exponents(6, {iv: 1})
        with pytest.raises(sa.PreconditionError, match="endpoints must be integers"):
            MonoidElement.generator(Interval(*iv), 6)

    @pytest.mark.parametrize("n", [6.0, True, "6"], ids=repr)
    def test_non_integer_rank_rejected(self, n):
        with pytest.raises(sa.PreconditionError, match=r"^rank must be an integer, got "):
            MonoidElement.from_exponents(n, {Interval(0, 2): 1})

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

    @pytest.mark.parametrize("n", [3.0, True, "3"], ids=repr)
    def test_non_integer_rank(self, n):
        with pytest.raises(sa.PreconditionError, match=r"^rank must be an integer, got "):
            Snake(n, ((0, 2),))

    @pytest.mark.parametrize("iv", [(0, 1.5), (0.0, 2), (0, True)], ids=repr)
    def test_non_integer_endpoints(self, iv):
        with pytest.raises(sa.PreconditionError,
                           match=r"^interval endpoints must be integers, got Interval"):
            Snake(3, ((-1, 1), iv))

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

    @pytest.mark.parametrize("p", [1.5, 2.0, True], ids=repr)
    def test_non_integer_positions(self, sstar, p):
        with pytest.raises(sa.PreconditionError,
                           match=r"^index %s out of range 1..5$" % p):
            sstar.iv(p)
        with pytest.raises(sa.PreconditionError, match=r"^bad slice %s..3 of length 5$" % p):
            sstar.subsnake(p, 3)
        with pytest.raises(sa.PreconditionError, match=r"^bad slice 1..%s of length 5$" % p):
            sstar.subsnake(1, p)

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
            fields = ("n", "intervals") if isinstance(value, Snake) else ("n", "exps")
            for field in fields:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(value, field, getattr(value, field))
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(value, field)

    def test_snake_paths_agree_with_written_out_equality(self, sstar):
        ivs = sstar.intervals
        longer = Snake(6, ivs + (Interval(4, 5),))
        paths = [Snake(6, tuple((iv.i, iv.j) for iv in ivs)), Snake._of(6, ivs),
                 longer.subsnake(1, 5), sa.parse_snake(str(sstar)),
                 pickle.loads(pickle.dumps(sstar))]
        for value in paths:
            assert type(value) is Snake
            assert value == sstar and sstar == value and hash(value) == hash(sstar)
        assert longer != sstar and Snake(5, ivs) != sstar
        # another type with the same fields, or a plain tuple of them, is
        # not a snake
        for other in (MonoidElement(6, ivs), (6, ivs)):
            assert sstar.__eq__(other) is NotImplemented
            assert sstar != other and other != sstar


H3_TEXT = "[(0,3),(2,4),(1,2)] @ n=3"
S2_REPR = "Snake(n=3, intervals=(Interval(i=0, j=2), Interval(i=-1, j=1)))"
# the classes of w{0,2}, w{-1,1}, their product, w{-1,2}, w{0,1} and the
# product of those two, at rank 3
V02 = "IrredClass(omega=MonoidElement(n=3, exps=((Interval(i=0, j=2), 1),)))"
V11 = "IrredClass(omega=MonoidElement(n=3, exps=((Interval(i=-1, j=1), 1),)))"
W_S2 = "MonoidElement(n=3, exps=((Interval(i=-1, j=1), 1), (Interval(i=0, j=2), 1)))"
V12 = "IrredClass(omega=MonoidElement(n=3, exps=((Interval(i=-1, j=2), 1),)))"
V01 = "IrredClass(omega=MonoidElement(n=3, exps=((Interval(i=0, j=1), 1),)))"
W_X = "MonoidElement(n=3, exps=((Interval(i=-1, j=2), 1), (Interval(i=0, j=1), 1)))"


# (name, value, twin, repr at the time the types were dataclasses, fields);
# each twin is built another way than its value
def _typed_values(s2):
    w = sa.parse_monoid_element("w{0,2} * w{-1,1}", 3)
    w2 = MonoidElement.from_exponents(3, {(-1, 1): 1, (0, 2): 1})
    d = sa.pr_set(s2)[0]
    h = sa.height_profile(sa.parse_snake(H3_TEXT))
    s2b = sa.parse_snake(str(s2))
    t = sa.exchange_triple(s2)
    spec = sa.CorpusSpec(3, 6, (2, 5), True, frozenset({"prime"}))
    return [
        ("PrimeDescriptor", d,
         sa.PrimeDescriptor("generator", (Interval(0, 2),),
                            MonoidElement.from_pairs(3, [((0, 2), 1)])),
         "PrimeDescriptor(kind='generator', intervals=(Interval(i=0, j=2),), "
         "weight=MonoidElement(n=3, exps=((Interval(i=0, j=2), 1),)))",
         ("kind", "intervals", "weight")),
        ("Factorization", sa.factor(w, s2), sa.factor(w2, s2b),
         "Factorization(pairs=((PrimeDescriptor(kind='pair', intervals=(Interval(i=0, j=2), "
         "Interval(i=-1, j=1)), weight=" + W_S2 + "), 1),))",
         ("pairs",)),
        ("SnakeClassification", sa.classify(s2),
         sa.SnakeClassification(True, True, True, tuple([0, 1])),
         "SnakeClassification(stable=True, connected=True, prime=True, eps=(0, 1))",
         ("stable", "connected", "prime", "eps")),
        ("HeightProfile", h,
         sa.HeightProfile(sa.parse_snake(H3_TEXT), 3, tuple([1, 2, 3]), tuple([3, 4, 3])),
         "HeightProfile(snake=Snake(n=3, intervals=(Interval(i=0, j=3), Interval(i=2, j=4), "
         "Interval(i=1, j=2))), N=3, p_seq=(1, 2, 3), xi=(3, 4, 3))",
         ("snake", "N", "p_seq", "xi")),
        ("SnakeIso", sa.build_iso(s2, s2), sa.SnakeIso(s2b, s2b, tuple(
            (Interval(i, j), Interval(i, j)) for i, j in ((-1, 1), (-1, 2), (0, 1), (0, 2)))),
         "SnakeIso(source=%s, target=%s, pairs=((Interval(i=-1, j=1), Interval(i=-1, j=1)), "
         "(Interval(i=-1, j=2), Interval(i=-1, j=2)), (Interval(i=0, j=1), Interval(i=0, j=1)), "
         "(Interval(i=0, j=2), Interval(i=0, j=2))))" % (S2_REPR, S2_REPR),
         ("source", "target", "pairs")),
        ("IrredClass", sa.irred_class(w, s2), sa.IrredClass(w2),
         "IrredClass(omega=%s)" % W_S2, ("omega",)),
        ("ExchangeTriple", t, sa.ExchangeTriple(
            s2b, tuple(map(sa.IrredClass, (t.left[0].omega, t.left[1].omega))),
            sa.IrredClass(w2), sa.IrredClass(t.term2.omega),
            tuple(sa.IrredClass(c.omega) for c in t.term2_components)),
         "ExchangeTriple(snake=%s, left=(%s, %s), term1=%s, term2=%s, term2_components=(%s, %s))"
         % (S2_REPR, V02, V11, "IrredClass(omega=%s)" % W_S2,
            "IrredClass(omega=%s)" % W_X, V12, V01),
         ("snake", "left", "term1", "term2", "term2_components")),
        ("CorpusSpec", spec,
         sa.CorpusSpec(r_max=3, span=6, n_range=(2, 5), filters=frozenset(["prime"])),
         "CorpusSpec(r_max=3, span=6, n_range=(2, 5), translation_normalized=True, "
         "filters=frozenset({'prime'}))",
         ("r_max", "span", "n_range", "translation_normalized", "filters")),
    ]


class TestValueTypes:
    """The library's other value types compare, hash, print, pickle and copy
    by their fields, and refuse assignment."""

    def test_equal_and_hash_alike(self, s2):
        for name, value, twin, _, _ in _typed_values(s2):
            assert type(value) is type(twin) and value is not twin, name
            assert value == twin and hash(value) == hash(twin), name
            assert not value != twin, name

    def test_repr(self, s2):
        for name, value, twin, text, _ in _typed_values(s2):
            assert repr(value) == repr(twin) == text, name

    def test_pickle_and_copy(self, s2):
        for name, value, twin, text, _ in _typed_values(s2):
            for back in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                         copy.deepcopy(value)):
                assert type(back) is type(value), name
                assert back == twin and hash(back) == hash(twin), name
                assert repr(back) == text, name

    def test_frozen(self, s2):
        for name, value, _, _, fields in _typed_values(s2):
            for field in fields:
                with pytest.raises(AttributeError):
                    setattr(value, field, getattr(value, field))
                with pytest.raises(AttributeError):
                    delattr(value, field)

    def test_iso_lookup_survives_copies(self, s2):
        iso = sa.build_iso(s2, s2)
        w = sa.parse_monoid_element("w{0,2} * w{-1,2}", 3)
        for back in (pickle.loads(pickle.dumps(iso)), copy.deepcopy(iso)):
            assert back.mapping == iso.mapping == dict(iso.pairs)
            assert back.eta(w) == iso.eta(w) == w

    def test_corpus_spec_defaults_and_normalization(self):
        spec = sa.CorpusSpec(3, 6)
        assert spec.filters == frozenset() and type(spec.filters) is frozenset
        assert spec.n_range is None and spec.translation_normalized is True
        b = sa.CorpusSpec(3, 6, filters=frozenset({"boundary"}))
        assert b.filters == frozenset({"boundary", "prime"})
        assert b == sa.CorpusSpec(3, 6, filters=frozenset({"boundary", "prime"}))
        assert pickle.loads(pickle.dumps(b)).filters == b.filters

    @pytest.mark.parametrize("kwargs, message", [
        (dict(r_max=0, span=6), "corpus bounds r_max=0 span=6 outside 1..7 and 1..12"),
        (dict(r_max=3, span=13), "corpus bounds r_max=3 span=13 outside 1..7 and 1..12"),
        (dict(r_max=3, span=6, filters=frozenset({"odd", "prime"})), "unknown filters: ['odd']"),
        (dict(r_max=3, span=6, n_range=[2, 5]),
         "n_range must be None or a pair of integers, got [2, 5]"),
        (dict(r_max=3, span=6, n_range=(2, 5.0)),
         "n_range must be None or a pair of integers, got (2, 5.0)"),
        (dict(r_max=3, span=6, n_range=(2, 14)), "n_range (2, 14) reaches past the rank cap 13"),
    ])
    def test_corpus_spec_messages(self, kwargs, message):
        with pytest.raises(sa.PreconditionError) as info:
            sa.CorpusSpec(**kwargs)
        assert str(info.value) == message
