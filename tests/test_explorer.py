import inspect
from itertools import chain

import pytest

import snakealg as sa
from snakealg import explorer
from snakealg.snakes import pair_rank

from conftest import boundary

FILTER_SETS = [(), ("stable",), ("connected",), ("prime",), ("boundary",),
               ("prime", "boundary")]


class TestCorpusSpec:
    def test_caps(self):
        with pytest.raises(sa.PreconditionError):
            sa.CorpusSpec(r_max=8, span=5)
        with pytest.raises(sa.PreconditionError):
            sa.CorpusSpec(r_max=3, span=13)
        # no length cap, or an empty alphabet
        for r_max, span in ((0, 6), (-1, 8), (3, 0), (3, -2)):
            with pytest.raises(sa.PreconditionError):
                sa.CorpusSpec(r_max=r_max, span=span)

    @pytest.mark.parametrize("r_max, span", [(2.5, 5), (3, 5.0), ("3", 5), (3, True)],
                             ids=repr)
    def test_non_integer_bounds(self, r_max, span):
        with pytest.raises(sa.PreconditionError):
            sa.CorpusSpec(r_max=r_max, span=span, filters=frozenset({"prime"}))

    @pytest.mark.parametrize("collection", [list, tuple, set])
    def test_filters_of_any_collection(self, collection):
        want = sa.CorpusSpec(r_max=3, span=5, filters=frozenset({"prime"}))
        spec = sa.CorpusSpec(r_max=3, span=5, filters=collection(["prime"]))
        assert type(spec.filters) is frozenset
        assert spec == want and hash(spec) == hash(want)
        assert list(sa.enumerate_snakes(spec)) == list(sa.enumerate_snakes(want))

    @pytest.mark.parametrize("flag", ["no", 0, 1, None, 1.0], ids=repr)
    def test_non_bool_translation_normalized(self, flag):
        with pytest.raises(sa.PreconditionError, match="translation_normalized"):
            sa.CorpusSpec(r_max=3, span=5, translation_normalized=flag)

    @pytest.mark.parametrize("filters", [5, None, 2.5], ids=repr)
    def test_non_iterable_filters(self, filters):
        with pytest.raises(sa.PreconditionError, match="collection of filter names"):
            sa.CorpusSpec(r_max=3, span=5, filters=filters)

    @pytest.mark.parametrize("filters", ["prime", b"prime", ""], ids=repr)
    def test_bare_string_filters(self, filters):
        # not read letter by letter
        with pytest.raises(sa.PreconditionError, match="collection of filter names"):
            sa.CorpusSpec(r_max=3, span=5, filters=filters)

    def test_unhashable_filter_names(self):
        with pytest.raises(sa.PreconditionError, match="collection of filter names"):
            sa.CorpusSpec(r_max=3, span=5, filters=[["prime"]])

    def test_unknown_filter(self):
        with pytest.raises(sa.PreconditionError):
            sa.CorpusSpec(r_max=3, span=5, filters=frozenset({"shiny"}))

    @pytest.mark.parametrize("n_range", [(1,), (1, 2, 3), (1.5, 3), (2, "5"),
                                         (True, 3), [2, 5], 4], ids=repr)
    def test_malformed_n_range(self, n_range):
        with pytest.raises(sa.PreconditionError):
            sa.CorpusSpec(r_max=3, span=5, n_range=n_range)

    def test_reversed_n_range_is_empty(self):
        spec = sa.CorpusSpec(r_max=3, span=5, n_range=(5, 2))
        assert list(sa.enumerate_snakes(spec)) == []

    def test_rank_cap(self):
        sa.CorpusSpec(r_max=3, span=5, n_range=(-10**20, explorer.N_CAP))
        for n_range in ((1, explorer.N_CAP + 1), (10**20, 10**20)):
            with pytest.raises(sa.PreconditionError, match="rank cap"):
                sa.CorpusSpec(r_max=3, span=5, n_range=n_range)


class TestEnumeration:
    def test_deterministic_and_duplicate_free(self):
        spec = sa.CorpusSpec(r_max=3, span=5, filters=frozenset({"prime"}))
        a = list(sa.enumerate_snakes(spec))
        b = list(sa.enumerate_snakes(spec))
        assert a == b
        assert len(set(a)) == len(a)

    def test_translation_normalized(self, corpus):
        assert all(s.i_min == 0 for s in corpus)

    def test_filters_honoured(self):
        base = sa.CorpusSpec(r_max=3, span=5, filters=frozenset({"stable"}))
        stable = set(sa.enumerate_snakes(base))
        conn = set(sa.enumerate_snakes(
            sa.CorpusSpec(r_max=3, span=5, filters=frozenset({"connected"}))))
        prime = set(sa.enumerate_snakes(
            sa.CorpusSpec(r_max=3, span=5, filters=frozenset({"prime"}))))
        # connected and prime share the rank-candidate policy, so the
        # subset relation holds between them; the stable run uses fewer
        # candidate ranks and is only checked member-wise
        assert prime <= conn
        assert all(sa.classify(s).stable for s in stable)
        assert all(sa.classify(s).connected for s in conn)
        assert all(sa.classify(s).prime for s in prime)

    def test_boundary_filter(self):
        spec = sa.CorpusSpec(r_max=4, span=6,
                             filters=frozenset({"prime", "boundary"}))
        out = list(sa.enumerate_snakes(spec))
        assert out
        assert all(boundary(s) for s in out)

    @pytest.mark.parametrize("r_max, span", [(3, 5), (4, 6), (5, 8)])
    def test_boundary_implies_prime(self, r_max, span):
        def listed(*filters):
            return list(sa.enumerate_snakes(sa.CorpusSpec(r_max, span,
                                                          filters=frozenset(filters))))

        expected = listed("prime", "boundary")
        assert expected
        for filters in (("boundary",), ("stable", "boundary"), ("connected", "boundary")):
            assert listed(*filters) == expected, filters

    def test_boundary_lists_no_non_prime_snake(self):
        s = sa.parse_snake("[(0,2),(1,3),(0,1)] @ n=2")
        c = sa.classify(s)
        assert c.stable and c.connected and not c.prime and boundary(s)
        spec = sa.CorpusSpec(r_max=3, span=3, filters=frozenset({"boundary"}))
        assert spec.filters == {"prime", "boundary"}
        assert s not in set(sa.enumerate_snakes(spec))

    def test_n_range_override(self):
        spec = sa.CorpusSpec(r_max=2, span=4, n_range=(4, 5),
                             filters=frozenset({"prime"}))
        out = list(sa.enumerate_snakes(spec))
        assert out
        assert all(s.n in (4, 5) for s in out)

    def test_respects_span(self, corpus):
        assert all(s.j_max <= 9 and s.r <= 5 for s in corpus)

    @pytest.mark.parametrize("n_range", [(5, 2), (-3, 0)])
    def test_empty_rank_range_walks_nothing(self, n_range, monkeypatch):
        spec = sa.CorpusSpec(7, 12, n_range=n_range)

        def no_step(*args):
            raise AssertionError("enumerate_snakes walked an empty rank range")

        monkeypatch.setattr(explorer, "extend", no_step)
        assert list(sa.enumerate_snakes(spec)) == []

    def test_exhaustive_against_bruteforce(self):
        # cross-check the pruned search against a filterless enumeration
        spec = sa.CorpusSpec(r_max=2, span=4, filters=frozenset({"prime"}))
        got = set(sa.enumerate_snakes(spec))
        plain = sa.CorpusSpec(r_max=2, span=4)
        brute = {s for s in sa.enumerate_snakes(plain) if sa.classify(s).prime}
        assert got == brute


def meets_filters(s, filters):
    """The filters, written out against ``classify``; boundary implies prime."""
    c = sa.classify(s)
    if "boundary" in filters and not (c.prime and boundary(s)):
        return False
    if "prime" in filters:
        return c.prime
    if "connected" in filters:
        return c.connected
    return c.stable


def reference_walk(spec):
    """The unpruned search: every alphabet interval tried at every depth,
    translation normalization applied only to the finished prefixes, and
    every prefix and candidate classified afresh.  A prefix is kept when it
    meets the filters but boundary at rank ``span``, which is above every
    interval length and pair rank; stable, connected and prime snakes have
    only such prefixes."""
    alphabet = explorer._alphabet(spec)
    rank_free = spec.filters - {"boundary"}

    def walk(prefix):
        yield prefix
        if len(prefix) == spec.r_max:
            return
        for iv in alphabet:
            if meets_filters(sa.Snake(spec.span, prefix + (iv,)), rank_free):
                yield from walk(prefix + (iv,))

    for ivs in chain.from_iterable(walk((iv,)) for iv in alphabet):
        if spec.translation_normalized and min(iv.i for iv in ivs) != 0:
            continue
        for n in explorer._candidate_ranks(ivs, spec):
            s = sa.Snake(n, ivs)
            if meets_filters(s, spec.filters):
                yield s


class TestPrunedWalk:
    @pytest.mark.parametrize("n_range", [None, (2, 5)], ids=["all-ranks", "n2-5"])
    @pytest.mark.parametrize("normalized", [True, False], ids=["normalized", "raw"])
    @pytest.mark.parametrize("filters", FILTER_SETS, ids=lambda f: "+".join(f) or "unfiltered")
    def test_same_list_as_unpruned_walk(self, filters, normalized, n_range):
        for r_max, span in ((1, 3), (2, 4), (3, 5), (4, 6)):
            spec = sa.CorpusSpec(r_max, span, n_range, normalized, frozenset(filters))
            assert list(sa.enumerate_snakes(spec)) == list(reference_walk(spec)), spec


def parent_walk(spec):
    """The recursive walk the loop replaced, written out: a generator frame
    per prefix, every sub-interval of the second-to-last interval tried past
    length 2, and each yielded prefix rescanned for its ranks and its least
    left end."""
    alphabet = explorer._alphabet(spec)
    nested = {o: [iv for iv in alphabet if o.i <= iv.i < iv.j <= o.j] for o in alphabet}
    linked = spec.filters & {"connected", "prime"}

    def ranks(ivs):
        n_min = max(iv.length for iv in ivs)
        if linked:
            n_min = max([n_min] + [pair_rank(a, b) for a, b in zip(ivs, ivs[1:])])
        if spec.n_range is not None:
            lo, hi = spec.n_range
            return list(range(max(lo, n_min), hi + 1))
        j_max = max(iv.j for iv in ivs)
        out = [n_min]
        if min(iv.j for iv in ivs) == max(iv.i for iv in ivs) and j_max - 1 > n_min:
            out.append(j_max - 1)
        if "boundary" in spec.filters:
            out = [n for n in out if n == j_max - 1]
        return out

    def walk(prefix, bit):
        yield prefix
        if len(prefix) == spec.r_max or (
                spec.translation_normalized and len(prefix) == 2
                and 0 not in (prefix[0].i, prefix[1].i)):
            return
        for iv in nested[prefix[-2]] if len(prefix) >= 2 else alphabet:
            step = explorer.extend(prefix, bit, iv)
            if explorer._admits(step, spec.filters):
                yield from walk(prefix + (iv,), step.bit)

    for ivs in chain.from_iterable(walk((iv,), None) for iv in alphabet):
        if spec.translation_normalized and min(iv.i for iv in ivs) != 0:
            continue
        for n in ranks(ivs):
            s = sa.Snake(n, ivs)
            if "boundary" not in spec.filters or boundary(s):
                yield s


def count_extend(monkeypatch):
    """Count the calls to ``explorer.extend`` from here on."""
    calls = [0]
    kernel = explorer.extend

    def counted(*args):
        calls[0] += 1
        return kernel(*args)

    monkeypatch.setattr(explorer, "extend", counted)
    return calls


ATLAS = sa.CorpusSpec(7, 11, filters=frozenset({"prime"}))


class TestLoopWalk:
    """The explicit-stack loop lists what the recursive walk listed, in the
    same order, at the sizes the atlas and the long-snake sample read."""

    @pytest.mark.parametrize("spec", [
        ATLAS,
        sa.CorpusSpec(5, 9),
        sa.CorpusSpec(5, 9, filters=frozenset({"boundary"})),
        sa.CorpusSpec(5, 9, n_range=(2, 6), translation_normalized=False),
    ], ids=["atlas", "r5-s9", "r5-s9-boundary", "r5-s9-raw-n2-6"])
    def test_same_list_as_recursive_walk(self, spec):
        assert list(sa.enumerate_snakes(spec)) == list(parent_walk(spec))

    def test_extend_calls_on_the_atlas(self, monkeypatch):
        calls = count_extend(monkeypatch)
        assert sum(1 for _ in sa.enumerate_snakes(ATLAS)) == 13321
        assert calls[0] <= 66450

    def test_first_snake_is_lazy(self, monkeypatch):
        spec = sa.CorpusSpec(7, 12)
        calls = count_extend(monkeypatch)
        next(iter(sa.enumerate_snakes(spec)))
        assert calls[0] <= spec.r_max

    def test_is_a_generator_function(self):
        # the benchmark's tracer times generator functions only as such
        assert inspect.isgeneratorfunction(explorer.enumerate_snakes)


class TestWalkVerdict:
    """The walk's steps and candidate ranks decide the filters: every snake
    it yields passes them by ``classify``.  See also
    ``TestRandomSnake.test_meets_spec``."""

    def test_atlas_corpus_is_prime(self):
        spec = sa.CorpusSpec(7, 11, filters=frozenset({"prime"}))
        out = list(sa.enumerate_snakes(spec))
        assert len(out) == 13321
        assert all(sa.classify(s).prime for s in out)

    @pytest.mark.parametrize("filters", FILTER_SETS, ids=lambda f: "+".join(f) or "unfiltered")
    def test_yield_meets_filters(self, filters):
        for normalized in (True, False):
            for n_range in (None, (2, 5)):
                spec = sa.CorpusSpec(4, 6, n_range, normalized, frozenset(filters))
                out = list(sa.enumerate_snakes(spec))
                assert out, spec
                for s in out:
                    assert meets_filters(s, spec.filters), (spec, str(s))


class TestOracle:
    def test_two_candidates(self, s2):
        m = sa.parse_monoid_element("w{0,2} * w{-1,1}", 3)
        sols = sa.oracle_factorizations(m, s2)
        assert len(sols) == 2
        assert all(
            sa.MonoidElement.one(3) not in sol and
            sa.parse_monoid_element("1", 3) not in sol for sol in sols)

    def test_identity_has_empty_solution(self, s2):
        assert sa.oracle_factorizations(sa.MonoidElement.one(3), s2) == [()]

    def test_cap(self, s2):
        big = sa.parse_monoid_element("w{0,2}^5", 3)
        with pytest.raises(sa.PreconditionError):
            sa.oracle_factorizations(big, s2, cap=4)
        for cap in (2.5, 5.0, True):
            with pytest.raises(sa.PreconditionError,
                               match=r"^oracle cap must be an integer, got %s$" % cap):
                sa.oracle_factorizations(sa.parse_monoid_element("w{0,2}", 3), s2, cap=cap)


class TestRandomSnake:
    def test_deterministic(self):
        spec = sa.CorpusSpec(r_max=4, span=7, filters=frozenset({"prime"}))
        assert sa.random_snake(7, spec) == sa.random_snake(7, spec)

    def test_meets_spec(self):
        # the sampler, like the walk, tests only boundary on a drawn snake
        for filters in FILTER_SETS:
            spec = sa.CorpusSpec(r_max=4, span=7, filters=frozenset(filters))
            for seed in range(50):
                s = sa.random_snake(seed, spec)
                assert meets_filters(s, spec.filters), (filters, seed, str(s))
                assert s.r <= 4 and s.j_max <= 7 and s.i_min == 0

    @pytest.mark.parametrize("n_range", [(5, 2), (-3, 0)])
    def test_empty_rank_range(self, n_range, monkeypatch):
        spec = sa.CorpusSpec(3, 6, n_range=n_range, filters=frozenset({"prime"}))

        def no_draw(*args):
            raise AssertionError("random_snake drew on an empty rank range")

        monkeypatch.setattr(explorer, "extend", no_draw)
        with pytest.raises(sa.PreconditionError, match="holds no rank"):
            sa.random_snake(0, spec)
