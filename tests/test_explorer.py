from itertools import chain

import pytest

import snakealg as sa
from snakealg import explorer
from snakealg.snakes import extend

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

    def test_n_range_override(self):
        spec = sa.CorpusSpec(r_max=2, span=4, n_range=(4, 5),
                             filters=frozenset({"prime"}))
        out = list(sa.enumerate_snakes(spec))
        assert out
        assert all(s.n in (4, 5) for s in out)

    def test_respects_span(self, corpus):
        assert all(s.j_max <= 9 and s.r <= 5 for s in corpus)

    def test_exhaustive_against_bruteforce(self):
        # cross-check the pruned search against a filterless enumeration
        spec = sa.CorpusSpec(r_max=2, span=4, filters=frozenset({"prime"}))
        got = set(sa.enumerate_snakes(spec))
        plain = sa.CorpusSpec(r_max=2, span=4)
        brute = {s for s in sa.enumerate_snakes(plain) if sa.classify(s).prime}
        assert got == brute


def reference_walk(spec):
    """The unpruned search: every alphabet interval tried at every depth,
    translation normalization applied only to the finished prefixes."""
    alphabet = explorer._alphabet(spec)

    def walk(prefix, bit):
        yield prefix
        if len(prefix) == spec.r_max:
            return
        for iv in alphabet:
            step = extend(prefix, bit, iv)
            if explorer._admits(step, spec.filters):
                yield from walk(prefix + (iv,), step.bit)

    for ivs in chain.from_iterable(walk((iv,), None) for iv in alphabet):
        if spec.translation_normalized and min(iv.i for iv in ivs) != 0:
            continue
        for n in explorer._candidate_ranks(ivs, spec):
            s = sa.Snake(n, ivs)
            if explorer._passes(s, spec.filters):
                yield s


class TestPrunedWalk:
    @pytest.mark.parametrize("n_range", [None, (2, 5)], ids=["all-ranks", "n2-5"])
    @pytest.mark.parametrize("normalized", [True, False], ids=["normalized", "raw"])
    @pytest.mark.parametrize("filters", FILTER_SETS, ids=lambda f: "+".join(f) or "unfiltered")
    def test_same_list_as_unpruned_walk(self, filters, normalized, n_range):
        for r_max, span in ((1, 3), (2, 4), (3, 5), (4, 6)):
            spec = sa.CorpusSpec(r_max, span, n_range, normalized, frozenset(filters))
            assert list(sa.enumerate_snakes(spec)) == list(reference_walk(spec)), spec


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


class TestRandomSnake:
    def test_deterministic(self):
        spec = sa.CorpusSpec(r_max=4, span=7, filters=frozenset({"prime"}))
        assert sa.random_snake(7, spec) == sa.random_snake(7, spec)

    def test_meets_spec(self):
        spec = sa.CorpusSpec(r_max=4, span=7, filters=frozenset({"prime"}))
        for seed in range(12):
            s = sa.random_snake(seed, spec)
            assert sa.classify(s).prime
            assert s.r <= 4 and s.j_max <= 7 and s.i_min == 0
