
import pytest

import snakealg as sa
from snakealg import Interval, MonoidElement, primesets, snakes
from snakealg.primesets import window_cuts

from conftest import checked_pr_set


SSTAR_TILDE = {(-1, 4), (-1, 5), (-1, 6), (0, 4), (0, 5), (0, 6), (1, 3),
               (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4)}
SSTAR_IVS = {(-1, 4), (-1, 5), (0, 4), (0, 5), (0, 6), (1, 3), (1, 4),
             (1, 5), (2, 3), (2, 4), (2, 5), (3, 4)}


def w(text, n=6):
    return sa.parse_monoid_element(text, n)


class TestIntervalSets:
    def test_sstar_tilde(self, sstar):
        assert {(iv.i, iv.j) for iv in sa.tilde_interval_set(sstar)} == SSTAR_TILDE

    def test_sstar_intervals(self, sstar):
        got = {(iv.i, iv.j) for iv in sa.interval_set(sstar)}
        assert got == SSTAR_IVS
        assert len(got) == 12

    def test_boundary_drops_exactly_two(self, sstar):
        dropped = sa.tilde_interval_set(sstar) - sa.interval_set(sstar)
        assert dropped == {Interval(3, 3), Interval(-1, 6)}

    def test_snake_members_included(self, corpus):
        for s in corpus:
            if s.r >= 3:
                assert set(s.intervals) <= sa.interval_set(s)

    def test_needs_length_three(self, s2):
        with pytest.raises(sa.PreconditionError):
            sa.tilde_interval_set(s2)

    def test_generator_intervals_small_ranks(self, s2):
        assert sa.generator_intervals(s2) == frozenset(
            {Interval(0, 2), Interval(-1, 1), Interval(0, 1), Interval(-1, 2)})
        one = sa.parse_snake("[(0,2)] @ n=3")
        assert sa.generator_intervals(one) == frozenset({Interval(0, 2)})

    def test_reflection_equivariance(self, small_corpus):
        for s in small_corpus:
            if s.r < 3:
                continue
            got = {iv.reflect() for iv in sa.interval_set(s)}
            assert got == set(sa.interval_set(s.reflect()))


class TestClosure:
    def test_sstar(self, sstar):
        assert sa.closure_check(sstar)

    def test_corpus(self, corpus):
        assert all(sa.closure_check(s) for s in corpus if s.r >= 3)


class TestWindows:
    def test_bare_slice(self, sstar):
        win = sa.window_snake(sstar, 0, 0, 0, 3)
        assert win.intervals == (Interval(-1, 4), Interval(2, 5))

    def test_left_synthetic(self, sstar):
        win = sa.window_snake(sstar, 1, 0, 1, 5)
        assert win.iv(1) == Interval(0, 4)
        assert win.intervals[1:] == sstar.intervals[2:]

    def test_right_synthetic(self, sstar):
        win = sa.window_snake(sstar, 0, 1, -1, 2)
        assert win.intervals[:2] == sstar.intervals[:2]
        assert win.iv(3) == Interval(1, 5)

    def test_full_window_weight(self, sstar):
        assert sa.window_snake(sstar, 0, 0, -1, 5).weight == sstar.weight

    def test_windows_are_prime(self, corpus):
        # the slices too, which the window table leaves unchecked
        for s in corpus:
            for cuts, ivs in window_cuts(s):
                assert snakes._classify(sa.Snake(s.n, ivs)).prime, (s, cuts)

    def test_out_of_range_side_terms_forbidden(self, corpus, sstar):
        # left condition reads position p+3, right condition reads l+2
        for s in corpus:
            for (p, l, e, e2), _ in window_cuts(s):
                assert not (e == 1 and (p < 1 or p + 3 > s.r))
                assert not (e2 == 1 and (l < 2 or l > s.r - 2))
        with pytest.raises(sa.PreconditionError):
            sa.window_snake(sstar, 0, 1, -1, 1)

    def test_non_prime_window_is_a_falsified_invariant(self, sstar, monkeypatch):
        # the window table checks every window with a side term: one that
        # classifies non-prime is a falsified invariant naming its cuts and
        # its snake
        bad = sa.Snake(6, (Interval(0, 4),) + sstar.intervals[2:5])
        real = primesets._classify

        def classify(t):
            c = real(t)
            return c._replace(prime=False) if t == bad else c

        snakes._memo.cache_clear()
        monkeypatch.setattr(primesets, "_classify", classify)
        try:
            with pytest.raises(sa.FalsifiedInvariantError) as info:
                window_cuts(sstar)
        finally:
            monkeypatch.undo()
            snakes._memo.cache_clear()
        assert str(info.value) == (
            "window e=1 e2=0 p=1 l=5 of %s materialized non-prime %s" % (sstar, bad))
        assert sa.window_snake(sstar, 1, 0, 1, 5) == bad

    def test_bad_cuts(self, sstar):
        with pytest.raises(sa.PreconditionError):
            sa.window_snake(sstar, 0, 0, 3, 3)
        for e, e2 in ((2, 0), (0, -1)):
            with pytest.raises(sa.PreconditionError):
                sa.window_snake(sstar, e, e2, 0, 3)

    @pytest.mark.parametrize("cuts", [(0, 0, 0.0, 3), (False, 0, 0, 3), (0, True, 0, 3),
                                      (0, 0, 0, 3.0)], ids=repr)
    def test_non_integer_cuts(self, sstar, cuts):
        with pytest.raises(sa.PreconditionError,
                           match=r"^bad window cuts e=%s e2=%s p=%s l=%s for r=5$" % cuts):
            sa.window_snake(sstar, *cuts)


class TestDescriptorSets:
    def test_sstar_sizes(self, sstar):
        assert len(sa.pr_set(sstar)) == 27
        assert len(sa.fr_set(sstar)) == 6

    def test_sstar_fr_weights(self, sstar):
        got = sorted(str(d.weight) for d in sa.fr_set(sstar))
        assert got == [
            "w{-1,4} * w{0,5}", "w{-1,5} * w{0,6}", "w{0,4} * w{1,5}",
            "w{1,3} * w{2,4}", "w{1,4} * w{2,5}", "w{2,3} * w{3,4}"]

    def test_forbidden_windows_show_up_frozen(self, sstar):
        # these products are never emitted as windows, only as frozen pairs
        pr_weights = {d.weight for d in sa.pr_set(sstar)}
        fr_weights = {d.weight for d in sa.fr_set(sstar)}
        for text in ("w{2,3} * w{3,4}", "w{-1,5} * w{0,6}"):
            assert w(text) not in pr_weights
            assert w(text) in fr_weights

    def test_generators_are_descriptors(self, sstar):
        pr_weights = {d.weight for d in sa.pr_set(sstar)}
        for iv in sa.interval_set(sstar):
            assert MonoidElement.generator(iv, sstar.n) in pr_weights

    def test_index_covers_both_sets(self, corpus):
        # the two sets may overlap in weight away from the boundary shape;
        # the index resolves ties in favour of the first set
        for s in corpus:
            index = sa.descriptor_index(s)
            pr_weights = {d.weight for d in sa.pr_set(s)}
            fr_weights = {d.weight for d in sa.fr_set(s)}
            assert set(index) == pr_weights | fr_weights
            assert all(d.weight == w_ for w_, d in index.items())
            for w_ in pr_weights:
                assert index[w_].kind in ("generator", "window")

    def test_no_identity_descriptor(self, corpus):
        for s in corpus[:200]:
            for d in sa.pr_set(s) + sa.fr_set(s):
                assert not d.weight.is_one
                assert d.weight == MonoidElement.from_pairs(
                    s.n, ((iv, 1) for iv in d.intervals))

    def test_pr_set_matches_checked_construction(self, corpus):
        # window weights are formed unchecked from their intervals; the
        # checked constructor must give the same descriptors in the same order
        for s in corpus:
            for x in (s, s.reflect()):
                assert sa.pr_set(x) == checked_pr_set(x), str(x)

    def test_fr_empty_for_singletons(self):
        assert sa.fr_set(sa.parse_snake("[(0,2)] @ n=3")) == ()

    def test_rank2(self, s2):
        assert sorted(str(d.weight) for d in sa.pr_set(s2)) == [
            "w{-1,1}", "w{0,2}"]
        assert sorted(str(d.weight) for d in sa.fr_set(s2)) == [
            "w{-1,1} * w{0,2}", "w{-1,2}", "w{0,1}"]

    def test_reflection_equivariance(self, small_corpus):
        for s in small_corpus:
            for fn in (sa.pr_set, sa.fr_set):
                got = {d.weight.reflect() for d in fn(s)}
                assert got == {d.weight for d in fn(s.reflect())}
