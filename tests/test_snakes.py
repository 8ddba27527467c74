import pytest

import snakealg as sa
from snakealg import snakes

from conftest import boundary, translated


def snake(text):
    return sa.parse_snake(text)


class TestEpsilon:
    def test_sstar(self, sstar):
        assert sa.epsilon_sequence(sstar) == (0, 1, 0, 1, 0)

    def test_singleton(self):
        assert sa.epsilon_sequence(snake("[(0,2)] @ n=3")) == (0,)

    def test_pair_rising(self):
        assert sa.epsilon_sequence(snake("[(-1,1),(0,2)] @ n=3")) == (1, 0)

    def test_reflect_flips_bits(self, sstar):
        assert sa.epsilon_sequence(sstar.reflect()) == (1, 0, 1, 0, 1)

    def test_non_alternating(self):
        with pytest.raises(sa.NotAlternatingError):
            sa.epsilon_sequence(snake("[(0,3),(1,2),(0,1)] @ n=4"))


class TestClassify:
    def test_sstar_prime(self, sstar):
        c = sa.classify(sstar)
        assert c.stable and c.connected and c.prime

    def test_trivial_member_rejected(self):
        c = sa.classify(snake("[(1,1),(0,2)] @ n=3"))
        assert not c.stable

    def test_duplicate_rejected(self):
        c = sa.classify(snake("[(0,2),(0,2)] @ n=3"))
        assert not c.stable

    def test_stable_but_not_connected_exists(self):
        spec = sa.CorpusSpec(r_max=2, span=6, filters=frozenset({"stable"}))
        found = [s for s in sa.enumerate_snakes(spec) if not sa.classify(s).connected]
        assert found
        assert all(sa.classify(s).stable for s in found)

    def test_connected_not_prime(self):
        # distance-2 coincidence on the left endpoints
        s = snake("[(0,4),(2,5),(0,3)] @ n=5")
        c = sa.classify(s)
        assert c.stable and c.connected and not c.prime

    def test_nesting_required(self):
        c = sa.classify(snake("[(0,2),(1,4),(2,3)] @ n=4"))
        assert not c.stable

    def test_corpus_all_prime(self, small_corpus):
        assert all(sa.classify(s).prime for s in small_corpus)

    def test_translation_invariance(self, small_corpus):
        for s in small_corpus:
            assert sa.classify(translated(s, 2)) == sa.classify(s)

    def test_reflection_equivariance(self, small_corpus):
        for s in small_corpus:
            cs, cr = sa.classify(s), sa.classify(s.reflect())
            assert (cs.stable, cs.connected, cs.prime) == (cr.stable, cr.connected, cr.prime)


class TestPrimeTail:
    def test_kept_classification_is_the_kernel_s(self, corpus, fresh_memo):
        tails = 0
        for s in corpus:
            if s.r < 3:
                continue
            snakes._memo.cache_clear()
            t = snakes.prime_tail(s)
            assert t == s.subsnake(2, s.r)
            # the memo was empty, so it holds the classification prime_tail kept
            assert snakes._memo(t)[snakes._classify] == snakes._classify(t), s
            tails += 1
        assert tails > 1000

    def test_kept_value_is_served(self, sstar, fresh_memo):
        t = snakes.prime_tail(sstar)
        assert sa.classify(t) is snakes._memo(t)[snakes._classify]
        assert sa.classify(t).eps == sa.classify(sstar).eps[1:]

    def test_needs_length_three(self):
        with pytest.raises(sa.PreconditionError, match=r"^a prime tail needs length >= 3, got 2$"):
            snakes.prime_tail(snake("[(0,2),(-1,1)] @ n=3"))
        with pytest.raises(sa.PreconditionError, match="^snake is not prime"):
            snakes.prime_tail(snake("[(0,4),(2,5),(0,3)] @ n=5"))


class TestEnumeration:
    def test_sstar(self, sstar):
        assert sa.check_enumeration(sstar)

    def test_singleton(self):
        assert sa.check_enumeration(snake("[(0,2)] @ n=3"))

    def test_equal_far_endpoints_allowed(self):
        # distance-3 right endpoints coincide; strictness there is weak
        s = snake("[(0,4),(2,5),(1,3),(3,4)] @ n=4")
        assert sa.classify(s).prime
        assert sa.check_enumeration(s)

    def test_requires_prime(self):
        with pytest.raises(sa.PreconditionError):
            sa.check_enumeration(snake("[(0,4),(2,5),(0,3)] @ n=5"))

    def test_full_corpus(self, corpus):
        assert all(sa.check_enumeration(s) for s in corpus)

    def test_reflected_corpus(self, small_corpus):
        assert all(sa.check_enumeration(s.reflect()) for s in small_corpus)
