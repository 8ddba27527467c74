import pytest

import snakealg as sa
from snakealg import Interval, is_trivial

from conftest import monomials, translated


def w(text, n):
    return sa.parse_monoid_element(text, n)


class TestConditions:
    def test_rank2_pair(self, s2):
        t = sa.parse_snake("[(0,3),(-2,1)] @ n=5")
        assert sa.check_iso_conditions(s2, t)

    def test_reflection_breaks_first_bit(self, s2):
        assert not sa.check_iso_conditions(s2, s2.reflect())

    def test_length_mismatch(self, s2, sstar):
        assert not sa.check_iso_conditions(s2, sstar)

    def test_identity(self, corpus):
        for s in corpus[:100]:
            assert sa.check_iso_conditions(s, s)

    def test_translation(self, corpus):
        for s in corpus[:100]:
            assert sa.check_iso_conditions(s, translated(s, 3))

    def test_rank1_always(self):
        a = sa.parse_snake("[(0,2)] @ n=3")
        b = sa.parse_snake("[(0,5)] @ n=6")
        assert sa.check_iso_conditions(a, b)

    def test_short_snakes_follow_triviality_rule(self, small_corpus):
        """Up to length 2 the generators are the non-trivial intervals at the
        four positions, so the membership pattern is the triviality pattern."""
        def triviality_rule(s, t):
            if s.r == 1:
                return True
            if sa.classify(s).eps[0] != sa.classify(t).eps[0]:
                return False
            return all(is_trivial(Interval(s.iv(m).i, s.iv(l).j), s.n)
                       == is_trivial(Interval(t.iv(m).i, t.iv(l).j), t.n)
                       for m, l in ((1, 1), (2, 2), (1, 2), (2, 1)))

        short = [s for s in small_corpus if s.r <= 2]
        assert len(short) == 76
        pairs = [(s, t) for s in short for t in short if s.r == t.r]
        assert len(pairs) == 4936
        for s, t in pairs:
            assert sa.check_iso_conditions(s, t) == triviality_rule(s, t), (str(s), str(t))
        # pairs that only the triviality pattern tells apart
        assert sum(1 for s, t in pairs if s.r == 2
                   and sa.classify(s).eps[0] == sa.classify(t).eps[0]
                   and not triviality_rule(s, t)) == 1200


class TestBuildIso:
    def test_rank2_map(self, s2):
        t = sa.parse_snake("[(0,3),(-2,1)] @ n=5")
        iso = sa.build_iso(s2, t)
        assert iso.mapping[Interval(0, 2)] == Interval(0, 3)
        assert iso.mapping[Interval(-1, 1)] == Interval(-2, 1)
        assert iso.eta(w("w{0,2} * w{-1,1}", 3)) == w("w{0,3} * w{-2,1}", 5)

    def test_refuses_unmatched(self, s2):
        with pytest.raises(sa.PreconditionError):
            sa.build_iso(s2, s2.reflect())

    def test_translation_iso_is_translation(self, sstar):
        iso = sa.build_iso(sstar, translated(sstar, 2))
        for a, b in iso.pairs:
            assert b == a.translate(2)

    def test_eta_outside_submonoid(self, s2):
        iso = sa.build_iso(s2, s2)
        with pytest.raises(sa.PreconditionError) as info:
            iso.eta(w("w{1,3}", 3))
        assert str(info.value) == (
            "element w{1,3} is outside the submonoid of [(0,2),(-1,1)] @ n=3")
        # one generator outside is enough, wherever it sorts
        with pytest.raises(sa.PreconditionError) as info:
            iso.eta(w("w{0,2}^2 * w{1,3} * w{-1,1}", 3))
        assert str(info.value) == ("element w{-1,1} * w{0,2}^2 * w{1,3} is outside "
                                   "the submonoid of [(0,2),(-1,1)] @ n=3")

    def test_eta_refuses_other_rank(self, s2):
        iso = sa.build_iso(s2, sa.parse_snake("[(0,3),(-2,1)] @ n=5"))
        with pytest.raises(sa.PreconditionError, match="^rank mismatch: 7 vs 3$"):
            iso.eta(w("w{0,2}", 7))
        with pytest.raises(sa.PreconditionError, match="^rank mismatch: 7 vs 3$"):
            sa.factor(w("w{0,2}", 7), s2)


class TestTransport:
    def test_translation_pairs(self, small_corpus):
        for s in small_corpus:
            iso = sa.build_iso(s, translated(s, 1))
            for m in monomials(s, 3):
                assert sa.transport_check(iso, m)

    def test_rank2_pair(self, s2):
        t = sa.parse_snake("[(0,3),(-2,1)] @ n=5")
        iso = sa.build_iso(s2, t)
        for m in monomials(s2, 4):
            assert sa.transport_check(iso, m)

    def test_generic_pairs(self, corpus):
        by_r = {}
        for s in corpus:
            by_r.setdefault(s.r, []).append(s)
        checked = 0
        for r, group in sorted(by_r.items()):
            if r < 3:
                continue
            for s in group[:12]:
                for t in group:
                    if t is s or not sa.check_iso_conditions(s, t):
                        continue
                    iso = sa.build_iso(s, t)
                    for m in monomials(s, 2):
                        assert sa.transport_check(iso, m)
                    checked += 1
                    break
        assert checked >= 10
