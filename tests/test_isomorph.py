import pytest

import snakealg as sa
from snakealg import Interval

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
        with pytest.raises(sa.PreconditionError):
            iso.eta(w("w{1,3}", 3))


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
