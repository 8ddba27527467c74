import pytest

import snakealg as sa


def w(text, n):
    return sa.parse_monoid_element(text, n)


class TestExchangeS2:
    def test_exact_relation(self, s2):
        t = sa.exchange_triple(s2)
        assert [str(c.omega) for c in t.left] == ["w{0,2}", "w{-1,1}"]
        assert t.term1.omega == w("w{-1,1} * w{0,2}", 3)
        assert t.term2.omega == w("w{-1,2} * w{0,1}", 3)
        assert sorted(str(c.omega) for c in t.term2_components) == [
            "w{-1,2}", "w{0,1}"]


class TestExchangeGeneral:
    def test_weight_conservation(self, corpus):
        for s in corpus:
            if s.r < 2:
                continue
            t = sa.exchange_triple(s)
            assert t.left[0].omega * t.left[1].omega == t.term1.omega
            prod = sa.MonoidElement.one(s.n)
            for c in t.term2_components:
                prod = prod * c.omega
            assert prod == t.term2.omega

    def test_components_never_trivial(self, corpus):
        for s in corpus[:300]:
            if s.r < 2:
                continue
            for c in sa.exchange_triple(s).term2_components:
                assert not c.omega.is_one

    def test_three_way_split_when_endpoints_repeat(self):
        s = sa.parse_snake("[(0,4),(2,5),(1,3),(3,4)] @ n=4")
        assert s.iv(1).j == s.iv(4).j
        t = sa.exchange_triple(s)
        assert len(t.term2_components) in (2, 3)

    def test_needs_length_two(self):
        with pytest.raises(sa.PreconditionError):
            sa.exchange_triple(sa.parse_snake("[(0,2)] @ n=3"))

