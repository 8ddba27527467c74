import pytest

import snakealg as sa
from snakealg import heightmap as hm, isomorph, primesets, snakes

from conftest import boundary


def w(text, n=6):
    return sa.parse_monoid_element(text, n)


class TestProfile:
    def test_sstar_values(self, sstar):
        h = hm.height_profile(sstar)
        assert h.N == 6
        assert h.p_seq == (1, 2, 3, 5, 6)
        assert h.xi == (7, 6, 7, 6, 5, 6)

    def test_sstar_interval_endpoints(self, sstar):
        h = hm.height_profile(sstar)
        assert (h.i_xi(1), h.j_xi(1)) == (3, 4)
        assert (h.i_xi(6), h.j_xi(6)) == (0, 6)

    def test_unit_steps(self, corpus):
        for s in corpus:
            if s.r < 3:
                continue
            h = hm.height_profile(s)
            assert all(abs(a - b) == 1 for a, b in zip(h.xi, h.xi[1:]))
            assert all((h.xi[t - 1] - t) % 2 == 0 for t in range(1, h.N + 1))

    def test_final_position_is_rank(self, corpus):
        for s in corpus:
            if s.r < 3:
                continue
            assert hm.p_sequence(s)[-1] == hm.n_of(s)

    def test_needs_length_three(self, s2):
        with pytest.raises(sa.PreconditionError):
            hm.height_profile(s2)

    def test_position_out_of_range(self, sstar):
        h = hm.height_profile(sstar)
        with pytest.raises(sa.PreconditionError):
            h.xi_at(7)
        for t in (1.5, 2.0, True):
            with pytest.raises(sa.PreconditionError,
                               match=r"^height position %s out of 1..6$" % t):
                h.xi_at(t)


class TestSnakeOfXi:
    def test_sstar_fixed_point(self, sstar):
        assert hm.snake_of_xi(sstar) == sstar

    def test_boundary_gate(self):
        s = sa.parse_snake("[(0,4),(2,5),(1,3)] @ n=4")
        assert sa.classify(s).prime and not boundary(s)
        with pytest.raises(sa.PreconditionError):
            hm.snake_of_xi(s)

    def test_idempotence(self, corpus):
        for s in corpus:
            if s.r < 3 or not boundary(s):
                continue
            t = hm.snake_of_xi(s)
            assert boundary(t)
            assert hm.snake_of_xi(t) == t

    def test_interval_set_identity(self, corpus):
        for s in corpus:
            if s.r < 3 or not boundary(s):
                continue
            h = hm.height_profile(s)
            assert sa.interval_set(hm.snake_of_xi(s)) == hm.interval_set_xi(h)


class TestPairElements:
    def test_sstar_examples(self, sstar):
        h = hm.height_profile(sstar)
        assert hm.omega_pair(h, 2, 3) == w("w{1,3} * w{2,5}")
        assert hm.omega_pair(h, 3, 4) == w("w{0,4} * w{2,5}")
        assert hm.omega_pair(h, 4, 5) == w("w{-1,4} * w{1,5}")

    def test_pairs_match_windows(self, sstar):
        h = hm.height_profile(sstar)
        for t in range(1, h.N + 1):
            for t2 in range(t + 1, h.N + 1):
                assert hm.omega_pair(h, t, t2) == hm.window_image(sstar, t, t2)

    def test_pairs_map_to_windows_on_corpus(self, corpus):
        # pair elements live on the height side; they equal the window
        # weights only after transport through the generator map
        for s in corpus:
            if s.r < 3 or not boundary(s):
                continue
            h = hm.height_profile(s)
            iso = hm.height_iso(s)
            for t in range(1, h.N + 1):
                for t2 in range(t + 1, h.N + 1):
                    img = iso.eta(hm.omega_pair(h, t, t2))
                    assert img == hm.window_image(s, t, t2), (str(s), t, t2)

    def test_bad_pair(self, sstar):
        h = hm.height_profile(sstar)
        with pytest.raises(sa.PreconditionError):
            hm.omega_pair(h, 3, 3)
        for t, t2 in ((0, 3), (2, 0), (3, 3), (1, 7)):
            with pytest.raises(sa.PreconditionError):
                hm.window_image(sstar, t, t2)

    @pytest.mark.parametrize("t, t2", [(1.5, 3), (True, 3), (2, 3.0)], ids=repr)
    def test_non_integer_pair(self, sstar, t, t2):
        # in range, but no height position: a bad input, not a library bug
        h = hm.height_profile(sstar)
        message = r"^bad position pair \(%s,%s\)$" % (t, t2)
        with pytest.raises(sa.PreconditionError, match=message):
            hm.omega_pair(h, t, t2)
        with pytest.raises(sa.PreconditionError, match=message):
            hm.window_image(sstar, t, t2)


class TestIndexSets:
    def test_sstar_counts(self, sstar):
        assert len(hm.pr_xi(sstar)) == 27
        assert len(hm.fr_xi(sstar)) == 6

    def test_sstar_bijection(self, sstar):
        image = hm.pr_bijection(sstar)
        assert set(image.values()) == {d.weight for d in sa.pr_set(sstar)}

    def test_corpus_bijection(self, corpus):
        for s in corpus:
            if s.r < 3 or not boundary(s):
                continue
            image = hm.pr_bijection(s)
            assert len(image) == len(sa.pr_set(s))

    def test_frozen_images(self, corpus):
        for s in corpus:
            if s.r < 3 or not boundary(s):
                continue
            iso = hm.height_iso(s)
            got = {iso.eta(x) for x in hm.fr_xi(s)}
            assert got == {d.weight for d in sa.fr_set(s)}


class TestClusterExport:
    def test_sstar(self, sstar):
        doc = hm.cluster_export(sstar)
        assert doc["type"] == "A_6"
        assert doc["xi"] == [7, 6, 7, 6, 5, 6]
        assert len(doc["exchangeable"]) == 27
        assert len(doc["frozen"]) == 6
        assert len(doc["correspondence"]) == 27

    def test_gate(self):
        s = sa.parse_snake("[(0,4),(2,5),(1,3)] @ n=4")
        with pytest.raises(sa.PreconditionError):
            hm.cluster_export(s)

    def test_builds_one_iso(self, sstar, monkeypatch):
        calls = []

        def counted(s, t):
            calls.append((s, t))
            return build_iso(s, t)

        build_iso = hm.build_iso
        monkeypatch.setattr(hm, "build_iso", counted)
        snakes._memo.cache_clear()
        hm.cluster_export(sstar)
        assert calls == [(hm.snake_of_xi(sstar), sstar)]

    def test_derives_each_fact_once(self, sstar, monkeypatch):
        calls = []
        walk = isomorph._match

        def counted(s, t):
            calls.append((s, t))
            return walk(s, t)

        # check_iso_conditions and build_iso both run the one matching walk
        monkeypatch.setattr(isomorph, "_match", counted)
        snakes._memo.cache_clear()
        hm.cluster_export(sstar)
        assert len(calls) == 1
        assert primesets.window_cuts(sstar) is primesets.window_cuts(sstar)
