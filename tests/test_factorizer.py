import gc
import sys
import weakref

import pytest

import snakealg as sa
import snakealg.cli  # noqa: F401  (its caches are checked too)
from snakealg import MonoidElement, Snake, factorizer, snakes
from snakealg.factorizer import SnakeContext, snake_context
from snakealg.primesets import window_cuts

from conftest import check_levels, check_shat_rule, children, monomials, tree


def w(text, n=6):
    return sa.parse_monoid_element(text, n)


class TestWorkedExamples:
    def test_sstar_head_pair_is_one_window(self, sstar):
        f = sa.factor(w("w{0,6} * w{-1,4}"), sstar)
        assert len(f) == 1
        assert f.factors[0].kind == "window"
        assert f.weight == w("w{0,6} * w{-1,4}")

    def test_sstar_full_weight(self, sstar):
        f = sa.factor(sstar.weight, sstar)
        assert f.weight == sstar.weight
        assert len(f) == 1

    def test_identity(self, sstar):
        f = sa.factor(MonoidElement.one(6), sstar)
        assert len(f) == 0

    def test_rank2_pairing(self, s2):
        f = sa.factor(w("w{0,2} * w{-1,1}", 3), s2)
        assert f.weight_multiset() == (w("w{-1,1} * w{0,2}", 3),)
        f = sa.factor(w("w{0,2}^2 * w{-1,1}", 3), s2)
        assert f.weight_multiset() == (w("w{-1,1} * w{0,2}", 3), w("w{0,2}", 3))
        big = 10 ** 12
        f = sa.factor(w("w{0,2}^%d * w{-1,1}^%d * w{-1,2}^3" % (big + 5, big), 3), s2)
        assert [(str(d), m) for d, m in f.pairs] == [
            ("pair[(0,2),(-1,1)]", big), ("extremal[(-1,2)]", 3),
            ("generator[(0,2)]", 5)]

    def test_rank1(self):
        s = sa.parse_snake("[(0,2)] @ n=3")
        f = sa.factor(w("w{0,2}^3", 3), s)
        assert len(f) == 3
        f = sa.factor(w("w{0,2}^%d" % 10 ** 12, 3), s)
        assert [(str(d), m) for d, m in f.pairs] == [("generator[(0,2)]", 10 ** 12)]

    def test_outside_submonoid(self, sstar):
        with pytest.raises(sa.PreconditionError) as info:
            sa.factor(w("w{0,3}"), sstar)
        assert str(info.value) == "element w{0,3} is outside the submonoid of %s" % sstar


class TestInvariants:
    def test_descriptor_fixed_points(self, corpus):
        for s in corpus[:400]:
            for d in sa.pr_set(s) + sa.fr_set(s):
                f = sa.factor(d.weight, s)
                assert f.weight_multiset() == (d.weight,)

    def test_weight_recovery_and_alphabet(self, small_corpus):
        for s in small_corpus:
            index = sa.descriptor_index(s)
            for m in monomials(s, 3):
                f = sa.factor(m, s)
                assert f.weight == m if f.factors else m.is_one
                for d in f.factors:
                    assert d.weight in index

    def test_idempotent_on_own_factors(self, small_corpus):
        for s in small_corpus:
            for m in monomials(s, 3):
                for d in sa.factor(m, s).factors:
                    again = sa.factor(d.weight, s)
                    assert again.weight_multiset() == (d.weight,)

    def test_oracle_containment(self, small_corpus):
        for s in small_corpus:
            for m in monomials(s, 3):
                sols = sa.oracle_factorizations(m, s, cap=3)
                f = sa.factor(m, s)
                assert f.weight_multiset() in sols

    def test_reflection_equivariance(self, small_corpus):
        for s in small_corpus:
            sr = s.reflect()
            for m in monomials(s, 3):
                left = sa.factor(m, s).weight_multiset()
                right = sa.factor(m.reflect(), sr).weight_multiset()
                assert sorted(x.reflect().exps for x in left) == sorted(
                    x.exps for x in right)


def check_links(ctx):
    """Every context under ctx, at any depth, is of the tail or the ŝ snake
    of its parent, as it is: none is of a reflected snake.  Each works over
    its parent's alphabet."""
    s = ctx.snake
    if s.r >= 3:
        assert ctx.tail_ctx.snake == s.subsnake(2, s.r), s
        if ctx.shat_ctx is not None:
            assert ctx.shat_ctx.snake == Snake(s.n, (ctx.head[1],) + s.intervals[2:]), s
    else:
        assert ctx.tail_ctx is None and ctx.shat_ctx is None, s
    for child in children(ctx):
        assert child.index is ctx.index and child.alphabet is ctx.alphabet, s
        check_links(child)


class TestBothOrientations:
    def test_links_are_tail_and_shat(self, sstar, small_corpus):
        bit1 = [s for s in small_corpus
                if s.r >= 3 and sa.classify(s).eps[0] == 1][::5]
        assert len(bit1) >= 4
        for s in [sstar, sstar.reflect()] + bit1:
            ctx = snake_context(s)
            assert ctx.tail_ctx is not None and ctx.shat_ctx is not None, s
            # g2 goes through ŝ, and what is left of g22 through the tail
            sa.factor(MonoidElement.from_pairs(s.n, ((ctx.head[1], 1), (s.iv(2), 1))), s)
            check_links(ctx)


class TestOneAlphabet:
    def test_every_level_restricts_the_top_alphabet(self, corpus):
        # the 1853 snakes, and 6298 tails and prime ŝ snakes at every depth
        # below them (one snake can be reached along two paths)
        assert sum(check_levels(s) for s in corpus) == 8151


class TestShatRule:
    def test_shat_is_prime_exactly_when_the_tail_lacks_g2(self, corpus):
        # every distinct snake of length >= 3 in the trees of the corpus
        checked = set()
        for s in corpus:
            checked |= check_shat_rule(s)
        assert len(checked) == 2704


class TestSharedChildren:
    def test_tail_of_shat_is_the_tail_of_the_tail(self, sstar, monkeypatch, fresh_memo):
        compiled = []
        init = SnakeContext.__init__
        monkeypatch.setattr(SnakeContext, "__init__",
                            lambda self, s, *args: compiled.append(s) or init(self, s, *args))
        top = snake_context(sstar)
        assert top.shat_ctx.tail_ctx is top.tail_ctx.tail_ctx
        # each snake of the tree once, depth first, a tail before an ŝ
        assert compiled == [
            sstar, sstar.subsnake(2, 5), sstar.subsnake(3, 5), sstar.subsnake(4, 5),
            top.tail_ctx.tail_ctx.shat_ctx.snake, top.shat_ctx.snake]
        assert set(compiled) == {ctx.snake for ctx in tree(sstar)}

    def test_contexts_go_with_their_top(self, sstar, fresh_memo):
        # freed by reference counting: no context holds the compile map
        top = snake_context(sstar)
        shared = weakref.ref(top.shat_ctx.tail_ctx)
        assert shared() is top.tail_ctx.tail_ctx
        gc.disable()
        try:
            snakes._memo.cache_clear()
            del top
            assert shared() is None
        finally:
            gc.enable()

    def test_each_snake_is_compiled_once_per_top(self, corpus):
        for s in corpus:
            todo, seen = [snake_context(s)], {}
            while todo:
                ctx = todo.pop()
                assert seen.setdefault(ctx.snake, ctx) is ctx, (str(s), str(ctx.snake))
                todo += children(ctx)


def record_ledgers(monkeypatch, contexts, runs):
    """Append the snake of each context in contexts to runs whenever its
    ledger runs."""
    for ctx in contexts:
        def ledger(self, *args, _run=ctx._ledger):
            runs.append(self.snake)
            return _run(self, *args)
        monkeypatch.setattr(ctx, "_ledger", ledger)


class TestOneCheckedPass:
    def test_corrupt_tail_names_the_tail(self, sstar, monkeypatch, fresh_memo):
        # w{1,3} lives over the last tail [(1,3),(3,4)]; its generator
        # descriptor in the shared alphabet is corrupted to weigh w{1,3}^2
        # in every context of the tree
        tail = sstar.subsnake(4, 5)
        ctx = snake_context(sstar)
        k = next(k for k, d in enumerate(ctx.alphabet) if str(d) == "generator[(1,3)]")
        exps = list(ctx.exps)
        exps[k] = ((sa.Interval(1, 3), 2),)
        for c in tree(sstar):
            monkeypatch.setattr(c, "exps", tuple(exps))
        with pytest.raises(sa.FalsifiedInvariantError) as info:
            sa.factor(w("w{1,3}"), sstar)
        assert str(info.value) == "weight recovery failed for w{1,3} over %s: got 1" % tail

    def test_tail_only_element_walks_down_to_the_last_tail(self, sstar, monkeypatch):
        chain = [snake_context(sstar)]
        while len(chain) < 4:
            chain.append(chain[-1].tail_ctx)
        assert [ctx.snake for ctx in chain] == [sstar.subsnake(p, 5) for p in (1, 2, 3, 4)]
        runs, solves = [], []
        record_ledgers(monkeypatch, chain, runs)
        solve = SnakeContext.solve
        monkeypatch.setattr(SnakeContext, "solve",
                            lambda self, *args: solves.append(self.snake) or solve(self, *args))
        f = sa.factor(w("w{1,3}^2 * w{1,4} * w{3,4}"), sstar)
        assert [str(d) for d in f.factors] == [
            "window[(1,3),(3,4)]", "generator[(1,3)]", "generator[(1,4)]"]
        # one ledger per snake of the tail chain, and one weight check
        assert runs == [ctx.snake for ctx in chain]
        assert solves == [sstar]

    def test_compile_reads_each_snake_of_the_tree_once(self, sstar, monkeypatch, fresh_memo):
        read = []
        gens = factorizer.generator_intervals
        monkeypatch.setattr(factorizer, "generator_intervals",
                            lambda s: read.append(s) or gens(s))
        snake_context(sstar)
        assert len(read) == len(set(read)) == 6
        assert set(read) == {ctx.snake for ctx in tree(sstar)}

    def test_missing_intermediate_peel_names_its_snake(self, sstar, monkeypatch, fresh_memo):
        # w{-1,5}, the g4 of sstar's first tail, lives over that tail, whose
        # g4 peel is made to find no descriptor
        middle = snake_context(sstar).tail_ctx
        g4 = middle.head[3]
        monkeypatch.setattr(middle, "p4", (None, middle.p4[1]))
        with pytest.raises(sa.FalsifiedInvariantError) as info:
            sa.factor(MonoidElement.from_pairs(6, [(g4, 1)]), sstar)
        assert str(info.value) == "weight %s is not a prime descriptor of %s" % (
            w("w{-1,5}"), middle.snake)

    def test_non_generator_descriptor_interval(self, sstar, monkeypatch, fresh_memo):
        # sstar's alphabet gains a descriptor weighing w{0,3}, which is not
        # one of its generators
        by_weight = factorizer.descriptor_index
        bad = w("w{0,3}")

        def corrupt(s):
            out = dict(by_weight(s))
            if s == sstar:
                out[bad] = sa.PrimeDescriptor("generator", (sa.Interval(0, 3),), bad)
            return out
        monkeypatch.setattr(factorizer, "descriptor_index", corrupt)
        with pytest.raises(sa.FalsifiedInvariantError) as info:
            sa.factor(w("w{0,6}"), sstar)
        assert str(info.value) == (
            "descriptor weight interval (0,3) is not a generator of %s" % sstar)


def stack_depth():
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class TestHeightIndependence:
    def test_every_generator_at_multiplicity_97(self, sstar):
        gens = sa.generator_intervals(sstar)
        assert len(gens) == 12
        m = MonoidElement.from_exponents(6, {iv: 97 for iv in gens})
        assert m.ht == 1164
        f = sa.factor(m, sstar)
        assert f.weight == m
        assert len(f) == len(f.factors)

    @pytest.mark.parametrize("mirrored", [False, True], ids=["sstar", "reflected"])
    def test_height_10000_in_bounded_stack(self, sstar, mirrored):
        s = sstar.reflect() if mirrored else sstar
        gens = sorted(sa.generator_intervals(s))
        m = MonoidElement.from_exponents(
            6, {iv: 10000 // len(gens) + (k < 10000 % len(gens)) for k, iv in enumerate(gens)})
        assert m.ht == 10000
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(stack_depth() + 100)
        try:
            f = sa.factor(m, s)
        finally:
            sys.setrecursionlimit(limit)
        assert f.weight == m


def library_caches():
    """Every object with ``cache_info`` on a module attribute of the package."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name.startswith("snakealg") and mod is not None:
            for f in vars(mod).values():
                if hasattr(f, "cache_info"):
                    found[id(f)] = f
    return list(found.values())


class TestBoundedCaches:
    def test_distinct_elements_add_no_cache_entries(self, sstar):
        def entries():
            return sum(f.cache_info().currsize for f in library_caches())

        for m in monomials(sstar, 2):
            sa.factor(m, sstar)
        before = entries()
        gens = sorted(sa.generator_intervals(sstar))
        for k in range(1, 200):
            sa.factor(MonoidElement.from_exponents(
                6, {gens[k % 12]: k, gens[5 * k % 12]: 3, gens[7 * k % 12]: 1}), sstar)
        assert entries() == before

    def test_every_cache_is_bounded(self):
        # the per-snake memo is the package's only cache
        assert library_caches() == [snakes._memo]
        assert snakes._memo.cache_info().maxsize == snakes.SNAKE_MEMO_SIZE

    def test_descriptor_sets_stay_within_memo(self, corpus):
        assert len(corpus) > snakes.SNAKE_MEMO_SIZE
        first = sa.pr_set(corpus[0])
        for s in corpus:
            sa.pr_set(s)
        assert snakes._memo.cache_info().currsize <= snakes.SNAKE_MEMO_SIZE
        again = sa.pr_set(corpus[0])
        assert again == first and again is not first  # evicted, then recomputed

    def test_enumeration_leaves_memo_alone(self):
        before = snakes._memo.cache_info().currsize
        count = sum(1 for _ in sa.enumerate_snakes(sa.CorpusSpec(r_max=6, span=9)))
        assert count == 22939
        assert snakes._memo.cache_info().currsize == before

    def test_classification_lives_in_the_memo(self, sstar, fresh_memo):
        # the window table classifies its side-term windows with the kernel,
        # so sstar's own entry is the only one it adds
        window_cuts(sstar)
        assert snakes._memo.cache_info().currsize == 1
        assert snakes._classify in snakes._memo(sstar)
        assert snakes._memo.cache_info().currsize == 1
        c = sa.classify(sstar)
        assert sa.classify(sstar) is c
        snakes._memo.cache_clear()
        again = sa.classify(sstar)
        assert again == c and again is not c


class TestCompatibility:
    def test_pair_not_compatible(self, s2):
        f1 = sa.factor(w("w{0,2}", 3), s2)
        f2 = sa.factor(w("w{-1,1}", 3), s2)
        assert not sa.compatible_product(f1, f2, s2)

    def test_square_compatible(self, s2):
        f = sa.factor(w("w{0,2}", 3), s2)
        assert sa.compatible_product(f, f, s2)
        # multiplicities are compared, not expanded
        f = sa.factor(w("w{0,2}^%d" % 10 ** 12, 3), s2)
        assert sa.compatible_product(f, f, s2) is True

    def test_identity_compatible(self, s2):
        f0 = sa.factor(MonoidElement.one(3), s2)
        f = sa.factor(w("w{0,2}", 3), s2)
        assert sa.compatible_product(f0, f, s2)
        assert sa.compatible_product(f, f0, s2)

