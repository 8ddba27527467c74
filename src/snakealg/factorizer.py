"""Canonical factorization of monoid elements into prime descriptors.

The engine below is a case ledger.  It reads the head generators of a snake
for either first alternation bit and otherwise only which generators an
element holds, so it runs on both orientations as they are.

Each snake ``factor`` is called on is compiled once into a ``SnakeContext``:
its generators, its head generators and its descriptor alphabet keyed by
weight.  The contexts the ledger hands work to (the tail and the extended
snake ŝ) are compiled with it, in one pass, over the same alphabet, since
their primes are the snake's primes that live over their generators.  They all
have the same rank, so an interval names the same generator in each, and
each works on an element as a map from interval to exponent.  The ledger
peels the whole multiplicity of a case in one step, so its cost depends on
the support of an element, not on its height.  An element that lives wholly
over the tail goes to the tail's context, one level at a time.  Each level
takes the weight of every factor it finds out of what it was handed, so one
whose factors do not multiply back to that raises at once, naming its snake.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter

from .core import Interval, MonoidElement, Snake, _set_hash, _Value
from .errors import FalsifiedInvariantError, PreconditionError
from .primesets import (PrimeDescriptor, descriptor_index, generator_intervals,
                        window_cuts)
from .snakes import crossed, per_snake, prime_tail, require_prime


@per_snake
def snake_context(s: Snake) -> "SnakeContext":
    """The compiled context of a prime snake, over its descriptor alphabet.
    It also holds the contexts it hands work to, each of a shorter snake
    over the same alphabet: the whole tree, compiled in this one call, with
    each snake of it compiled once."""
    _, exps, alphabet = zip(*sorted(
        (-sum(map(_exponent, w.exps)), w.exps, d)
        for w, d in descriptor_index(s).items()))
    ctx = SnakeContext(s, exps, alphabet, {e: k for k, e in enumerate(exps)}, {})
    for pairs in ctx.exps:
        for iv, _ in pairs:
            if iv not in ctx.gens:
                raise FalsifiedInvariantError(
                    "descriptor weight interval %s is not a generator of %s" % (iv, s))
    return ctx


class SnakeContext:
    """Everything the ledger needs to know about one prime snake s.

    An element maps each interval of its support to its exponent.
    ``alphabet`` lists the first descriptor of each weight of ``pr_set(t) +
    fr_set(t)`` in canonical order, where t is the snake ``snake_context``
    compiled: s itself, or the snake whose chain of tail and ŝ contexts
    leads to s.  Sorting descriptor indices sorts factors; ``exps[k]`` is
    ``alphabet[k]``'s weight as (interval, exponent) pairs, and ``index``
    maps it back to k.  The descriptors of s are those whose weights live
    over its generators.  A context of length r >= 3 holds the contexts of
    its tail (built by ``prime_tail``, which keeps its classification, so no
    tail is classified anew) and, when the slanted case can fire, of ŝ.  In
    one ``snake_context`` call, ``compiled`` maps each snake compiled so far
    to its context, so a snake two paths reach (the tail of ŝ is the tail of
    the tail) is compiled once.
    """

    # the contexts of the tail and of ŝ, for r >= 3 (ŝ only with ``slant``)
    tail_ctx = shat_ctx = None

    def __init__(self, s: Snake, exps: tuple, alphabet: tuple, index: dict,
                 compiled: dict):
        self.snake = s
        eps0 = require_prime(s).eps[0]
        self.exps, self.alphabet, self.index = exps, alphabet, index
        self.gens = generator_intervals(s)
        self.head = _head_generators(s, eps0) if s.r >= 3 else None
        self._windows = None
        # the ledger of this length, as a plain function so that the context
        # holds no reference to itself
        self._ledger = self._compile_ledger(compiled)

    # -- elements -----------------------------------------------------------

    def find(self, pairs) -> int | None:
        """The descriptor whose weight is the product of the (interval,
        exponent) pairs, or None."""
        acc: dict[Interval, int] = {}
        for iv, e in pairs:
            acc[iv] = acc.get(iv, 0) + e
        return self.index.get(tuple(sorted(acc.items())))

    def _peel(self, *ivs) -> tuple[int | None, tuple[Interval, ...]]:
        return self.find((iv, 1) for iv in ivs), ivs

    def vector(self, w: MonoidElement) -> dict[Interval, int]:
        if w.n != self.snake.n:
            raise PreconditionError("rank mismatch: %d vs %d" % (w.n, self.snake.n))
        v = dict(w.exps)
        self._check_member(v)
        return v

    def _check_member(self, v) -> None:
        if not self.gens.issuperset(v):
            raise PreconditionError("element %s is outside the submonoid of %s"
                                    % (self.element(v), self.snake))

    def element(self, v) -> MonoidElement:
        return MonoidElement.from_pairs(self.snake.n, v.items())

    def _child(self, t: Snake, compiled: dict) -> "SnakeContext":
        """The context of t over this alphabet, unless ``compiled`` holds it."""
        ctx = compiled.get(t)
        if ctx is None:
            ctx = compiled[t] = SnakeContext(t, self.exps, self.alphabet, self.index, compiled)
        return ctx

    def _holds(self, k: int, iv: Interval) -> bool:
        """Whether descriptor k holds the interval iv, which is not trivial
        (so it is one of k's intervals exactly when it is in k's weight)."""
        return any(c == iv for c, _ in self.exps[k])

    # -- the ledger ---------------------------------------------------------

    def solve(self, v: dict[Interval, int]) -> dict[int, int]:
        """Multiplicity of each descriptor in the canonical factorization of
        the element v, which the ledger uses up: each level raises, naming its
        snake, if the factors it finds leave anything of what it was handed."""
        counts: dict[int, int] = {}
        self._ledger(self, v, counts)
        return counts

    def _emit(self, counts, peel, m) -> int:
        k, ivs = peel
        if k is None:
            raise FalsifiedInvariantError(
                "weight %s is not a prime descriptor of %s"
                % (MonoidElement.from_pairs(self.snake.n, ((iv, 1) for iv in ivs)),
                   self.snake))
        counts[k] = counts.get(k, 0) + m
        return k

    def _take(self, v, counts, peel, m) -> None:
        """Emit m copies of the descriptor of peel and take their weight out
        of v, dropping every interval whose exponent reaches 0."""
        for c, e in self.exps[self._emit(counts, peel, m)]:
            left = v.get(c, 0) - e * m
            if left:
                v[c] = left
            else:
                del v[c]

    def _compile_ledger(self, compiled):
        s = self.snake
        if s.r <= 2:
            # the descriptors of s: those of the alphabet over its generators
            self.own = [k for k, exps in enumerate(self.exps)
                        if self.gens.issuperset([iv for iv, _ in exps])]
            return SnakeContext._greedy
        g1, g2, g3, g4, g22, g23 = self.head
        self.tail_ctx = self._child(prime_tail(s), compiled)
        self.tail = self.tail_ctx.gens
        # g2 starts the slanted prefix, through ŝ (g2, then positions 3..r),
        # unless the tail takes it; g2 crosses a connected pair, so is in bounds
        self.slant = None if g2 in self.tail else g2
        if self.slant is not None:
            self.shat_ctx = self._child(Snake._of(s.n, (g2,) + s.intervals[2:]), compiled)
        self.p4 = self._peel(g4)
        self.p3_22, self.p3 = self._peel(g3, g22), self._peel(g3)
        self.p1_23, self.p23 = self._peel(g1, g23), self._peel(g23)
        self.p1 = self._peel(g1)
        return SnakeContext._head

    def _greedy(self, v, counts):
        """The ledger for r <= 2: each descriptor of s in canonical order
        takes as many copies as are left.  The pair is the only descriptor of
        height 2, so it takes min(a, b) and the generators take the rest.  An
        exponent left over is weight that no descriptor of s accounts for."""
        handed = dict(v)
        for k in self.own:
            exps = self.exps[k]
            if not v.get(exps[0][0]):  # off the support
                continue
            m = min([v.get(c, 0) // e for c, e in exps])
            if m:
                counts[k] = counts.get(k, 0) + m
                for c, e in exps:
                    v[c] -= e * m
        if any(v.values()):
            raise FalsifiedInvariantError(
                "weight recovery failed for %s over %s: got %s"
                % (self.element(handed), self.snake,
                   self.element({c: e - v[c] for c, e in handed.items() if e != v[c]})))

    def _head(self, v, counts):
        """The main ledger, for r >= 3 and either first alternation bit.

        Each pass peels one case with its whole multiplicity.  While a run of
        the same peel lasts, every exponent it lowers stays positive, so the
        support, and with it every earlier case, is unchanged.
        """
        # a head generator that is not a generator of s is never a key of v
        g1, _, g3, g4, g22, g23 = self.head
        while v:
            # v lives over the tail (self.tail is its gens); its ledger uses v up
            if self.tail.issuperset(v):
                self.tail_ctx._ledger(self.tail_ctx, v, counts)
                return
            # anti-connected extremal generator splits off freely
            if g4 in v:
                self._take(v, counts, self.p4, v[g4])
                continue
            # the long head generator: paired with the second interval while
            # both last, then alone
            if g3 in v:
                if g22 in v:
                    self._take(v, counts, self.p3_22, min(v[g3], v[g22]))
                else:
                    self._take(v, counts, self.p3, v[g3])
                continue
            # the deep cross generator: paired with the head interval while
            # both last, then alone
            if g23 in v:
                if g1 in v:
                    self._take(v, counts, self.p1_23, min(v[g23], v[g1]))
                else:
                    self._take(v, counts, self.p23, v[g23])
                continue
            # extra copies of the head interval
            a1, a22 = v.get(g1, 0), v.get(g22, 0)
            if a1 > a22:
                self._take(v, counts, self.p1, a1 - a22)
                continue
            if self.slant in v:
                self._slanted_prefix(v, counts)
                continue
            self._prefix_windows(v, counts)

    def _slanted_prefix(self, v, counts):
        """Peel the slanted prefix through the extended snake ŝ of length r-1."""
        shat = self.shat_ctx
        g1, g2, g22 = self.head[0], self.head[1], self.head[4]
        what = {iv: e for iv, e in v.items() if iv != g1 and iv != g22}
        shat._check_member(what)
        special = [(k, m) for k, m in shat.solve(what).items() if self._holds(k, g2)]
        if not special:
            # shat's ledger used up what; v still holds it
            raise FalsifiedInvariantError(
                "no prefix-bearing factor for %s over %s" % (self.element(
                    {iv: e for iv, e in v.items() if iv != g1 and iv != g22}), shat.snake))
        for k, m in special:
            self._take(v, counts, (k, self.alphabet[k].intervals), m)

    def _prefix_windows(self, v, counts):
        """Final case: push everything but the head interval through the tail
        and re-read the factors that carry the second interval as prefix
        windows of s, the first of which absorb the head interval."""
        g1, g22 = self.head[0], self.head[4]
        a1, c = v.get(g1, 0), v.get(g22, 0)
        if c == 0:
            raise FalsifiedInvariantError(
                "ledger exhausted for %s over %s" % (self.element(v), self.snake))
        wtil = {iv: e for iv, e in v.items() if iv != g1}
        tail = self.tail_ctx
        windows = self._prefix_table()
        tail._check_member(wtil)
        special = []
        for k, m in sorted(tail.solve(wtil).items()):
            if self._holds(k, g22):
                special.append((k, m))
            else:
                counts[k] = counts.get(k, 0) + m
        found = sum(m for _, m in special)
        if found != c:
            raise FalsifiedInvariantError(
                "expected %d prefix-window factors for %s over %s, found %d"
                % (c, self.element(v), self.snake, found))
        annotated = []
        for k, m in special:
            window = windows.get(k)
            if window is None:
                # the tail's ledger used up wtil; v still holds it
                raise FalsifiedInvariantError(
                    "factor %s of %s is not a prefix window of %s"
                    % (self.alphabet[k].weight,
                       self.element({iv: e for iv, e in v.items() if iv != g1}), self.snake))
            annotated.append((window[0], k, m))
        # the first a1 windows in compatibility order absorb the head interval
        annotated.sort()
        for _, k, m in annotated:
            a = min(a1, m)
            a1 -= a
            if a:
                self._emit(counts, windows[k][1], a)
            if m - a:
                counts[k] = counts.get(k, 0) + m - a
        # that is all of v: the tail used up everything but g1, ``_head``
        # comes here only with a1 <= c and found == c, so the windows absorb
        # every copy of g1, and each product weighs its window times g1
        # (checked in ``_prefix_table``)
        v.clear()

    def _prefix_table(self):
        """Per descriptor that is a prefix window of s: its compatibility
        order, and the peel of its product with g1, checked to weigh the
        window times g1: no ledger takes that weight out of its map.
        ``_prefix_windows`` raises on any other factor that holds the second
        interval before it reads the table.  Compiled on first use and kept
        once complete."""
        if self._windows is None:
            s = self.snake
            g1 = s.intervals[0]
            windows = {}
            for (p, l, e, e2), ivs in window_cuts(s):
                if p == 0 and e == 0:
                    # compatibility ordering: even-parity windows ascending,
                    # then odd-parity windows descending
                    order = (0, 2 * l + e2) if (l + e2) % 2 == 0 else (1, -(2 * l + e2))
                    # a prime window has distinct, non-trivial intervals
                    k, (kp, with_g1) = self._peel(*ivs)[0], self._peel(g1, *ivs)
                    weight = tuple(sorted((c, 1) for c in with_g1))
                    if kp is not None and self.exps[kp] != weight:
                        raise FalsifiedInvariantError(
                            "prefix window product %s weighs %s over %s"
                            % (self.element(dict(weight)), self.element(dict(self.exps[kp])), s))
                    windows[k] = order, (kp, with_g1)
            self._windows = windows
        return self._windows


def _head_generators(s: Snake, e1: int) -> tuple[Interval, ...]:
    """g1, g2, g3, g4, g22 and g23 of the ledger, for first alternation bit
    e1.  Those at e1 = 1 are the reflections of those of the reflected snake
    at e1 = 0."""
    iv = (None,) + s.intervals  # 1-based
    g2, g4 = crossed(iv[1 + e1], iv[2 - e1])
    return (iv[1],
            g2,
            Interval(iv[1 + 2 * e1].i, iv[3 - 2 * e1].j),
            g4,
            iv[2],
            Interval(iv[2 + e1].i, iv[3 - e1].j))


_exponent = itemgetter(1)


class Factorization(_Value):
    """Distinct descriptors with their multiplicities, in canonical order:
    falling height, then weight."""

    __match_args__ = __slots__ = ("pairs",)

    def __init__(self, pairs: tuple[tuple[PrimeDescriptor, int], ...]):
        # _Value.__init__ written out: factor builds one per call
        _set_pairs(self, pairs)
        _set_hash(self, None)

    @property
    def factors(self) -> tuple[PrimeDescriptor, ...]:
        return tuple(d for d, m in self.pairs for _ in range(m))

    @property
    def weight(self) -> MonoidElement:
        if not self.pairs:
            raise PreconditionError("empty factorization has no intrinsic rank")
        return MonoidElement.from_pairs(
            self.pairs[0][0].weight.n,
            ((iv, e * m) for d, m in self.pairs for iv, e in d.weight.exps))

    def weight_multiset(self) -> tuple[MonoidElement, ...]:
        return tuple(d.weight for d, m in sorted(self.pairs, key=lambda p: p[0].weight.exps)
                     for _ in range(m))

    def __len__(self):
        return sum(m for _, m in self.pairs)


_set_pairs = Factorization.pairs.__set__


def factor(w: MonoidElement, s: Snake) -> Factorization:
    """The canonical prime factorization of w over s."""
    ctx = snake_context(s)
    counts = ctx.solve(ctx.vector(w))
    ks = sorted(counts)
    return Factorization(tuple(zip(map(ctx.alphabet.__getitem__, ks), map(counts.get, ks))))


def compatible_product(f1: Factorization, f2: Factorization, s: Snake) -> bool:
    """Whether the two factorizations stay intact under multiplication: the
    factorization of the product has the factors of both, with the summed
    multiplicities."""
    if not (f1.pairs and f2.pairs):
        return True
    merged = Counter()
    for d, m in f1.pairs + f2.pairs:
        merged[d.weight] += m
    combined = factor(f1.weight * f2.weight, s)
    return merged == Counter({d.weight: m for d, m in combined.pairs})
