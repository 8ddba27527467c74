"""Interval sets attached to a prime snake, window snakes, and the prime and
distinguished descriptor sets used as the factorization alphabet.  A window
weight is formed straight from the intervals of the one walk ``window_cuts``."""

from __future__ import annotations

from collections import namedtuple
from itertools import chain

from .core import Interval, MonoidElement, Snake, _check_interval, is_trivial
from .errors import FalsifiedInvariantError, PreconditionError
from .snakes import (_classify, both_ends_differ, crossed, is_boundary, linked,
                     pair_rank, per_snake, require_prime)


@per_snake
def tilde_interval_set(s: Snake) -> frozenset[Interval]:
    """All [i_p, j_q] with q in the four-position window around p."""
    eps = require_prime(s).eps
    r, ivs = s.r, s.intervals
    if r < 3:
        raise PreconditionError("interval windows need length >= 3")
    out = set()
    for p in range(r):
        e, i = eps[p], ivs[p].i
        for q in range(max(p - 1 - e, 0), min(p + 3 - e, r)):
            j = ivs[q].j
            if 0 <= j - i <= s.n + 1:
                out.add(Interval(i, j))
    return frozenset(out)


@per_snake
def interval_set(s: Snake) -> frozenset[Interval]:
    tilde = tilde_interval_set(s)
    out = frozenset(iv for iv in tilde if not is_trivial(iv, s.n))
    if is_boundary(s):
        expected = tilde - {Interval(s.i_max, s.j_min), Interval(s.i_min, s.j_max)}
        if out != expected:
            raise FalsifiedInvariantError(
                "boundary interval set mismatch for %s: %s vs %s"
                % (s, sorted(out), sorted(expected)))
    return out


@per_snake
def generator_intervals(s: Snake) -> frozenset[Interval]:
    """The generator alphabet of the submonoid attached to s, for any length."""
    require_prime(s)
    if s.r >= 3:
        return interval_set(s)
    if s.r == 2:
        a, b = s.intervals
        cands = (a, b) + crossed(a, b)
        return frozenset(iv for iv in cands if not is_trivial(iv, s.n))
    return frozenset(s.intervals)


def closure_check(s: Snake) -> bool:
    """Connected pairs inside the set exchange endpoints within the set."""
    ivs = interval_set(s)
    tilde = tilde_interval_set(s)
    for big in ivs:
        for small in ivs:
            if not (linked(small, big) and pair_rank(small, big) <= s.n):
                continue
            if not tilde.issuperset(crossed(big, small)):
                return False
    return True


def _side_terms(s: Snake) -> tuple[dict[int, Interval], dict[int, Interval]]:
    """The admissible side terms of the windows of s: the synthetic interval
    of a window with e = 1, by its cut p, and of one with e2 = 1, by its cut
    l.  A cut that is missing forbids the side term.  In particular, a side
    condition whose reference position (p + 3 or l + 2) falls off the snake
    forbids it; such windows duplicate frozen pairs weight-for-weight.
    Each side term is checked against the rank of s."""
    eps = require_prime(s).eps
    iv, n = (None,) + s.intervals, s.n  # 1-based
    left, right = {}, {}
    for p in range(1, s.r - 2):
        ep = eps[p - 1]
        if iv[p + ep].i != iv[p + 3].i and iv[p + 1 - ep].j != iv[p + 3].j:
            left[p] = Interval(iv[p + ep].i, iv[p + 1 - ep].j)
    for l in range(2, s.r - 1):
        el = eps[l - 1]
        if iv[l - 1].i != iv[l + 1 + el].i and iv[l - 1].j != iv[l + 2 - el].j:
            right[l] = Interval(iv[l + 1 + el].i, iv[l + 2 - el].j)
    for term in chain(left.values(), right.values()):
        if not 0 <= term.j - term.i <= n + 1:
            _check_interval(term, n)
    return left, right


@per_snake
def window_cuts(s: Snake) -> tuple[tuple[tuple[int, int, int, int],
                                         tuple[Interval, ...]], ...]:
    """The admissible window cuts (p, l, e, e2) of s with the intervals of
    each window, in descriptor order: the slice at positions p+2..l, with the
    side term of s on the left when e = 1 and on the right when e2 = 1.
    Side-term windows are checked prime; a slice is prime, as pairs decide primality."""
    left, right = _side_terms(s)
    out = []
    for p in range(-1, s.r - 1):
        for l in range(p + 2, s.r + 1):
            for e in (0, 1) if p in left else (0,):
                for e2 in (0, 1) if l in right else (0,):
                    head = (left[p],) if e else ()
                    tail = (right[l],) if e2 else ()
                    ivs = head + s.intervals[p + 1:l] + tail
                    if (e or e2) and not _classify(Snake._of(s.n, ivs)).prime:
                        raise FalsifiedInvariantError(
                            "window e=%d e2=%d p=%d l=%d of %s materialized non-prime %s"
                            % (e, e2, p, l, s, Snake._of(s.n, ivs)))
                    out.append(((p, l, e, e2), ivs))
    return tuple(out)


def window_snake(s: Snake, e: int, e2: int, p: int, l: int) -> Snake:
    """The window of s at cuts (p, l, e, e2) (see ``window_cuts``).  The
    result is always prime."""
    require_prime(s)
    if not (all(type(x) is int for x in (e, e2, p, l))
            and e in (0, 1) and e2 in (0, 1) and -1 <= p and p + 2 <= l <= s.r):
        raise PreconditionError("bad window cuts e=%r e2=%r p=%r l=%r for r=%d"
                                % (e, e2, p, l, s.r))
    ivs = dict(window_cuts(s)).get((p, l, e, e2))
    if ivs is None:
        raise PreconditionError(
            "inadmissible window e=%d e2=%d p=%d l=%d for %s" % (e, e2, p, l, s))
    return Snake._of(s.n, ivs)


class PrimeDescriptor(namedtuple("PrimeDescriptor", "kind intervals weight")):
    """A prime or frozen descriptor of kind generator, window, pair or
    extremal; its weight is the product of its intervals."""

    __slots__ = ()

    def __str__(self):
        return "%s[%s]" % (self.kind, ",".join(str(iv) for iv in self.intervals))


def _product_exps(n: int, ivs) -> tuple[tuple[Interval, int], ...]:
    """The ``exps`` of the product of the intervals ivs at rank n: each is
    checked against the rank, trivial ones drop out and repeats add up."""
    acc: dict[Interval, int] = {}
    for iv in ivs:
        if 0 < iv.j - iv.i <= n:
            acc[iv] = acc.get(iv, 0) + 1
        elif not is_trivial(iv, n):
            _check_interval(iv, n)
    return tuple(sorted(acc.items()))


def _descriptors(n: int, entries) -> tuple[PrimeDescriptor, ...]:
    """Descriptors of the (kind, intervals) entries, without the identity and
    keeping the first descriptor of each weight.  A weight is the product of
    its intervals.  A window's is its sorted intervals as they are, each as
    the (interval, 1) pair the call's windows share: a window is prime, so no
    interval is trivial or repeated, and each is within the rank (a slice's
    are the checked snake's, a side term is checked in ``_side_terms``).  In
    any other weight each interval is checked against the rank, trivial ones
    drop out and repeats add up."""
    out, seen, pair = [], set(), {}
    for kind, ivs in entries:
        if kind == "window":
            exps = tuple([pair.get(iv) or pair.setdefault(iv, (iv, 1)) for iv in sorted(ivs)])
        else:
            exps = _product_exps(n, ivs)
        if exps and exps not in seen:
            seen.add(exps)
            out.append(PrimeDescriptor(kind, ivs, MonoidElement(n, exps)))
    return tuple(out)


@per_snake
def pr_set(s: Snake) -> tuple[PrimeDescriptor, ...]:
    require_prime(s)
    if s.r <= 2:
        return _descriptors(s.n, (("generator", (iv,)) for iv in s.intervals))
    gens = (("generator", (iv,)) for iv in sorted(interval_set(s)))
    windows = (("window", ivs) for _, ivs in window_cuts(s))
    return _descriptors(s.n, chain(gens, windows))


@per_snake
def fr_set(s: Snake) -> tuple[PrimeDescriptor, ...]:
    eps = require_prime(s).eps
    r = s.r
    iv = (None,) + s.intervals  # 1-based
    if r == 1:
        return ()
    if r == 2:
        return _descriptors(s.n, [("pair", (iv[1], iv[2]))]
                            + [("extremal", (c,)) for c in crossed(iv[1], iv[2])])
    e1, er = eps[0], eps[-1]
    entries = [("extremal", (Interval(s.i_min, s.j_max),)),
               ("extremal", (Interval(s.i_max, s.j_min),)),
               ("pair", (iv[1], Interval(iv[2 + e1].i, iv[3 - e1].j)))]
    for t in range(2, r):
        e = eps[t - 1]
        entries.append(("pair", (iv[t], Interval(iv[t + 1 - 2 * e].i, iv[t - 1 + 2 * e].j))))
    entries.append(("pair", (iv[r], Interval(iv[r - 2 + er].i, iv[r - 1 - er].j))))
    for t in range(2, r - 1):
        if not both_ends_differ(iv[t - 1], iv[t + 2]):
            continue
        e = eps[t - 1]
        entries.append(("pair", (Interval(iv[t - e].i, iv[t - 1 + e].j),
                                 Interval(iv[t + 1 + e].i, iv[t + 2 - e].j))))
    return _descriptors(s.n, entries)


@per_snake
def descriptor_index(s: Snake) -> dict:
    """Weight to descriptor over the full alphabet, the first of each weight
    in ``pr_set(s) + fr_set(s)``, in that order; identity is the weight."""
    out = {}
    for d in pr_set(s) + fr_set(s):
        out.setdefault(d.weight, d)
    return out
