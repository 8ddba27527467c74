"""Translation of a prime snake into a height function on a larger rank,
the induced interval set and prime/frozen index sets, and the snake it
defines back again.

All maps are verified constructively: the height property, the final
position identity p_r = N, primality of the induced snake, the interval-set
identity, and the bijection onto the prime descriptors of the original
snake each raise with a witness if they fail.
"""

from __future__ import annotations

from collections import namedtuple

from .core import Interval, MonoidElement, Snake
from .errors import FalsifiedInvariantError, PreconditionError
from .isomorph import SnakeIso, build_iso
from .primesets import interval_set, pr_set, window_snake
from .snakes import both_ends_differ, classify, is_boundary, per_snake, require_prime


def n_of(s: Snake) -> int:
    """Target rank: r plus one for every interior position whose distance-3
    neighbours differ on both endpoints."""
    require_prime(s)
    if s.r < 3:
        raise PreconditionError("height translation needs length >= 3")
    r = s.r
    return r + sum(1 for t in range(2, r - 1)
                   if both_ends_differ(s.iv(t - 1), s.iv(t + 2)))


def p_sequence(s: Snake) -> tuple[int, ...]:
    N = n_of(s)
    r = s.r
    p = [1, 2]
    for m in range(2, r - 1):
        step = 2 if both_ends_differ(s.iv(r - m + 2), s.iv(r - m - 1)) else 1
        p.append(p[-1] + step)
    p.append(p[-1] + 1)
    if p[-1] != N:
        raise FalsifiedInvariantError(
            "final position %d differs from target rank %d for %s" % (p[-1], N, s))
    return tuple(p)


class HeightProfile(namedtuple("HeightProfile", "snake N p_seq xi")):
    __slots__ = ()  # xi[t-1] is the value at t, 1 <= t <= N

    def xi_at(self, t: int) -> int:
        if not (type(t) is int and 1 <= t <= self.N):
            raise PreconditionError("height position %r out of 1..%d" % (t, self.N))
        return self.xi[t - 1]

    def i_xi(self, t: int) -> int:
        return (self.xi_at(t) - t) // 2

    def j_xi(self, t: int) -> int:
        return (self.xi_at(t) + t) // 2


@per_snake
def height_profile(s: Snake) -> HeightProfile:
    p = p_sequence(s)
    N = p[-1]
    eps = require_prime(s).eps
    r = s.r
    vals: dict[int, int] = {p[r - 1]: p[r - 1]}
    for m in range(r - 1, 0, -1):
        e = eps[r - m - 1]
        gap = p[m] - p[m - 1]
        vals[p[m - 1]] = vals[p[m]] + (gap if e else -gap)
    for g in range(N, 0, -1):
        if g not in vals:
            vals[g] = vals[g + 2]
    xi = tuple(vals[t] for t in range(1, N + 1))
    for t in range(1, N):
        if abs(xi[t] - xi[t - 1]) != 1:
            raise FalsifiedInvariantError(
                "height step %d at position %d for %s" % (xi[t] - xi[t - 1], t, s))
    for t in range(1, N + 1):
        if (xi[t - 1] - t) % 2:
            raise FalsifiedInvariantError(
                "parity failure at position %d for %s" % (t, s))
    return HeightProfile(s, N, p, xi)


def interval_set_xi(h: HeightProfile) -> frozenset[Interval]:
    out = set()
    for t in range(1, h.N + 1):
        out.add(Interval(h.i_xi(t), h.j_xi(t)))
        out.add(Interval(h.i_xi(t) - 1, h.j_xi(t) - 1))
    return frozenset(out)


@per_snake
def _induced(s: Snake) -> tuple[Interval, ...]:
    """The intervals read off the height profile of s, position by position:
    position m reads height position p_(r+1-m), shifted down by eps_m."""
    h = height_profile(s)
    eps = require_prime(s).eps
    return tuple(Interval(h.i_xi(t) - e, h.j_xi(t) - e)
                 for t, e in zip(reversed(h.p_seq), eps))


def snake_of_xi(s: Snake) -> Snake:
    """The snake of rank N read off the height profile (see ``height_iso``)."""
    return height_iso(s).source


@per_snake
def height_iso(s: Snake) -> SnakeIso:
    """The generator-wise isomorphism onto s from the snake of rank N read off
    the height profile.  It needs the extremal coincidences: the induced snake
    always has them, so the matching conditions force them on s as well."""
    if not is_boundary(s):
        raise PreconditionError(
            "snake %s does not have the boundary shape required here" % s)
    h = height_profile(s)
    out = Snake(h.N, _induced(s))
    if not classify(out).prime:
        raise FalsifiedInvariantError("induced snake %s of %s is not prime" % (out, s))
    if not is_boundary(out):
        raise FalsifiedInvariantError("induced snake %s misses the boundary shape" % out)
    try:
        iso = build_iso(out, s)
    except PreconditionError:
        raise FalsifiedInvariantError("induced snake %s fails the matching conditions "
                                      "against %s" % (out, s)) from None
    if interval_set(out) != interval_set_xi(h):
        raise FalsifiedInvariantError(
            "interval sets disagree for %s: %s vs %s"
            % (s, sorted(interval_set(out)), sorted(interval_set_xi(h))))
    return iso


def _omega_pp(h: HeightProfile, m: int, l: int) -> MonoidElement:
    """The product of the induced intervals read at height positions p_m..p_l."""
    r = h.snake.r
    ivs = _induced(h.snake)[r - l:r - m + 1]
    return MonoidElement.from_pairs(h.N, ((iv, 1) for iv in ivs))


def _pgen(h: HeightProfile, a_idx: int, b_idx: int) -> MonoidElement:
    """Boundary correction generator: the left end of the induced interval
    read at p_a and the right end of the one read at p_b."""
    r = h.snake.r
    if not (1 <= a_idx <= r and 1 <= b_idx <= r):
        raise FalsifiedInvariantError(
            "correction position (%d,%d) out of range for %s" % (a_idx, b_idx, h.snake))
    ivs = _induced(h.snake)
    return MonoidElement.generator(Interval(ivs[r - a_idx].i, ivs[r - b_idx].j), h.N)


def _bracket(h: HeightProfile, t: int, t2: int) -> tuple[int, int]:
    """For height positions t < t2, the first m with p_(m-1) < t <= p_m
    (p_0 = 0) and the last l with p_l <= t2."""
    if not (type(t) is int and type(t2) is int and 1 <= t < t2 <= h.N):
        raise PreconditionError("bad position pair (%r,%r)" % (t, t2))
    p = h.p_seq
    ks = range(1, len(p) + 1)
    return (next(k for k in ks if (p[k - 2] if k >= 2 else 0) < t <= p[k - 1]),
            max(k for k in ks if p[k - 1] <= t2))


def omega_pair(h: HeightProfile, t: int, t2: int) -> MonoidElement:
    """The indexing element attached to a pair of height positions t < t2."""
    m, l = _bracket(h, t, t2)
    eps = require_prime(h.snake).eps
    r = h.snake.r
    p = h.p_seq
    if m > l or not p[l - 1] <= t2 or (l < r and not t2 < p[l]):
        raise FalsifiedInvariantError(
            "no bracketing positions for (%d,%d) in %s" % (t, t2, h.snake))
    w = _omega_pp(h, m, l)
    if t != p[m - 1]:
        e = eps[r - m]
        w = w * _pgen(h, m - 1 - e, m - 2 + e)
    if t2 != p[l - 1]:
        e = eps[r - l]
        w = w * _pgen(h, l + 2 - e, l + 1 + e)
    return w


def window_image(s: Snake, t: int, t2: int) -> MonoidElement:
    """The window of s matched to the pair element at positions (t, t2)."""
    h = height_profile(s)
    m, l = _bracket(h, t, t2)
    p = h.p_seq
    r = s.r
    e = 0 if t2 == p[l - 1] else 1
    e2 = 0 if t == p[m - 1] else 1
    return window_snake(s, e, e2, r - l - 1, r - m + 1).weight


@per_snake
def pr_xi(s: Snake) -> frozenset[MonoidElement]:
    h = height_profile(s)
    out = set()
    for iv in interval_set_xi(h):
        w = MonoidElement.generator(iv, h.N)
        if not w.is_one:
            out.add(w)
    for t in range(1, h.N + 1):
        for t2 in range(t + 1, h.N + 1):
            w = omega_pair(h, t, t2)
            if not w.is_one:
                out.add(w)
    return frozenset(out)


@per_snake
def fr_xi(s: Snake) -> frozenset[MonoidElement]:
    h = height_profile(s)
    out = set()
    for t in range(1, h.N + 1):
        w = (MonoidElement.generator(Interval(h.i_xi(t), h.j_xi(t)), h.N)
             * MonoidElement.generator(Interval(h.i_xi(t) - 1, h.j_xi(t) - 1), h.N))
        if not w.is_one:
            out.add(w)
    return frozenset(out)


def pr_bijection(s: Snake) -> dict[MonoidElement, MonoidElement]:
    """Map the height-side prime elements onto the prime descriptor weights."""
    iso = height_iso(s)
    image = {}
    got = set()
    for w in pr_xi(s):
        img = iso.eta(w)
        if img in got:
            raise FalsifiedInvariantError(
                "prime element image collision at %s for %s" % (w, s))
        got.add(img)
        image[w] = img
    targets = {d.weight for d in pr_set(s)}
    if got != targets:
        raise FalsifiedInvariantError(
            "prime element images of %s mismatch: missing %s, extra %s"
            % (s, sorted(map(str, targets - got)), sorted(map(str, got - targets))))
    return image


def cluster_export(s: Snake) -> dict:
    """JSON-ready summary of the induced cluster structure."""
    h = height_profile(s)
    bij = pr_bijection(s)
    iso = height_iso(s)
    return {
        "type": "A_%d" % h.N,
        "N": h.N,
        "snake": str(s),
        "height_snake": str(iso.source),
        "xi": list(h.xi),
        "p_seq": list(h.p_seq),
        "exchangeable": sorted(str(w) for w in pr_xi(s)),
        "frozen": sorted(str(w) for w in fr_xi(s)),
        "frozen_images": sorted(str(iso.eta(w)) for w in fr_xi(s)),
        "correspondence": sorted(
            [str(w), str(img)] for w, img in bij.items()),
    }
