"""Classification of interval tuples (stable / connected / prime), the
alternation bits and interleaving chains of a snake, and the per-snake memo."""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, wraps

from .core import Interval, Snake, is_trivial
from .errors import NotAlternatingError, PreconditionError

# snakes whose derived data are kept, from classification to factorizer context
SNAKE_MEMO_SIZE = 1024


@lru_cache(maxsize=SNAKE_MEMO_SIZE)
def _memo(s: Snake) -> dict:
    return {}


def per_snake(fn):
    """Keep ``fn(s)``, never None, in the memo of s; a call that raises keeps nothing."""
    @wraps(fn)
    def memoized(s: Snake):
        slot = _memo(s)
        value = slot.get(fn)
        if value is None:
            value = slot[fn] = fn(s)
        return value
    return memoized


def linked(lo: Interval, hi: Interval) -> bool:
    """Pair connectivity without the rank bound: lo starts and ends strictly
    before hi, and the two meet or overlap."""
    return lo.i < hi.i <= lo.j < hi.j


def pair_rank(a: Interval, b: Interval) -> int:
    """The least rank n at which the adjacent pair a, b can be connected: its
    union may have length at most n + 1."""
    return max(a.j, b.j) - min(a.i, b.i) - 1


def crossed(a: Interval, b: Interval) -> tuple[Interval, Interval]:
    """The two intervals that exchange the right endpoints of a and b."""
    return Interval(a.i, b.j), Interval(b.i, a.j)


def both_ends_differ(a: Interval, b: Interval) -> bool:
    """Neither the left nor the right endpoints of a and b coincide."""
    return a.i != b.i and a.j != b.j


def is_boundary(s: Snake) -> bool:
    """The extremal coincidences j_max - i_min = n + 1 and j_min = i_max."""
    return s.j_max - s.i_min == s.n + 1 and s.j_min == s.i_max


class Step(namedtuple("Step", "bit alternates stable connected keeps_prime")):
    """What one more interval does to the classification of a prefix.

    - bit: alternation bit of the new adjacent pair; None: it has none
    - alternates: the bit differs from the prefix's last bit
    - stable: alternates; differs from and nests in each interval two or more back
    - connected: stable, and the new adjacent pair is linked
    - keeps_prime: stable, and the new distance-2 pair differs at both endpoints
    """

    __slots__ = ()


_NO_BIT = Step(None, False, False, False, False)
_BROKEN = tuple(Step(bit, False, False, False, False) for bit in (0, 1))
_UNNESTED = tuple(Step(bit, True, False, False, False) for bit in (0, 1))


def extend(prefix: tuple[Interval, ...], last_bit: int | None, iv: Interval) -> Step:
    """Classify ``prefix + (iv,)`` from a non-empty prefix and the prefix's last
    alternation bit (None for a single interval), looking only at iv.

    At each adjacent pair either both endpoints drop (bit 0) or both rise
    (bit 1), and the bits alternate.  Given a stable prefix, nesting in the
    intervals two and three back implies nesting in every earlier one, and
    only the interval two back can equal iv.  The rank plays no part.
    """
    a = prefix[-1]
    if iv.i < a.i and iv.j < a.j:
        bit, lo, hi = 0, iv, a
    elif a.i < iv.i and a.j < iv.j:
        bit, lo, hi = 1, a, iv
    else:
        return _NO_BIT
    if bit == last_bit:
        return _BROKEN[bit]
    keeps_prime = True
    if len(prefix) >= 2:
        b = prefix[-2]
        if iv == b:
            return _UNNESTED[bit]
        for o in prefix[-3:-1]:
            if not o.i <= iv.i < iv.j <= o.j:
                return _UNNESTED[bit]
        keeps_prime = both_ends_differ(iv, b)
    return Step(bit, True, True, linked(lo, hi), keeps_prime)


def _steps(s: Snake):
    bit = None
    for k in range(1, s.r):
        step = extend(s.intervals[:k], bit, s.intervals[k])
        bit = step.bit
        yield step


def _closed(bits: list[int]) -> tuple[int, ...]:
    """The pair bits and the final bit that alternation forces; a single
    interval gets bit 0 by convention."""
    return tuple(bits) + (1 - bits[-1],) if bits else (0,)


def epsilon_sequence(s: Snake) -> tuple[int, ...]:
    """The alternation bits, one per position, of any alternating snake; a
    prime snake has them as ``classify(s).eps``.

    Bit p belongs to the pair at positions p, p + 1 (see ``extend``).
    """
    steps = list(_steps(s))
    for p, step in enumerate(steps, 1):
        if step.bit is None:
            raise NotAlternatingError("no alternation bit at position %d of %s" % (p, s))
    for p, step in enumerate(steps[1:], 1):
        if not step.alternates:
            raise NotAlternatingError("alternation breaks at position %d of %s" % (p, s))
    return _closed([step.bit for step in steps])


# eps is None when the snake is not stable
SnakeClassification = namedtuple("SnakeClassification", "stable connected prime eps")


_UNSTABLE = SnakeClassification(False, False, False, None)


def _classify(s: Snake) -> SnakeClassification:
    n = s.n
    # degenerate members would be invisible in the monoid, so they are
    # rejected outright
    if any(is_trivial(iv, n) for iv in s.intervals):
        return _UNSTABLE
    eps, connected, prime = [], True, True
    for a, b, step in zip(s.intervals, s.intervals[1:], _steps(s)):
        if not step.stable:
            return _UNSTABLE
        eps.append(step.bit)
        connected = connected and step.connected and pair_rank(a, b) <= n
        prime = prime and step.keeps_prime
    return SnakeClassification(True, connected, connected and prime, _closed(eps))


classify = per_snake(_classify)


def require_prime(s: Snake) -> SnakeClassification:
    c = classify(s)
    if not c.prime:
        raise PreconditionError("snake is not prime: %s" % s)
    return c


def check_enumeration(s: Snake) -> bool:
    """Verify the interleaving chains and the four extremal positions."""
    eps = require_prime(s).eps
    r = s.r
    if r == 1:
        return True
    iv = s.iv

    def ok(chain, chain_val):
        # comparisons between positions three apart are non-strict, all
        # others strict
        for p, q in zip(chain, chain[1:]):
            if not (1 <= p <= r and 1 <= q <= r):
                continue
            lhs, rhs = chain_val(p), chain_val(q)
            if abs(q - p) == 3:
                if not lhs <= rhs:
                    return False
            elif not lhs < rhs:
                return False
        return True

    for t in range(1, r + 1):
        e = eps[t - 1]
        chain = (t + 1 - e, t + 2 * e, t + 3 - 2 * e, t + 2 + 2 * e)
        if not ok(chain, lambda p: iv(p).i):
            return False
        chain = (t + 4 - 2 * e, t + 1 + 2 * e, t + 2 - 2 * e, t + e)
        if not ok(chain, lambda p: iv(p).j):
            return False

    imin_pos, jmax_pos = 2 - eps[0], 1 + eps[0]
    imax_pos, jmin_pos = r - eps[-1], r - 1 + eps[-1]
    for p in range(1, r + 1):
        if p != imin_pos and not iv(imin_pos).i < iv(p).i:
            return False
        if p != imax_pos and not iv(p).i < iv(imax_pos).i:
            return False
        if p != jmax_pos and not iv(p).j < iv(jmax_pos).j:
            return False
        if p != jmin_pos and not iv(jmin_pos).j < iv(p).j:
            return False
    return True
