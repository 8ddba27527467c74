"""Intervals, the free commutative monoid on interval generators, and snakes.

Everything here is immutable and pure.  A generator attached to an interval
of length 0 or n+1 is the identity, so monoid elements are normalized at
construction and equality is syntactic.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from operator import attrgetter

from .errors import ParseError, PreconditionError


class Interval(namedtuple("Interval", "i j")):
    """The interval [i, j]; at rank n it names the generator w{i,j}."""

    __slots__ = ()

    @property
    def length(self) -> int:
        return self.j - self.i

    def reflect(self) -> "Interval":
        return Interval(-self.j, -self.i)

    def translate(self, t: int) -> "Interval":
        return Interval(self.i + t, self.j + t)

    def __str__(self) -> str:
        return "(%d,%d)" % (self.i, self.j)


def _check_interval(iv: Interval, n: int) -> None:
    if type(iv.i) is not int or type(iv.j) is not int:
        raise PreconditionError("interval endpoints must be integers, got %r" % (iv,))
    if not 0 <= iv.j - iv.i <= n + 1:
        raise PreconditionError(
            "interval %s out of bounds for rank n=%d" % (iv, n))


def is_trivial(iv: Interval, n: int) -> bool:
    """A generator of length 0 or n+1 is the identity."""
    return iv.j - iv.i in (0, n + 1)


class _Value:
    """A frozen value with slots.  ``__match_args__`` names its fields: the
    constructor sets them unchecked, in that order, and equality, the repr
    and pickling read them.  The hash is computed on first use and kept."""

    __slots__ = ("_hash",)

    def __init_subclass__(cls):
        get = attrgetter(*cls.__match_args__)
        cls._key = property(get if len(cls.__match_args__) > 1 else lambda v: (get(v),))
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__match_args__)

    def __init__(self, *values):
        for set_field, value in zip(self._setters, values):
            set_field(self, value)
        _set_hash(self, None)

    def __eq__(self, other):
        return self._key == other._key if type(other) is type(self) else NotImplemented

    def __hash__(self):
        if self._hash is None:
            _set_hash(self, hash(self._key))
        return self._hash

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % pair for pair in zip(self.__match_args__, self._key)))

    def __reduce__(self):
        return type(self), self._key

    def __setattr__(self, name, value=None):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError("cannot assign to or delete field %r" % name)

    __delattr__ = __setattr__


_set_hash = _Value._hash.__set__


class MonoidElement(_Value):
    """A normalized word in the free commutative monoid over rank-n intervals.

    ``exps`` is a lexicographically sorted tuple of (interval, multiplicity)
    pairs with positive multiplicities and no trivial generators.
    ``MonoidElement(n, exps)`` checks none of that: it is the internal
    constructor, for pairs already normalized at rank n.  Public
    construction (``from_exponents``, ``from_pairs``, ``generator``,
    ``parse_monoid_element``) checks every interval.
    """

    __match_args__ = __slots__ = ("n", "exps")

    def __init__(self, n: int, exps: tuple[tuple[Interval, int], ...]):
        # _Value.__init__ written out, since elements are built by the million
        _set_element_n(self, n)
        _set_exps(self, exps)
        _set_hash(self, None)

    @staticmethod
    def from_exponents(n: int, exponents: dict[Interval, int]) -> "MonoidElement":
        """The element with these exponents; the rank, every endpoint and
        every exponent must be an int (not a bool)."""
        if type(n) is not int:
            raise PreconditionError("rank must be an integer, got %r" % (n,))
        items = []
        for iv, e in exponents.items():
            if type(iv) is not Interval:
                iv = Interval(*iv)
            i, j = iv
            if type(i) is not int or type(j) is not int:
                _check_interval(iv, n)
            if type(e) is not int:
                raise _exponent_error(iv, e)
            length = j - i
            if not 0 <= length <= n + 1:
                _check_interval(iv, n)
            if e < 0:
                raise PreconditionError("negative exponent for %s" % (iv,))
            if e and 0 < length <= n:
                items.append((iv, e))
        items.sort()
        return MonoidElement(n, tuple(items))

    @staticmethod
    def from_pairs(n: int, pairs) -> "MonoidElement":
        """The product of (interval, exponent) pairs; repeated intervals add up."""
        acc: dict[Interval, int] = {}
        for iv, e in pairs:
            if type(e) is not int:
                raise _exponent_error(iv, e)
            acc[iv] = acc.get(iv, 0) + e
        return MonoidElement.from_exponents(n, acc)

    @staticmethod
    def one(n: int) -> "MonoidElement":
        return MonoidElement(n, ())

    @staticmethod
    def generator(iv: Interval, n: int) -> "MonoidElement":
        """Normalized single generator; the identity when the length is 0 or n+1."""
        return MonoidElement.from_exponents(n, {iv: 1})

    # -- monoid structure ---------------------------------------------------

    def __mul__(self, other: "MonoidElement") -> "MonoidElement":
        if self.n != other.n:
            raise PreconditionError("rank mismatch: %d vs %d" % (self.n, other.n))
        acc = dict(self.exps)
        for iv, e in other.exps:
            acc[iv] = acc.get(iv, 0) + e
        return MonoidElement(self.n, tuple(sorted(acc.items())))

    def quotient(self, other: "MonoidElement") -> "MonoidElement | None":
        """self * other^{-1} when divisible, else None (the "not in I_n^+" branch)."""
        if self.n != other.n:
            raise PreconditionError("rank mismatch: %d vs %d" % (self.n, other.n))
        acc = dict(self.exps)
        for iv, e in other.exps:
            have = acc.get(iv, 0)
            if have < e:
                return None
            if have == e:
                del acc[iv]
            else:
                acc[iv] = have - e
        return MonoidElement(self.n, tuple(sorted(acc.items())))

    @property
    def ht(self) -> int:
        return sum(e for _, e in self.exps)

    @property
    def is_one(self) -> bool:
        return not self.exps

    @property
    def support(self) -> tuple[Interval, ...]:
        return tuple(iv for iv, _ in self.exps)

    # -- symmetries ---------------------------------------------------------

    def reflect(self) -> "MonoidElement":
        return MonoidElement(
            self.n, tuple(sorted((iv.reflect(), e) for iv, e in self.exps)))

    # -- text form ----------------------------------------------------------

    def __str__(self) -> str:
        if not self.exps:
            return "1"
        parts = []
        for iv, e in self.exps:
            parts.append("w{%d,%d}" % (iv.i, iv.j) + ("^%d" % e if e > 1 else ""))
        return " * ".join(parts)


_set_element_n, _set_exps = MonoidElement.n.__set__, MonoidElement.exps.__set__


def _exponent_error(iv, e) -> PreconditionError:
    return PreconditionError("exponent of w{%s,%s} must be an integer, got %r" % (*iv, e))


# digits a parsed number keeps free below the interpreter's limit on int/str
# conversion, so that sums of one text's numbers can still be printed
_SPARE_DIGITS = 100


def _int(digits: str) -> int:
    """int(digits); a digit run within _SPARE_DIGITS of the interpreter's
    conversion limit, when one is set, is a parse error."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and len(digits) > limit - _SPARE_DIGITS:
        raise ParseError("a number of %d characters is too long; at most %d are read"
                         % (len(digits), limit - _SPARE_DIGITS))
    return int(digits)


_GEN_RE = re.compile(r"^w\{(-?\d+),(-?\d+)\}(?:\^(\d+))?$")


def parse_monoid_element(text: str, n: int) -> MonoidElement:
    """Parse ``w{i,j}^e * ...`` (or ``1``) into a MonoidElement of rank n."""
    text = text.strip()
    if text == "1":
        return MonoidElement.one(n)
    pairs = []
    for chunk in text.split("*"):
        m = _GEN_RE.match(chunk.strip())
        if m is None:
            raise ParseError("bad generator %r" % chunk.strip())
        pairs.append((Interval(_int(m.group(1)), _int(m.group(2))), _int(m.group(3) or "1")))
    try:
        return MonoidElement.from_pairs(n, pairs)
    except PreconditionError as exc:
        raise ParseError(str(exc)) from exc


class Snake(_Value):
    """An ordered tuple of rank-n intervals.

    Construction only enforces an integer rank and endpoints and the
    interval bound; the classification hierarchy (stable / connected /
    prime) lives in the snakes module.
    ``Snake._of`` is the internal constructor, which checks nothing.
    """

    __match_args__ = __slots__ = ("n", "intervals")
    __hash__ = _Value.__hash__  # defining __eq__ would otherwise unset it

    def __init__(self, n: int, intervals: tuple[Interval, ...]):
        if type(n) is not int:
            raise PreconditionError("rank must be an integer, got %r" % (n,))
        if n < 1:
            raise PreconditionError("rank must be >= 1")
        if not intervals:
            raise PreconditionError("snake must have at least one interval")
        ivs = tuple(Interval(*iv) for iv in intervals)
        for iv in ivs:
            _check_interval(iv, n)
        _Value.__init__(self, n, ivs)

    @staticmethod
    def _of(n: int, intervals: tuple[Interval, ...]) -> "Snake":
        """The snake on a non-empty tuple of Intervals checked at rank n >= 1."""
        s = object.__new__(Snake)
        _set_snake_n(s, n)
        _set_intervals(s, intervals)
        _set_hash(s, None)
        return s

    def __eq__(self, other):
        return (self.n == other.n and self.intervals == other.intervals
                if type(other) is Snake else NotImplemented)

    def __reduce__(self):
        return Snake._of, self._key

    @property
    def r(self) -> int:
        return len(self.intervals)

    def iv(self, p: int) -> Interval:
        """1-based access, matching the indexing used throughout."""
        if not (type(p) is int and 1 <= p <= self.r):
            raise PreconditionError("index %r out of range 1..%d" % (p, self.r))
        return self.intervals[p - 1]

    def subsnake(self, p: int, l: int) -> "Snake":
        """The slice at positions p..l (1-based, inclusive)."""
        if not (type(p) is int and type(l) is int and 1 <= p <= l <= self.r):
            raise PreconditionError("bad slice %r..%r of length %d" % (p, l, self.r))
        return Snake._of(self.n, self.intervals[p - 1:l])

    @property
    def weight(self) -> MonoidElement:
        return MonoidElement.from_pairs(self.n, ((iv, 1) for iv in self.intervals))

    def reflect(self) -> "Snake":
        return Snake._of(self.n, tuple(iv.reflect() for iv in self.intervals))

    @property
    def i_min(self) -> int:
        return min(iv.i for iv in self.intervals)

    @property
    def i_max(self) -> int:
        return max(iv.i for iv in self.intervals)

    @property
    def j_min(self) -> int:
        return min(iv.j for iv in self.intervals)

    @property
    def j_max(self) -> int:
        return max(iv.j for iv in self.intervals)

    def __str__(self) -> str:
        return "[%s] @ n=%d" % (",".join(str(iv) for iv in self.intervals), self.n)


_set_snake_n, _set_intervals = Snake.n.__set__, Snake.intervals.__set__
_SNAKE_RE = re.compile(r"^\[(.*)\]\s*@\s*n=(\d+)$")
_PAIR_RE = re.compile(r"\((-?\d+),(-?\d+)\)")


def parse_snake(text: str) -> Snake:
    """Parse ``[(i1,j1),(i2,j2),...] @ n=<rank>``."""
    m = _SNAKE_RE.match(text.strip())
    if m is None:
        raise ParseError("bad snake syntax: %r" % text)
    body, n = m.group(1), _int(m.group(2))
    stripped = re.sub(r"[\s,]", "", body)
    pairs = _PAIR_RE.findall(body)
    if re.sub(r"[\s,]", "", "".join("(%s,%s)" % p for p in pairs)) != stripped:
        raise ParseError("bad snake body: %r" % body)
    if not pairs:
        raise ParseError("empty snake")
    try:
        return Snake(n, tuple(Interval(_int(a), _int(b)) for a, b in pairs))
    except PreconditionError as exc:
        raise ParseError(str(exc)) from exc

