"""Sound interval evaluation of the controller-monitor formula.

There is one formula: ``interval_eval_controller`` runs
``waynet.monitor.controller_monitor`` itself with ``Ivl`` waypoint, speed and
acceleration and with the four ``Params`` fields as point ``Ivl``s, built once
per ``Params``.

Interval endpoints are floats. Each endpoint is rounded in its own direction
(``lo`` down, ``hi`` up), and only when the float result is inexact: an
error-free transform gives the exact rounding error of each operation --
Knuth's TwoSum for ``+`` and ``-``, Dekker's TwoProduct (Veltkamp split by
2**27 + 1) for ``*`` and squares, and the same product check of ``q*b == a``
for ``/``. An endpoint whose error points the wrong way, or whose error is not
known exactly (a product that overflows or lies below 2**-960, where its error
may not be a float), steps one float outward with ``math.nextafter``; a
round-to-nearest result is never more than that step from the exact one. An
exact float result stays a point, so cruising at ``v = vl`` with ``a = 0``
keeps ``v + a*T`` the point ``v`` and its limit comparison decided.
Arithmetic reads a float or ``Ivl`` operand's endpoints inline and converts
any other real with ``Ivl`` first; a comparison takes any other real as the
exact point it is. Point operands (``lo == hi``, as the harness passes) take
one transform for ``+``, ``-``, ``*`` and squares, which rounds both
endpoints. A box takes one per endpoint: TwoSum in the operator, and for
products ``_lo``, which rounds down only (``-_lo(-a, b)`` rounds up). A zero
endpoint's sign may differ between the two paths, which no comparison sees.

The monitor halves by ``* 0.5``, one product, where ``/ 2.0`` also checked
its quotient. Their endpoints differ in two bands, both sound: a halved
value in [2**-961, 2**-960) is below 2**-960 and steps outward where the
quotient was exact, and one in (2**959, 2**960] stays exact where the
quotient's check overflowed and stepped.

No endpoint is ever NaN: ``Ivl`` rejects one, and an operation whose endpoint
would be NaN (``inf - inf``, ``0 * inf``, ``inf / inf``) raises
``NaNInterval``. Like ``ZeroDivideInterval``, it makes the verdict Unknown.

An ``Ivl`` comparison returns ``True`` or ``False`` only when it holds, or
fails, for every point of its operands, and raises ``monitor.Undecided``
otherwise. Verdicts are three-valued: DefinitelyTrue only when the formula
holds for every point of the box, DefinitelyFalse only when it fails for
every point, Unknown when a comparison the verdict depends on is undecided.
Evaluation stops at the first undecided conjunct, so a box on which a later
conjunct fails everywhere can still be Unknown. Callers must treat Unknown as
failure (fail-safe).
"""

from __future__ import annotations

import enum
import functools
import math
from typing import NamedTuple

from waynet.core import Params, RelWaypoint
from waynet.monitor import Undecided, controller_monitor

_SPLIT = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves
_TINY = 2.0 ** -960   # below this a product's rounding error may not be a float
_HUGE = 2.0 ** 960    # above this the split may overflow


class IntervalVerdict(enum.Enum):
    DEFINITELY_TRUE = "definitely_true"
    DEFINITELY_FALSE = "definitely_false"
    UNKNOWN = "unknown"


DEFINITELY_TRUE, DEFINITELY_FALSE, UNKNOWN = IntervalVerdict


class ZeroDivideInterval(ArithmeticError):
    """Division by an interval containing zero; the enclosing clause is Unknown."""


class NaNInterval(ArithmeticError):
    """An endpoint would be NaN (inf - inf, 0 * inf); the enclosing clause is Unknown."""


def _prod(a: float, b: float) -> tuple[float, float]:
    """(lo, hi) enclosing the exact a * b. Dekker's TwoProduct error is exact
    for _TINY <= |a*b| <= _HUGE (NaN if the split overflows); outside that
    range only an exact zero is kept."""
    p = a * b
    if _TINY <= abs(p) <= _HUGE:
        c = _SPLIT * a
        ah = c - (c - a)
        al = a - ah
        c = _SPLIT * b
        bh = c - (c - b)
        bl = b - bh
        err = al * bl - (((p - ah * bh) - al * bh) - ah * bl)
        return (p if err >= 0.0 else math.nextafter(p, -math.inf),
                p if err <= 0.0 else math.nextafter(p, math.inf))
    if p == 0.0 and (a == 0.0 or b == 0.0):
        return p, p
    return math.nextafter(p, -math.inf), math.nextafter(p, math.inf)


def _lo(a: float, b: float) -> float:
    """``_prod(a, b)[0]``, the exact a * b rounded down, for box endpoints;
    ``-_lo(-a, b)`` is ``_prod(a, b)[1]``, as negation is exact."""
    p = a * b
    if _TINY <= abs(p) <= _HUGE:
        c = _SPLIT * a
        ah = c - (c - a)
        al = a - ah
        c = _SPLIT * b
        bh = c - (c - b)
        bl = b - bh
        if al * bl - (((p - ah * bh) - al * bh) - ah * bl) >= 0.0:
            return p
    elif p == 0.0 and (a == 0.0 or b == 0.0):
        return p
    return math.nextafter(p, -math.inf)


def _quot(a: float, b: float) -> tuple[float, float]:
    """(lo, hi) enclosing the exact a / b for b != 0: the quotient q itself
    when q * b == a exactly, else one step outward on both sides."""
    q = a / b
    if a == 0.0 or _prod(q, b) == (a, a):
        return q, q
    return math.nextafter(q, -math.inf), math.nextafter(q, math.inf)


def _ivl(lo: float, hi: float) -> Ivl:
    if not lo <= hi:  # directed rounding keeps lo <= hi, so only a NaN fails
        raise NaNInterval(f"NaN endpoint: [{lo}, {hi}]")
    r = object.__new__(Ivl)
    r.lo = lo
    r.hi = hi
    return r


class Ivl:
    """Closed interval [lo, hi] with float endpoints, neither of them NaN.

    Endpoints that are not floats (ints, Fractions) round outward."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        if hi is None:
            if type(lo) is float and lo == lo:  # a float point needs no rounding
                self.lo = self.hi = lo
                return
            hi = lo
        flo, fhi = float(lo), float(hi)
        if flo > lo:
            flo = math.nextafter(flo, -math.inf)
        if fhi < hi:
            fhi = math.nextafter(fhi, math.inf)
        if flo != flo or fhi != fhi:
            raise NaNInterval(f"NaN endpoint: [{lo}, {hi}]")
        if flo > fhi:
            raise ValueError(f"malformed interval: lo={lo} > hi={hi}")
        self.lo = flo
        self.hi = fhi

    def __repr__(self):
        return f"Ivl({self.lo!r}, {self.hi!r})"

    def __add__(self, other):
        a, b = self.lo, self.hi
        if type(other) is Ivl:
            c, d = other.lo, other.hi
        elif type(other) is float:
            c = d = other
        else:
            return self + Ivl(other)
        # TwoSum per endpoint; two point operands share one.
        s = a + c
        t = s - a
        err = (a - (s - t)) + (c - t)
        r = object.__new__(Ivl)
        r.lo = s if err >= 0.0 else math.nextafter(s, -math.inf)
        if a != b or c != d:
            s = b + d
            t = s - b
            err = (b - (s - t)) + (d - t)
        r.hi = s if err <= 0.0 else math.nextafter(s, math.inf)
        if not r.lo <= r.hi:  # directed rounding keeps lo <= hi, so only a NaN fails
            raise NaNInterval(f"NaN endpoint: [{a}, {b}] + [{c}, {d}]")
        return r

    def __sub__(self, other):
        a, b = self.lo, self.hi
        if type(other) is Ivl:
            c, d = -other.hi, -other.lo
        elif type(other) is float:
            c = d = -other
        else:
            return self - Ivl(other)
        s = a + c
        t = s - a
        err = (a - (s - t)) + (c - t)
        r = object.__new__(Ivl)
        r.lo = s if err >= 0.0 else math.nextafter(s, -math.inf)
        if a != b or c != d:
            s = b + d
            t = s - b
            err = (b - (s - t)) + (d - t)
        r.hi = s if err <= 0.0 else math.nextafter(s, math.inf)
        if not r.lo <= r.hi:
            raise NaNInterval(f"NaN endpoint: [{a}, {b}] - [{-d}, {-c}]")
        return r

    def __neg__(self):
        return _ivl(-self.hi, -self.lo)

    def __mul__(self, other):
        a, b = self.lo, self.hi
        if type(other) is Ivl:
            c, d = other.lo, other.hi
        elif type(other) is float:
            c = d = other
        else:
            return self * Ivl(other)
        if a == b and c == d:
            r = object.__new__(Ivl)
            r.lo, r.hi = _prod(a, c)
            if not r.lo <= r.hi:
                raise NaNInterval(f"NaN endpoint: {a} * {c}")
            return r
        # Only the endpoint products that bound the result, by sign case, so
        # 0 * inf is computed only where it would be an endpoint.
        if a >= 0.0:
            if c >= 0.0:
                return _ivl(_lo(a, c), -_lo(-b, d))
            if d <= 0.0:
                return _ivl(_lo(b, c), -_lo(-a, d))
            return _ivl(_lo(b, c), -_lo(-b, d))
        if b <= 0.0:
            if c >= 0.0:
                return _ivl(_lo(a, d), -_lo(-b, c))
            if d <= 0.0:
                return _ivl(_lo(b, d), -_lo(-a, c))
            return _ivl(_lo(a, d), -_lo(-a, c))
        if c >= 0.0:
            return _ivl(_lo(a, d), -_lo(-b, d))
        if d <= 0.0:
            return _ivl(_lo(b, c), -_lo(-a, c))
        if other is self:  # a square straddling zero
            return _ivl(0.0, max(-_lo(-a, c), -_lo(-b, d)))
        return _ivl(min(_lo(a, d), _lo(b, c)),
                    max(-_lo(-a, c), -_lo(-b, d)))

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return -self + other

    def __truediv__(self, other):
        o = other if type(other) is Ivl else Ivl(other)
        c, d = o.lo, o.hi
        if c <= 0.0 <= d:
            raise ZeroDivideInterval(f"division by [{c}, {d}]")
        if d < 0.0:
            return -(self / _ivl(-d, -c))
        a, b = self.lo, self.hi
        return _ivl(_quot(a, d if a >= 0.0 else c)[0],
                    _quot(b, c if b >= 0.0 else d)[1])

    def square(self):
        return self * self

    def __abs__(self):
        if self.lo >= 0.0:
            return self
        if self.hi <= 0.0:
            return -self
        return _ivl(0.0, max(-self.lo, self.hi))

    def __lt__(self, other):
        lo, hi = (other.lo, other.hi) if type(other) is Ivl else (other, other)
        if self.hi < lo:
            return True
        if self.lo >= hi:
            return False
        raise Undecided

    def __le__(self, other):
        lo, hi = (other.lo, other.hi) if type(other) is Ivl else (other, other)
        if self.hi <= lo:
            return True
        if self.lo > hi:
            return False
        raise Undecided

    def __gt__(self, other):
        lo, hi = (other.lo, other.hi) if type(other) is Ivl else (other, other)
        if self.lo > hi:
            return True
        if self.hi <= lo:
            return False
        raise Undecided

    def __ge__(self, other):
        lo, hi = (other.lo, other.hi) if type(other) is Ivl else (other, other)
        if self.lo >= hi:
            return True
        if self.hi < lo:
            return False
        raise Undecided


class _PointParams(NamedTuple):
    """The ``Params`` fields as point intervals, for the monitor formula."""

    accel_max: Ivl
    brake_max: Ivl
    cycle_max: Ivl
    tol: Ivl


@functools.lru_cache(maxsize=8)
def _point_params(p: Params) -> _PointParams:
    return _PointParams(Ivl(p.accel_max), Ivl(p.brake_max), Ivl(p.cycle_max), Ivl(p.tol))


def interval_eval_controller(x: Ivl, y: Ivl, k: Ivl, vl: Ivl, vh: Ivl,
                             v: Ivl, a: Ivl, p: Params) -> IntervalVerdict:
    """Evaluate the controller monitor (feasibility and admissibility) over a
    box of states; conservative in the fail-safe direction."""
    try:
        verdict = controller_monitor(RelWaypoint(x, y, k, vl, vh), v, a, _point_params(p))
    except (Undecided, ZeroDivideInterval, NaNInterval):
        return UNKNOWN
    return DEFINITELY_TRUE if verdict.passed else DEFINITELY_FALSE
