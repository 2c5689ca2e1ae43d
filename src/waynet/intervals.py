"""Sound interval evaluation of the controller-monitor formula.

There is one formula: ``interval_eval_controller`` runs
``waynet.monitor.controller_monitor`` itself with ``Ivl`` waypoint, speed and
acceleration and with the four ``Params`` fields as exact ``Fraction``s.
Interval endpoints are exact rationals (every float converts exactly), so
every primitive operation encloses the real-arithmetic result with zero
slack -- the limiting case of outward rounding.

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
from fractions import Fraction

from waynet.core import Params, RelWaypoint
from waynet.monitor import Undecided, controller_monitor


class IntervalVerdict(enum.Enum):
    DEFINITELY_TRUE = "definitely_true"
    DEFINITELY_FALSE = "definitely_false"
    UNKNOWN = "unknown"


class ZeroDivideInterval(ArithmeticError):
    """Division by an interval containing zero; the enclosing clause is Unknown."""


class Ivl:
    """Closed interval [lo, hi] with exact rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        if hi is None:
            hi = lo
        lo = Fraction(lo)
        hi = Fraction(hi)
        if lo > hi:
            raise ValueError(f"malformed interval: lo={lo} > hi={hi}")
        self.lo = lo
        self.hi = hi

    def __repr__(self):
        return f"Ivl({float(self.lo)}, {float(self.hi)})"

    def __add__(self, other):
        other = _as_ivl(other)
        return Ivl(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other):
        other = _as_ivl(other)
        return Ivl(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self):
        return Ivl(-self.hi, -self.lo)

    def __mul__(self, other):
        if other is self:
            return self.square()
        other = _as_ivl(other)
        products = (self.lo * other.lo, self.lo * other.hi,
                    self.hi * other.lo, self.hi * other.hi)
        return Ivl(min(products), max(products))

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return _as_ivl(other) - self

    def __truediv__(self, other):
        other = _as_ivl(other)
        if other.lo <= 0 <= other.hi:
            raise ZeroDivideInterval(f"division by {other!r}")
        quotients = (self.lo / other.lo, self.lo / other.hi,
                     self.hi / other.lo, self.hi / other.hi)
        return Ivl(min(quotients), max(quotients))

    def square(self):
        if self.lo >= 0:
            return Ivl(self.lo * self.lo, self.hi * self.hi)
        if self.hi <= 0:
            return Ivl(self.hi * self.hi, self.lo * self.lo)
        return Ivl(0, max(self.lo * self.lo, self.hi * self.hi))

    def __abs__(self):
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return Ivl(0, max(-self.lo, self.hi))

    def __lt__(self, other):
        other = _as_ivl(other)
        return _decide(self.hi < other.lo, self.lo >= other.hi)

    def __le__(self, other):
        other = _as_ivl(other)
        return _decide(self.hi <= other.lo, self.lo > other.hi)

    def __gt__(self, other):
        other = _as_ivl(other)
        return _decide(self.lo > other.hi, self.hi <= other.lo)

    def __ge__(self, other):
        other = _as_ivl(other)
        return _decide(self.lo >= other.hi, self.hi < other.lo)


def _as_ivl(x) -> Ivl:
    return x if isinstance(x, Ivl) else Ivl(x)


def _decide(always: bool, never: bool) -> bool:
    if always:
        return True
    if never:
        return False
    raise Undecided


def interval_eval_controller(x: Ivl, y: Ivl, k: Ivl, vl: Ivl, vh: Ivl,
                             v: Ivl, a: Ivl, p: Params) -> IntervalVerdict:
    """Evaluate the controller monitor (feasibility and admissibility) over a
    box of states; conservative in the fail-safe direction.

    The one mixed Fraction/float operation in the formula, adding the zero
    slack to eps, gives a float; it is exact because eps converts from one.
    """
    exact = Params(accel_max=Fraction(p.accel_max), brake_max=Fraction(p.brake_max),
                   cycle_max=Fraction(p.cycle_max), tol=Fraction(p.tol))
    try:
        verdict = controller_monitor(RelWaypoint(x, y, k, vl, vh), v, a, exact)
    except (Undecided, ZeroDivideInterval):
        return IntervalVerdict.UNKNOWN
    if verdict:
        return IntervalVerdict.DEFINITELY_TRUE
    return IntervalVerdict.DEFINITELY_FALSE
