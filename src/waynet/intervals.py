"""Sound interval evaluation of the controller-monitor formula.

There is one formula: ``interval_eval_controller`` runs
``waynet.monitor.controller_monitor`` itself with ``Ivl`` waypoint, speed and
acceleration and with a ``Params`` of the four fields as point ``Ivl``s.

Interval endpoints are finite floats. Each endpoint is rounded in its own
direction (``lo`` down, ``hi`` up), and only when the float result is
inexact: an error-free transform gives the exact rounding error of each
operation -- Knuth's TwoSum for ``+`` and ``-``, Dekker's TwoProduct (Veltkamp
split by 2**27 + 1) for ``*`` and squares, and the same product check of
``q*b == a`` for ``/``. An endpoint whose error points the wrong way, or whose
error is not known exactly (a product outside [2**-960, 2**960]), steps one
float outward with ``math.nextafter``; a round-to-nearest result is never
more than that step from the exact one. An exact float result stays a point,
so cruising at ``v = vl`` with ``a = 0`` keeps ``v + a*T`` the point ``v``
and its limit comparison decided.
Every operation has one path: it converts an operand that is not an ``Ivl``
with ``Ivl`` and rounds each endpoint with its own transform, so a point pays
for two. Speed is not this stage's job: the harness's gate sends intervals
only the passes that ``monitor.certified_controller_monitor``, one float pass
that returns the verdict with its certificate, cannot certify, and no
benchmark batch has any. A comparison takes any other real as
the exact point it is.

The monitor halves by ``* 0.5``, one product, where ``/ 2.0`` also checked
its quotient. Their endpoints differ in two bands, both sound: a halved
value in [2**-961, 2**-960) is below 2**-960 and steps outward where the
quotient was exact, and one in (2**959, 2**960] stays exact where the
quotient's check overflowed and stepped.

An infinity, a NaN or a real beyond the largest float raises
``NonFiniteInterval``, as does a result with no finite float enclosure: an
overflow, or a division by an interval containing zero. Like
``monitor.Undecided``, it makes the verdict Unknown.

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
import math

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


class NonFiniteInterval(ArithmeticError):
    """No finite float enclosure (module docstring); the clause is Unknown."""


def _sum(a: float, b: float) -> tuple[float, float]:
    """(lo, hi) enclosing the exact a + b: Knuth's TwoSum error is exact
    whenever the sum is finite."""
    s = a + b
    t = s - a
    err = (a - (s - t)) + (b - t)
    return (s if err >= 0.0 else math.nextafter(s, -math.inf),
            s if err <= 0.0 else math.nextafter(s, math.inf))


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


def _quot(a: float, b: float) -> tuple[float, float]:
    """(lo, hi) enclosing the exact a / b for b != 0: the quotient q itself
    when q * b == a exactly, else one step outward on both sides."""
    q = a / b
    if a == 0.0 or _prod(q, b) == (a, a):
        return q, q
    return math.nextafter(q, -math.inf), math.nextafter(q, math.inf)


def _operand(x) -> Ivl:
    """``x`` if it is an ``Ivl``, else any other real as ``Ivl(x)``."""
    return x if type(x) is Ivl else Ivl(x)


class Ivl:
    """Closed interval [lo, hi] with finite float endpoints.

    Endpoints that are not floats (ints, Fractions) round outward."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        if hi is None:
            hi = lo
        try:
            flo, fhi = float(lo), float(hi)
        except OverflowError:
            raise NonFiniteInterval("an endpoint beyond the floats") from None
        if flo > lo:
            flo = math.nextafter(flo, -math.inf)
        if fhi < hi:
            fhi = math.nextafter(fhi, math.inf)
        if not (math.isfinite(flo) and math.isfinite(fhi)):
            raise NonFiniteInterval(f"non-finite endpoint: [{flo}, {fhi}]")
        if flo > fhi:
            raise ValueError(f"malformed interval: lo={lo} > hi={hi}")
        self.lo = flo
        self.hi = fhi

    def __repr__(self):
        return f"Ivl({self.lo!r}, {self.hi!r})"

    def __add__(self, other):
        o = _operand(other)
        return Ivl(_sum(self.lo, o.lo)[0], _sum(self.hi, o.hi)[1])

    def __sub__(self, other):
        return self + -_operand(other)

    def __neg__(self):
        return Ivl(-self.hi, -self.lo)

    def __mul__(self, other):
        o = _operand(other)
        a, b, c, d = self.lo, self.hi, o.lo, o.hi
        # Only the endpoint products that bound the result, by sign case.
        if a >= 0.0:
            if c >= 0.0:
                return Ivl(_prod(a, c)[0], _prod(b, d)[1])
            if d <= 0.0:
                return Ivl(_prod(b, c)[0], _prod(a, d)[1])
            return Ivl(_prod(b, c)[0], _prod(b, d)[1])
        if b <= 0.0:
            if c >= 0.0:
                return Ivl(_prod(a, d)[0], _prod(b, c)[1])
            if d <= 0.0:
                return Ivl(_prod(b, d)[0], _prod(a, c)[1])
            return Ivl(_prod(a, d)[0], _prod(a, c)[1])
        if c >= 0.0:
            return Ivl(_prod(a, d)[0], _prod(b, d)[1])
        if d <= 0.0:
            return Ivl(_prod(b, c)[0], _prod(a, c)[1])
        if other is self:  # a square straddling zero
            return Ivl(0.0, max(_prod(a, c)[1], _prod(b, d)[1]))
        return Ivl(min(_prod(a, d)[0], _prod(b, c)[0]),
                   max(_prod(a, c)[1], _prod(b, d)[1]))

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return -self + other

    def __truediv__(self, other):
        o = _operand(other)
        c, d = o.lo, o.hi
        if c <= 0.0 <= d:
            raise NonFiniteInterval(f"division by [{c}, {d}]")
        if d < 0.0:
            return -(self / -o)
        a, b = self.lo, self.hi
        return Ivl(_quot(a, d if a >= 0.0 else c)[0],
                   _quot(b, c if b >= 0.0 else d)[1])

    def __abs__(self):
        if self.lo >= 0.0:
            return self
        if self.hi <= 0.0:
            return -self
        return Ivl(0.0, max(-self.lo, self.hi))

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


def interval_eval_controller(x: Ivl, y: Ivl, k: Ivl, vl: Ivl, vh: Ivl,
                             v: Ivl, a: Ivl, p: Params) -> IntervalVerdict:
    """Evaluate the controller monitor (feasibility and admissibility) over a
    box of states: Unknown on an undecided comparison or a non-finite result."""
    try:
        pp = Params(Ivl(p.accel_max), Ivl(p.brake_max), Ivl(p.cycle_max), Ivl(p.tol))
        verdict = controller_monitor(RelWaypoint(x, y, k, vl, vh), v, a, pp)
    except (Undecided, NonFiniteInterval):
        return UNKNOWN
    return DEFINITELY_TRUE if verdict.passed else DEFINITELY_FALSE
