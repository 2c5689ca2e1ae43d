"""The 1D idealized driving model: the test oracle for the monitored loop's
core argument (drive only when far enough, stopping is always allowed), run
by the acceptance suite's never-collides check and the monitor unit tests."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Toy1DState:
    """1D idealized driving: distance d to the destination, maximum speed V,
    and maximum cycle duration T."""

    d: float
    V: float
    T: float

    def __post_init__(self):
        if self.V < 0.0:
            raise ValueError(f"Toy1DState.V must be non-negative, got {self.V!r}")
        if self.T < 0.0:
            raise ValueError(f"Toy1DState.T must be non-negative, got {self.T!r}")


def monitor_1d(s: Toy1DState, proposed_v: float) -> bool:
    """1D monitor: drive at proposed_v in [0, V] only when far enough
    (d >= T V); stopping is always allowed."""
    if proposed_v == 0.0:
        return True
    return s.d >= s.T * s.V and 0.0 <= proposed_v <= s.V


def simulate_1d(d0: float, V: float, T: float, proposals, monitored: bool = True):
    """Run the 1D episode: each cycle a proposed speed is gated by monitor_1d
    (substituting the stop fallback on rejection, when monitored) and distance
    decreases for a full cycle. Returns the list of distances after each cycle.

    ``proposals`` yields (proposed_v, cycle_duration) pairs with duration <= T.
    """
    d = d0
    trace = [d]
    for proposed_v, dt in proposals:
        s = Toy1DState(d=d, V=V, T=T)
        if monitored and not monitor_1d(s, proposed_v):
            proposed_v = 0.0
        d -= proposed_v * dt
        trace.append(d)
    return trace
