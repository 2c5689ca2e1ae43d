"""Runtime safety net for 2D waypoint-following ground robots.

Monitored Simplex loop: an untrusted feedback controller proposes a
(waypoint, curvature, acceleration) decision each cycle, a controller
monitor gates it, a plant monitor checks the physics afterwards, and a
maximum-braking fallback takes over whenever either check fails.
"""

from waynet.core import Params, RelWaypoint, WorldPose
from waynet.monitor import MonitorVerdict, Clause

__all__ = [
    "Params",
    "RelWaypoint",
    "WorldPose",
    "MonitorVerdict",
    "Clause",
]

__version__ = "0.1.0"
