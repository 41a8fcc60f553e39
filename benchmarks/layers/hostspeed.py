"""Host-speed calibration for the end-to-end pass.

The benchmark runs on a few virtual cores of a shared host, where the
same instructions take up to 1.6 times longer from one second to the
next (slower execution, not preemption: CPU time stretches with the wall
clock).  Ten runs of identical code then spread by 10-30 %, more than
any bound a regression gate could use.

So the end-to-end pass interleaves a fixed piece of work with the
measured work: 2048-bit modular exponentiations by the interpreter's
built-in ``pow``, which no code of the repository can make faster or
slower.  A burst runs first of all, then after every set-up and every
query; each stretch of measured work between two bursts is scaled by
how fast the host ran those two bursts, relative to a nominal speed.
Times are therefore reported in seconds *at the nominal host speed*.
The median factor of a run is printed beside them.
"""

from __future__ import annotations

import random
import time

#: Seconds one unit (one modular exponentiation) takes at nominal speed:
#: about what the 2.1 GHz development host does in a quiet second.
NOMINAL_UNIT_SECONDS = 0.025
#: A burst lasts about this share of the measured stretch it follows ...
SHARE = 0.10
#: The opening burst, which follows no stretch, lasts as if it had
#: followed one of this many seconds.
OPENING_STRETCH = 1.0

_rng = random.Random(2048)
_MODULUS = (1 << 2048) - 1557
_BASE = _rng.getrandbits(2040)
_EXPONENT = _rng.getrandbits(2040)


def _burst(covering: float) -> float:
    """Run units for about ``SHARE * covering`` seconds; seconds per unit."""
    units = 0
    started = time.perf_counter()
    while True:
        pow(_BASE, _EXPONENT, _MODULUS)
        units += 1
        spent = time.perf_counter() - started
        if spent >= SHARE * covering:
            return spent / units


class HostSpeed:
    """Speed factors for consecutive stretches of measured work."""

    def __init__(self) -> None:
        self.factors: list[float] = []
        self._unit_seconds = _burst(OPENING_STRETCH)

    def factor(self, covering: float) -> float:
        """Close a stretch of ``covering`` seconds that began when the
        previous burst ended: run the next burst and return nominal speed
        over measured speed, by which the stretch's times are multiplied."""
        before, self._unit_seconds = self._unit_seconds, _burst(covering)
        factor = NOMINAL_UNIT_SECONDS / ((before + self._unit_seconds) / 2.0)
        self.factors.append(factor)
        return factor
