"""A fixed pure-Python loop that measures how fast the host runs right now.

On a shared host the same code runs up to half again as slow in some
stretches of seconds or minutes as in others, as other tenants load the
same cores. The benchmark times this loop next to every timed call and
scales the call's time by ``REFERENCE_S / loop time``. Its figures are
therefore seconds at one fixed host speed, the speed at which the loop
takes ``REFERENCE_S``: about this loop's time on the 2-vCPU Xeon VM the
benchmark was sized on, when that host was quiet. The loop calls nothing
from the package, so a change to the package moves the scaled figures in
full while the host's drift cancels.

Only ``sys`` and ``time`` are imported here: the set-up probe loads this
module before it times the package import, and must not load anything
the package would.
"""

from time import perf_counter as clock

REFERENCE_S = 1e-3

_ITEMS = list(range(300))


def loop() -> int:
    total = 0
    for i in range(60):
        for x in _ITEMS:
            total += (x * i) % 7
    return total


def seconds() -> float:
    """Wall time of one run of :func:`loop`."""
    t0 = clock()
    loop()
    return clock() - t0


def scale(elapsed_s: float, loop_s: float) -> float:
    """``elapsed_s`` measured while the loop took ``loop_s``, in seconds
    at the reference host speed."""
    return elapsed_s * REFERENCE_S / loop_s
