"""Order statistics, metric naming and the host-drift calibration loop."""

import math
import re
import statistics
import time

#: the fewest samples a p90 is reported from: ten must lie beyond it
MIN_P90_SAMPLES = 100

NAME_PATTERN = re.compile(r"[A-Za-z0-9_.-]+\Z")


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def median_of_medians(samples):
    """The median over groups of each group's median; ``samples`` are
    ``(group, value)`` pairs.

    With a few request kinds in equal shares whose latencies differ
    several-fold, the median of all samples falls in the gap between two
    kinds and is set by two extreme samples; the median of the kinds'
    medians stays where the samples are dense.
    """
    groups = {}
    for group, value in samples:
        groups.setdefault(group, []).append(value)
    return median([median(values) for values in groups.values()])


def percentile(values, fraction):
    """Nearest-rank percentile: the smallest sample with ``fraction`` at or below."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def p90(values):
    """The 90th percentile, refused below :data:`MIN_P90_SAMPLES` samples."""
    if len(values) < MIN_P90_SAMPLES:
        raise ValueError(
            "p90 needs at least %d samples, got %d"
            % (MIN_P90_SAMPLES, len(values))
        )
    return percentile(values, 0.9)


def check_name(name):
    """Return ``name`` if it is a legal metric name, else raise."""
    if not NAME_PATTERN.match(name):
        raise ValueError("illegal metric name %r" % name)
    return name


#: iterations of the calibration loop (about 20-40 ms of pure Python)
CALIBRATION_ITERATIONS = 200_000


def calibration_ms():
    """Wall time of a fixed pure-Python loop, in ms.

    Recorded before and after each run to show host drift; never used to
    scale a metric.
    """
    started = time.perf_counter()
    total = 0
    for index in range(CALIBRATION_ITERATIONS):
        total += (index * 7) % 13
    elapsed = time.perf_counter() - started
    if total < 0:  # keeps the loop's result live
        raise AssertionError
    return elapsed * 1000.0
