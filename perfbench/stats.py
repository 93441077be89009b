"""Summary statistics for perfbench: supported percentiles and spreads."""

import math
import statistics

MIN_BEYOND = 10  # samples a percentile needs strictly beyond it


def supports(count, q):
    """True when `count` samples leave >= MIN_BEYOND beyond the q-th
    percentile (q in (0, 100))."""
    return count * (100.0 - q) / 100.0 >= MIN_BEYOND


def percentile(values, q):
    """Nearest-rank q-th percentile of `values`.

    Refuses (ValueError) a percentile with fewer than MIN_BEYOND samples
    beyond it: a p99 needs at least 1000 samples, a p50 at least 20.
    """
    if not 0 < q < 100:
        raise ValueError("percentile must be in (0, 100), got %r" % (q,))
    n = len(values)
    if not supports(n, q):
        raise ValueError("p%g needs %d samples, have %d"
                         % (q, math.ceil(MIN_BEYOND * 100.0 / (100.0 - q)),
                            n))
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * n) - 1)]


def median(values):
    return statistics.median(values)


def quantile(values, q):
    """The q-th quantile (q in [0, 1]) of `values`, interpolating linearly
    between order statistics."""
    ordered = sorted(values)
    at = q * (len(ordered) - 1)
    low = int(at)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (at - low)


def trimmed_mean(values, share=0.1):
    """Mean of `values` without the lowest and the highest `share` of them.

    Latencies on a shared host are a mix of a fast and a slow mode. The
    median snaps to whichever mode holds more than half the samples; the
    trimmed mean moves smoothly with the mix, and the trim keeps a few
    stalls out of it.
    """
    ordered = sorted(values)
    cut = int(len(ordered) * share)
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def summarize(values):
    """Median, quartiles and max-min spread of repeated run values. The
    relative figures are shares of the median."""
    values = list(values)
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    scale = abs(med) if med else 1.0
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "iqr_rel": (q3 - q1) / scale,
        "range_rel": (max(values) - min(values)) / scale,
        "runs": len(values),
    }
