"""Location classification and spectral-density bookkeeping.

The location of a defect follows from which controls move its resonance:

    responds to V_s                        -> sample dielectric
    responds to V_g but not V_s            -> surface/electrode interface
    responds only to strain                -> junction barrier
    responds to nothing, or seen in only   -> unclassified
    a single segment

Spectral densities count trace points: every trace point of a class
stands for one bias step of its segment, so a segment contributes
points / bias steps, and the sum is normalized by (number of segments x
frequency span).  The arithmetic is done with exact rationals, so worked
examples like 0.5/8/0.9 GHz^-1 reproduce bit-for-bit and the density
does not depend on the order in which points are counted.
"""

from __future__ import annotations

from fractions import Fraction

from .stm import Location

_FRACTION_LIMIT = 10**6
_SPAN_RTOL = Fraction(1, 10**9)


def classify_location(responds: dict, single_segment: bool) -> Location:
    """Apply the tunability decision table.

    ``responds`` maps each control name (``"piezo"``, ``"global"``,
    ``"sample"``) to whether the defect's resonance moves with it.
    ``single_segment`` marks defects observed in only one segment, which
    stay unclassified no matter what that segment showed.
    """
    if single_segment:
        return Location.UNCLASSIFIED
    if responds["sample"]:
        return Location.SAMPLE_DIELECTRIC
    if responds["global"]:
        return Location.SURFACE_ELECTRODE
    if responds["piezo"]:
        return Location.JUNCTION
    return Location.UNCLASSIFIED


def spectral_density(points: list[int], n_bias: list[int], span_ghz: float) -> Fraction:
    """Average number of detectable defects per frequency trace [1/GHz].

    ``points`` holds per segment the trace points of one class, ``n_bias``
    the segment's bias steps; ``span_ghz`` is the span of one trace, taken
    as the nearest fraction with a denominator of at most 10^6 where that
    is within 1e-9 of it, relative (a decimal span loses its float
    noise), else as its exact binary value.  Returns the exact
    sum_s points_s / n_bias_s / (n_segments x span).
    """
    if not n_bias:
        raise ValueError("n_segments must be positive")
    span = Fraction(span_ghz)
    if span <= 0:
        raise ValueError("span must be positive")
    near = span.limit_denominator(_FRACTION_LIMIT)
    if abs(near - span) <= _SPAN_RTOL * span:
        span = near
    total = sum((Fraction(p, n) for p, n in zip(points, n_bias, strict=True)), Fraction(0))
    return total / (len(n_bias) * span)
