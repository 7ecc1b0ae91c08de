"""Location classification and spectral-density bookkeeping.

The location of a defect follows from which controls move its resonance:

    responds to V_s                        -> sample dielectric
    responds to V_g but not V_s            -> surface/electrode interface
    responds only to strain                -> junction barrier
    responds to nothing, or seen in only   -> unclassified
    a single segment

Spectral densities follow the per-trace bookkeeping: every defect
contributes its visible fraction of each segment, summed and normalized
by (number of segments x frequency span).  The arithmetic is done with
exact rationals so worked examples like 0.5/8/0.9 GHz^-1 reproduce
bit-for-bit, and one call over a class's defects equals the sum of one
call per defect.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from numbers import Rational

from .stm import Location

_FRACTION_LIMIT = 10**6


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


def _to_fraction(x) -> Fraction:
    if isinstance(x, Rational):
        return Fraction(x)
    return Fraction(x).limit_denominator(_FRACTION_LIMIT)


def spectral_density(
    visible_fractions: list[list[float]],
    n_segments: int,
    span_ghz,
) -> Fraction:
    """Average number of detectable defects per frequency trace [1/GHz].

    Parameters
    ----------
    visible_fractions : list of per-defect lists
        For each defect, the fraction of each segment's bias range in
        which its trace is visible (include only nonzero entries or all
        segments; zeros contribute nothing).
    n_segments : int
        Total number of segments in the dataset.
    span_ghz : float or Fraction
        Frequency span of one trace [GHz].

    Returns
    -------
    Fraction
        Exact rational density; ``float()`` it for reporting.
    """
    if n_segments <= 0:
        raise ValueError("n_segments must be positive")
    span = _to_fraction(span_ghz)
    if span <= 0:
        raise ValueError("span must be positive")
    # Each distinct value converts once; a Rational is kept apart from an
    # equal float, which converts through limit_denominator instead.
    counts = Counter((isinstance(f, Rational), f) for fs in visible_fractions for f in fs)
    total = sum((_to_fraction(f) * n for (_, f), n in counts.items()), Fraction(0))
    return total / (n_segments * span)
