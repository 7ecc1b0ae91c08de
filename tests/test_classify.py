"""The location decision table and the spectral-density bookkeeping."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tls_scope.classify import classify_location, spectral_density
from tls_scope.stm import Location

#: (responds to V_p, V_g, V_s) -> location, for a defect seen in more
#: than one segment.
DECISION_TABLE = {
    (False, False, False): Location.UNCLASSIFIED,
    (True, False, False): Location.JUNCTION,
    (False, True, False): Location.SURFACE_ELECTRODE,
    (True, True, False): Location.SURFACE_ELECTRODE,
    (False, False, True): Location.SAMPLE_DIELECTRIC,
    (True, False, True): Location.SAMPLE_DIELECTRIC,
    (False, True, True): Location.SAMPLE_DIELECTRIC,
    (True, True, True): Location.SAMPLE_DIELECTRIC,
}


def responds(p, g, s):
    return {"piezo": p, "global": g, "sample": s}


class TestClassifyLocation:
    @pytest.mark.parametrize("flags", list(itertools.product((False, True), repeat=3)))
    def test_decision_table(self, flags):
        assert classify_location(responds(*flags), False) is DECISION_TABLE[flags]

    @pytest.mark.parametrize("flags", list(itertools.product((False, True), repeat=3)))
    def test_single_segment_stays_unclassified(self, flags):
        assert classify_location(responds(*flags), True) is Location.UNCLASSIFIED


def reference_density(visible_fractions, n_segments, span_ghz):
    """The density as it was defined on per-defect float visible fractions:
    each float, and the span, taken as the nearest fraction with a
    denominator of at most 10^6, summed and normalized."""
    def exact(x):
        return Fraction(x).limit_denominator(10**6)

    total = sum((exact(f) for fs in visible_fractions for f in fs), Fraction(0))
    return total / (n_segments * exact(span_ghz))


@st.composite
def scans(draw):
    """(bias steps per segment, per defect its trace points per segment,
    the class's trace points per segment)."""
    n_bias = draw(st.lists(st.integers(2, 1000), min_size=1, max_size=12))
    defects = draw(st.lists(st.tuples(*(st.integers(0, n) for n in n_bias)), max_size=40))
    return n_bias, defects, [sum(d[s] for d in defects) for s in range(len(n_bias))]


SPANS = st.sampled_from([0.9, 0.25, 1.0 / 3.0, 2, 0.7])


class TestSpectralDensity:
    def test_worked_example(self):
        # One defect seen over half of one of eight segments, 0.9 GHz span.
        assert spectral_density([40] + [0] * 7, [80] * 8, 0.9) == Fraction(5, 72)

    def test_no_segment(self):
        with pytest.raises(ValueError, match="n_segments"):
            spectral_density([], [], 0.9)

    def test_one_count_per_segment(self):
        with pytest.raises(ValueError):
            spectral_density([40, 0], [80], 0.9)

    @pytest.mark.parametrize("span", [0.0, -0.9, Fraction(0)])
    def test_non_positive_span(self, span):
        with pytest.raises(ValueError, match="span"):
            spectral_density([40], [80], span)

    @pytest.mark.parametrize("span", [100 * 2.0**-30, 7e-7, 1 + 2.0**-20])
    def test_a_span_no_short_fraction_matches_is_taken_exactly(self, span):
        # The nearest fraction with a denominator of at most 10^6 is 0 for
        # the first span (a ValueError), 1e-6 for the second and 1 + 1e-6
        # for the third: none is within 1e-9 of the span.
        assert spectral_density([1], [1], span) == 1 / Fraction(span)

    @given(scan=scans(), span=SPANS)
    def test_one_call_per_class_equals_the_sum_per_defect(self, scan, span):
        n_bias, defects, points = scan
        whole = spectral_density(points, n_bias, span)
        parts = sum((spectral_density(list(d), n_bias, span) for d in defects), Fraction(0))
        assert whole == parts
        assert float(whole) == float(parts)

    @given(scan=scans(), span=SPANS)
    def test_counts_give_the_float_definition(self, scan, span):
        # Each float points/n_bias limit-denominators back to exactly
        # points/n_bias, so the count form is the same Fraction.
        n_bias, defects, points = scan
        visible = [[p / n for p, n in zip(d, n_bias)] for d in defects]
        density = spectral_density(points, n_bias, span)
        assert density == reference_density(visible, len(n_bias), span)
