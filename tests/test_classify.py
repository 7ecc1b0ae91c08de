"""The location decision table and the spectral-density bookkeeping."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tls_scope.classify import _to_fraction, classify_location, spectral_density
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


class TestSpectralDensity:
    def test_worked_example(self):
        assert spectral_density([[0.5]], 8, 0.9) == Fraction(5, 72)

    @pytest.mark.parametrize("n_segments", [0, -1])
    def test_non_positive_segment_count(self, n_segments):
        with pytest.raises(ValueError, match="n_segments"):
            spectral_density([[0.5]], n_segments, 0.9)

    @pytest.mark.parametrize("span", [0.0, -0.9, Fraction(0)])
    def test_non_positive_span(self, span):
        with pytest.raises(ValueError, match="span"):
            spectral_density([[0.5]], 8, span)

    @given(
        defects=st.lists(
            st.lists(st.integers(0, 80).map(lambda k: k / 80), min_size=1, max_size=8),
            max_size=40,
        ),
        n_segments=st.integers(1, 12),
        span=st.sampled_from([0.9, 0.25, 1.0 / 3.0, 2]),
    )
    def test_one_call_per_class_equals_the_sum_per_defect(self, defects, n_segments,
                                                           span):
        whole = spectral_density(defects, n_segments, span)
        parts = sum(
            (spectral_density([d], n_segments, span) for d in defects), Fraction(0)
        )
        assert whole == parts
        assert float(whole) == float(parts)

    @given(
        defects=st.lists(
            st.lists(
                st.one_of(
                    st.integers(0, 80).map(lambda k: k / 80),
                    st.floats(0.0, 1.0),
                    st.fractions(0, 1, max_denominator=10**8),
                    st.sampled_from([0.1, Fraction(0.1), Fraction(1, 10), 1, 1.0]),
                ),
                max_size=8,
            ),
            max_size=40,
        ),
        n_segments=st.integers(1, 12),
        span=st.sampled_from([0.9, 0.25, 1.0 / 3.0, 2, Fraction(7, 3)]),
    )
    def test_counted_sum_equals_the_loop_it_replaces(self, defects, n_segments, span):
        # The per-defect loop spectral_density ran before it counted
        # distinct values; the Fraction must be the same, not just close.
        span_f = _to_fraction(span)
        total = Fraction(0)
        for fractions in defects:
            s = sum((_to_fraction(f) for f in fractions), Fraction(0))
            total += s / n_segments
        assert spectral_density(defects, n_segments, span) == total / span_f
