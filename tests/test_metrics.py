"""Material quantities: SI conversions, input checks and the report."""

import math
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from tls_scope.errors import ConfigError
from tls_scope.metrics import (
    loss_tangent,
    material_report,
    participation_ratio,
    volume_density,
)
from tls_scope.pipeline import AnalysisResult, TlsRecord
from tls_scope.stm import Location, SensorDesign

# SI values, written out here independently of tls_scope.constants.
H = 6.62607015e-34  # J s
E = 1.602176634e-19  # C
EPS0 = 8.8541878188e-12  # F/m

DESIGN = SensorDesign(
    d=50e-9, area=0.075e-12, eps_r=10.0, c_tot=100e-15,
    omega10=2 * math.pi * 6.2e9, t1_qubit=4.3,
)


def test_loss_tangent_by_hand():
    p0 = 1000.0  # 1/(um^3 GHz)
    p0_si = p0 / (1e-18 * H * 1e9)  # 1/(m^3 J)
    p_si = 0.4 * E * 1e-10  # C m
    expected = math.pi * p0_si * p_si**2 / (3 * EPS0 * 10.0)
    assert loss_tangent(p0, 0.4, 10.0) == pytest.approx(expected, rel=1e-12)
    assert 1e-4 < expected < 1e-3


@pytest.mark.parametrize("call", [
    lambda: volume_density(1.0, 0.0),
    lambda: volume_density(1.0, -1.0),
    lambda: loss_tangent(-1.0, 0.4, 10.0),
    lambda: loss_tangent(1.0, -0.4, 10.0),
    lambda: loss_tangent(1.0, 0.4, 0.0),
], ids=["volume-zero", "volume-negative", "p0-negative", "dipole-negative", "eps-zero"])
def test_input_errors(call):
    with pytest.raises(ValueError):
        call()


def test_participation_ratio_needs_c_tot_above_c_s():
    assert participation_ratio(DESIGN) == pytest.approx(
        EPS0 * 10.0 * 0.075e-12 / 50e-9 / 100e-15, rel=1e-12
    )
    with pytest.warns(UserWarning, match="load the qubit"):
        design = replace(DESIGN, c_tot=1e-15)
    assert participation_ratio(design) == pytest.approx(0.1328, rel=1e-3)
    # A sensor whose sample capacitor holds all of c_tot is refused when built.
    with pytest.raises(ValueError, match="total capacitance must exceed"):
        replace(DESIGN, c_tot=1e-18)


def record(k, location, p_parallel):
    return TlsRecord(
        id=k, location=location,
        responds={"piezo": False, "global": False, "sample": p_parallel is not None},
        delta0=None, delta0_sigma=None, gammas={},
        p_parallel=p_parallel, visible_fractions=[1.0, 0.0], n_segments_seen=2,
        covariance=None,
    )


SAMPLE = Location.SAMPLE_DIELECTRIC
DENSITY = {"sample_dielectric": Fraction(9, 10), "unclassified": Fraction(1, 2)}
VOLUME = 2.25e-3


def analysis(records):
    return AnalysisResult(records=records, tracks=[],
                          density_by_class=DENSITY)


@pytest.fixture
def mixed():
    """Three sample-dielectric dipoles (0.2, 0.4, 0.6 eA), one sample
    defect without a dipole, and a large dipole on an unclassified one."""
    return analysis([
        record(0, SAMPLE, 0.2),
        record(1, Location.UNCLASSIFIED, 5.0),
        record(2, SAMPLE, 0.4),
        record(3, SAMPLE, None),
        record(4, Location.JUNCTION, None),
        record(5, SAMPLE, 0.6),
    ])


class TestMaterialReport:
    def test_dipoles_come_from_sample_records_only(self, mixed):
        rep = material_report(mixed, volume_um3=VOLUME, eps_r=10.0, thickness_nm=50.0)
        assert rep["n_tls_total"] == 6
        assert rep["n_sample_tls"] == 3
        assert rep["p_parallel_mean_eA"] == pytest.approx(0.4, rel=1e-12)
        assert rep["p_parallel_std_eA"] == pytest.approx(0.2, rel=1e-12)
        assert rep["sample_density_per_GHz"] == 0.9
        assert rep["P0_per_um3_GHz"] == 0.9 / VOLUME
        assert rep["tan_delta0"] == loss_tangent(0.9 / VOLUME, rep["p_parallel_mean_eA"], 10.0)
        assert rep["spectral_density_per_GHz"] == {
            "sample_dielectric": 0.9, "unclassified": 0.5,
        }

    def test_no_dipole_means_no_loss_tangent(self):
        rep = material_report(analysis([record(0, SAMPLE, None)]), volume_um3=VOLUME,
                              eps_r=10.0, thickness_nm=50.0)
        assert rep["n_sample_tls"] == 0
        assert rep["p_parallel_mean_eA"] is None and rep["p_parallel_std_eA"] is None
        assert rep["tan_delta0"] is None

    @pytest.mark.parametrize("volume, eps_r, dipole, needle", [
        (1e-320, 10.0, 0.4, "P0, tan_delta0 overflow with volume_um3 1e-320, eps_r 10.0"),
        (VOLUME, 1e-320, 0.4, "tan_delta0 overflow with volume_um3 0.00225, eps_r 1e-320"),
        (VOLUME, 10.0, 1e200, "dipole std, tan_delta0 overflow with volume_um3 0.00225"),
    ], ids=["tiny-volume", "tiny-eps", "huge-dipole"])
    def test_overflow_is_refused(self, volume, eps_r, dipole, needle):
        # These used to give Infinity in the report, a ZeroDivisionError
        # and an OverflowError.
        records = analysis([record(0, SAMPLE, dipole), record(1, SAMPLE, dipole / 2)])
        with pytest.raises(ConfigError, match=re.escape(needle)):
            material_report(records, volume_um3=volume, eps_r=eps_r, thickness_nm=50.0)
