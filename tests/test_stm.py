import math

import numpy as np
import pytest

from tls_scope.errors import SchemaError
from tls_scope.stm import (
    BiasPoint,
    Location,
    SensorDesign,
    TlsParams,
    TlsTable,
    coupling_mhz,
    design_thickness,
    dipole_to_gamma_s,
    energies,
    gamma_s_to_dipole,
    sample_capacitance,
    vacuum_voltage,
)


def eps_of(tls, v_p=0.0, v_g=0.0, v_s=0.0):
    return energies(tls, v_p, v_g, v_s)[0]


def e_of(tls, v_p=0.0, v_g=0.0, v_s=0.0):
    return energies(tls, v_p, v_g, v_s)[1]


def design(d=50e-9, area=0.25e-6 * 0.30e-6, eps_r=10.0, c_tot=100e-15,
           f10=6.2e9, t1=4.3):
    return SensorDesign(d=d, area=area, eps_r=eps_r, c_tot=c_tot,
                        omega10=2 * math.pi * f10, t1_qubit=t1)


class TestAsymmetry:
    def test_zero_case(self):
        tls = TlsParams(delta0=5.0)
        assert eps_of(tls, v_p=40.0, v_g=-12.0, v_s=1e-3) == 0.0

    def test_sample_bias_term(self):
        tls = TlsParams(delta0=5.0, eps_i=1.0, gamma_s=161.95)
        assert eps_of(tls, v_s=0.001) == pytest.approx(1.16195, abs=1e-12)

    def test_piezo_cancels_intrinsic(self):
        tls = TlsParams(delta0=5.0, eps_i=1.0, gamma_p=0.022)
        assert eps_of(tls, v_p=-45.45) == pytest.approx(0.0, abs=1e-4)

    def test_linear_in_each_control(self):
        tls = TlsParams(delta0=5.0, eps_i=0.3, gamma_p=0.02, gamma_g=0.01, gamma_s=90.0)
        expected = 0.3 + 0.02 * 10 + 0.01 * 5 + 90 * 1e-3
        assert eps_of(tls, 10.0, 5.0, 1e-3) == pytest.approx(expected, rel=1e-15)

    def test_table_matches_each_defect(self):
        rng = np.random.default_rng(0)
        tls = [TlsParams(delta0=d, eps_i=e, gamma_p=p, gamma_g=g, gamma_s=s)
               for d, e, p, g, s in rng.uniform(0.5, 8.0, (20, 5))]
        v_s = np.linspace(-2e-3, 2e-3, 7)[:, None]
        eps, e = energies(TlsTable.of(tls), 3.0, -1.0, v_s)
        for k, t in enumerate(tls):
            eps_k, e_k = energies(t, 3.0, -1.0, v_s[:, 0])
            assert np.array_equal(eps[:, k], eps_k)
            assert np.array_equal(e[:, k], e_k)


class TestTransitionEnergy:
    def test_symmetry_point(self):
        assert e_of(TlsParams(delta0=5.957)) == 5.957

    def test_pythagorean(self):
        tls = TlsParams(delta0=3.0, eps_i=4.0)
        assert e_of(tls) == pytest.approx(5.0, rel=1e-15)

    def test_direct_evaluation(self):
        tls = TlsParams(delta0=5.440, eps_i=1.0)
        assert e_of(tls) == pytest.approx(5.531148162904335, rel=1e-12)

    def test_even_in_eps_and_monotone(self):
        rng = np.random.default_rng(1)
        d0 = rng.uniform(0.5, 8, 100)
        e = rng.uniform(0, 6, 100)
        table = TlsTable.of([TlsParams(delta0=d, gamma_s=1.0) for d in d0])
        up = energies(table, 0.0, 0.0, e)[1]
        assert np.allclose(energies(table, 0.0, 0.0, -e)[1], up, rtol=1e-15, atol=0)
        assert np.all(energies(table, 0.0, 0.0, e + 0.1)[1] > up)
        assert np.all(up >= d0)

    def test_hyperbola_vertex_is_delta0(self):
        tls = TlsParams(delta0=5.2, eps_i=0.4, gamma_s=200.0)
        es = e_of(tls, v_s=np.linspace(-2.5e-3, 2.5e-3, 2001))
        assert es.min() == pytest.approx(5.2, rel=1e-7)


class TestMatrixElement:
    def test_unity_at_symmetry(self):
        assert 4.0 / e_of(TlsParams(delta0=4.0)) == 1.0

    def test_three_four_five(self):
        assert 3.0 / e_of(TlsParams(delta0=3.0, eps_i=4.0)) == pytest.approx(0.6)

    def test_equal_split(self):
        me = 5.957 / e_of(TlsParams(delta0=5.957, eps_i=5.957))
        assert me == pytest.approx(1 / math.sqrt(2), rel=1e-15)

    def test_pythagorean_identity(self):
        rng = np.random.default_rng(2)
        table = TlsTable.of([TlsParams(delta0=d, eps_i=e) for d, e in
                             zip(rng.uniform(0.1, 9, 200), rng.uniform(-9, 9, 200))])
        eps, e = energies(table, 0.0, 0.0, 0.0)
        assert np.allclose((table.delta0 / e) ** 2 + (eps / e) ** 2, 1.0,
                           rtol=1e-12, atol=0)


class TestCouplingStrength:
    def test_zero_dipole(self):
        assert coupling_mhz(0.0, 1.0, 90.0) == 0.0

    def test_sample_capacitor_field(self):
        # 0.1 eA at the 90 V/m capacitor field: g = p*F/h ~ 0.218 MHz
        assert coupling_mhz(0.1, 1.0, 90.0) == pytest.approx(0.2176, rel=1e-3)

    def test_three_four_five_matrix_element(self):
        tls = TlsParams(delta0=3.0, eps_i=4.0, p_parallel=0.1)
        g = coupling_mhz(tls.p_parallel, tls.delta0 / e_of(tls), 90.0)
        assert g == pytest.approx(0.6 * coupling_mhz(0.1, 1.0, 90.0), rel=1e-15)

    def test_junction_field_six_times_weaker(self):
        g_sample = coupling_mhz(0.1, 1.0, 90.0)
        g_junction = coupling_mhz(0.1, 1.0, 15.0)
        assert g_sample == pytest.approx(6.0 * g_junction, rel=1e-15)

    def test_linear_in_dipole_and_field(self):
        g = coupling_mhz(np.array([0.2, 0.4, 0.2]), 1.0, np.array([30.0, 30.0, 60.0]))
        assert g[1:] == pytest.approx([2 * g[0], 2 * g[0]], rel=1e-15)


class TestDesignRules:
    def test_vacuum_voltage_paper_value(self):
        assert vacuum_voltage(design()) * 1e6 == pytest.approx(4.5, rel=0.02)

    def test_vacuum_voltage_quarter_capacitance(self):
        v100 = vacuum_voltage(design(c_tot=100e-15))
        v25 = vacuum_voltage(design(c_tot=25e-15))
        assert v25 == pytest.approx(2 * v100, rel=1e-12)
        assert v25 * 1e6 == pytest.approx(9.06, rel=5e-3)

    def test_thickness_rule_paper_value(self):
        d = design_thickness(0.1, 1e-6, 4.5e-6)
        assert d * 1e9 == pytest.approx(68.4, rel=5e-3)
        assert d * 1e9 == pytest.approx(70.0, rel=0.05)

    def test_thickness_linear_in_t1(self):
        assert design_thickness(0.1, 2e-6, 4.5e-6) == pytest.approx(
            2 * design_thickness(0.1, 1e-6, 4.5e-6), rel=1e-15
        )

    def test_thickness_big_dipole(self):
        assert design_thickness(0.335, 1e-6, 4.5e-6) * 1e9 == pytest.approx(229.0, rel=5e-3)

    def test_sample_capacitance_second_generation(self):
        c = sample_capacitance(design())
        assert c * 1e15 == pytest.approx(0.1328, rel=1e-3)
        assert c * 1e15 == pytest.approx(0.15, rel=0.2)

    def test_sample_capacitance_linear_in_area(self):
        c1 = sample_capacitance(design())
        c2 = sample_capacitance(design(area=2 * 0.25e-6 * 0.30e-6))
        assert c2 == pytest.approx(2 * c1, rel=1e-15)

    def test_sample_capacitance_first_generation(self):
        big = design(area=0.3e-6 * 2.1e-6)
        assert sample_capacitance(big) * 1e15 == pytest.approx(1.1156, rel=1e-3)

    def test_loading_warning_when_capacitor_dominates(self):
        with pytest.warns(UserWarning):
            design(area=40 * 0.3e-6 * 2.1e-6)  # C_s > 5% of C_tot


class TestDipoleConversion:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = rng.uniform(0.01, 2.0)
            d = rng.uniform(10e-9, 200e-9)
            gamma = dipole_to_gamma_s(p, d)
            assert gamma_s_to_dipole(gamma, d) == pytest.approx(p, rel=1e-12)

    def test_supp_table_rates(self):
        assert gamma_s_to_dipole(161.95, 50e-9) == pytest.approx(0.1674, rel=1e-3)
        assert gamma_s_to_dipole(92.25, 50e-9) == pytest.approx(0.0954, rel=2e-3)


class TestValidation:
    def test_delta0_positive(self):
        with pytest.raises(ValueError):
            TlsParams(delta0=0.0)

    def test_gamma2_vs_gamma1(self):
        with pytest.raises(ValueError):
            TlsParams(delta0=1.0, gamma1_tls=4.0, gamma2_tls=1.0)

    def test_dipole_magnitude(self):
        with pytest.raises(ValueError):
            TlsParams(delta0=1.0, p_parallel=-0.1)

    def test_location_consistency(self):
        with pytest.raises(ValueError):
            TlsParams(delta0=1.0, location=Location.SAMPLE_DIELECTRIC)
        with pytest.raises(ValueError):
            TlsParams(delta0=1.0, gamma_s=10.0, location=Location.JUNCTION)

    def test_bias_safety_limit(self):
        with pytest.raises(ValueError):
            BiasPoint(v_s=3e-3)

    def test_design_positive(self):
        with pytest.raises(ValueError):
            design(d=-1e-9)

    @pytest.mark.parametrize("share", [1.0, 2.0], ids=["equal", "above"])
    def test_sample_capacitance_must_stay_below_c_tot(self, share):
        c_s = sample_capacitance(design())
        with pytest.raises(ValueError, match="total capacitance must exceed the sample"):
            design(c_tot=c_s / share)

    def test_c_tot_just_above_sample_capacitance_is_built(self):
        c_s = sample_capacitance(design())
        with pytest.warns(UserWarning, match="load the qubit"):
            sensor = design(c_tot=np.nextafter(c_s, np.inf))
        assert sensor.c_tot > c_s


class TestSerialization:
    def test_tls_round_trip(self):
        tls = TlsParams(delta0=5.957, eps_i=-0.2, gamma_s=161.95, gamma_p=0.022,
                        p_parallel=0.335, location=Location.SAMPLE_DIELECTRIC)
        clone = TlsParams.from_dict(tls.to_dict())
        assert clone == tls

    def test_unknown_version_rejected(self):
        payload = TlsParams(delta0=1.0).to_dict()
        payload["schema_version"] = 99
        with pytest.raises(SchemaError):
            TlsParams.from_dict(payload)
