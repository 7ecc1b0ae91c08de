import math

import numpy as np
import pytest

from tls_scope.errors import ConfigError, OutOfRange, SchemaError
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


#: Plates of the second-generation sample capacitor, 0.25 x 0.30 um [m^2].
AREA = 0.25e-6 * 0.30e-6


def design(d=50e-9, volume=AREA * 50e-9, eps_r=10.0, c_tot=100e-15,
           f10=6.2e9, t1=4.3):
    return SensorDesign(d=d, volume=volume, eps_r=eps_r, c_tot=c_tot,
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

    @pytest.mark.parametrize("value", [0.0, math.nan, -1.0])
    @pytest.mark.parametrize("name", ["p_min", "t1", "v_rms"])
    def test_thickness_rule_refuses_each_argument_by_name(self, name, value):
        # A NaN used to pass "p_min <= 0 or t1 <= 0 or v_rms <= 0" and come
        # back as a NaN thickness; a refusal named none of the three alone.
        args = {"p_min": 0.1, "t1": 1e-6, "v_rms": 4.5e-6, name: value}
        with pytest.raises(OutOfRange, match=f"^{name} must be > 0, got {value}$") as exc:
            design_thickness(**args)
        assert exc.value.name == name

    def test_sample_capacitance_second_generation(self):
        c = sample_capacitance(design())
        assert c * 1e15 == pytest.approx(0.1328, rel=1e-3)
        assert c * 1e15 == pytest.approx(0.15, rel=0.2)

    def test_sample_capacitance_linear_in_area(self):
        # At a fixed thickness, twice the film volume is twice the plate area.
        c1 = sample_capacitance(design())
        c2 = sample_capacitance(design(volume=2 * AREA * 50e-9))
        assert c2 == pytest.approx(2 * c1, rel=1e-15)

    def test_sample_capacitance_is_eps_volume_over_d_squared(self):
        # The default film of generate: 2.25e-3 um^3, 50 nm thick, eps_r 10.
        c = sample_capacitance(design(volume=2.25e-21))
        assert c == pytest.approx(8.8541878188e-12 * 10.0 * 2.25e-21 / (50e-9) ** 2, rel=1e-14)
        assert c == pytest.approx(7.96877e-17, rel=1e-6)
        # At a fixed volume the plates shrink as the film thickens: C_s ~ 1/d^2.
        assert sample_capacitance(design(d=100e-9, volume=2.25e-21)) == pytest.approx(
            c / 4, rel=1e-14)

    def test_tiny_thickness_is_refused_by_the_capacitance_rule(self):
        # (1e-309 m)**2 is 0; dividing by d twice gives an infinite C_s
        # instead of a ZeroDivisionError.
        with pytest.raises(ConfigError, match="must exceed the sample capacitance inf F"):
            design(d=1e-309)

    def test_sample_capacitance_first_generation(self):
        big = design(volume=0.3e-6 * 2.1e-6 * 50e-9)
        assert sample_capacitance(big) * 1e15 == pytest.approx(1.1156, rel=1e-3)

    def test_loading_warning_when_capacitor_dominates(self):
        with pytest.warns(UserWarning, match="holds 44.6% of the total") as record:
            design(volume=40 * 0.3e-6 * 2.1e-6 * 50e-9)  # C_s > 5% of C_tot
        # The warning names the line that built the sensor, not the
        # dataclass's generated __init__ ("<string>").
        assert record[0].filename == __file__


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

    def test_gamma2_finite_and_positive(self):
        # Gamma2 = 0 used to pass, and a line exactly on a grid frequency
        # then made the T1 map divide 0 by 0 (a NaN column); an infinite
        # Gamma2 divides inf by inf at every cell.
        for gamma2 in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError,
                               match=f"^gamma2_tls must be finite and > 0, got {gamma2}$"):
                TlsParams(delta0=1.0, gamma2_tls=gamma2)

    @pytest.mark.parametrize("field, value", [
        ("delta0", math.inf), ("eps_i", math.nan), ("gamma_p", math.nan),
        ("gamma_g", -math.inf), ("gamma_s", math.inf), ("p_parallel", math.nan),
    ])
    def test_every_number_finite(self, field, value):
        # Each used to construct; a NaN p_parallel then ended in "half or
        # more of its T1 values are missing", which names no field.
        with pytest.raises(OutOfRange, match=f"^{field} must be finite, got {value}$") as exc:
            TlsParams(**{"delta0": 1.0, field: value})
        assert exc.value.name == field

    @pytest.mark.parametrize("field, value", [
        ("eps_i", "x"), ("gamma_s", True), ("delta0", False), ("p_parallel", None),
        ("gamma2_tls", [1.0]), ("gamma_p", np.array([[0.01], [np.nan]])),
    ])
    def test_every_field_a_number(self, field, value):
        # The string, True and the array used to construct, None and the
        # list ended in a TypeError, and False read "delta0 must be > 0":
        # only a float was checked, for pairfit's array of trial gamma_p.
        with pytest.raises(ConfigError, match=f"^{field} must be a number, got "):
            TlsParams(**{"delta0": 1.0, field: value})

    def test_ints_and_numpy_floats_are_numbers(self):
        tls = TlsParams(delta0=5, gamma_s=np.float64(90.0), gamma2_tls=6)
        assert (tls.delta0, tls.gamma_s) == (5, 90.0)

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

    def test_t1_whose_rate_overflows_refused(self):
        # 1e-320 is finite and > 0, but 1/T1, the qubit's background rate,
        # is not.
        with pytest.raises(OutOfRange, match="^t1_qubit must be large enough that "
                                             "1/t1_qubit is finite, got 1e-320$"):
            design(t1=1e-320)
        assert 1.0 / design(t1=1e-300).t1_qubit == pytest.approx(1e300)

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
