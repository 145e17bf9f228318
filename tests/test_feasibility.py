"""Tests for SI-unit feasibility estimates."""

import math

import pytest

from bumpscatter.feasibility import (
    EV,
    HBAR,
    M_E,
    assess,
    parse_energy,
    parse_length,
)


class TestUnitParsing:
    def test_energy_units(self):
        assert parse_energy("1eV") == pytest.approx(EV, rel=1e-12)
        assert parse_energy("5meV") == pytest.approx(5e-3 * EV, rel=1e-12)
        assert parse_energy("2.4e-19J") == pytest.approx(2.4e-19, rel=1e-12)
        assert parse_energy("2.4e-19") == pytest.approx(2.4e-19, rel=1e-12)
        assert parse_energy(" 0.7 keV ") == pytest.approx(700.0 * EV, rel=1e-12)

    def test_length_units(self):
        assert parse_length("1nm") == pytest.approx(1e-9, rel=1e-12)
        assert parse_length("50nm") == pytest.approx(5e-8, rel=1e-12)
        assert parse_length("0.5um") == pytest.approx(5e-7, rel=1e-12)
        assert parse_length("3angstrom") == pytest.approx(3e-10, rel=1e-12)
        assert parse_length("2e-9m") == pytest.approx(2e-9, rel=1e-12)
        assert parse_length("2e-9") == pytest.approx(2e-9, rel=1e-12)

    def test_bad_inputs_raise(self):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_energy("abc")
        with pytest.raises(ValueError, match="unknown energy unit"):
            parse_energy("1 parsec")
        with pytest.raises(ValueError, match="unknown length unit"):
            parse_length("1 furlong")


class TestAssess:
    def test_derived_scales_against_hand_formulae(self):
        v0 = parse_energy("1eV")
        rho = parse_length("1nm")
        e = parse_energy("1meV")
        sigma = parse_length("50nm")
        rep = assess(v0, rho, e, mass_ratio=0.01, sigma_m=sigma)

        mass = 0.01 * M_E
        k = math.sqrt(2.0 * mass * e) / HBAR
        assert rep.k_per_m == pytest.approx(k, rel=1e-12)
        assert rep.de_broglie_m == pytest.approx(2.0 * math.pi / k, rel=1e-12)
        assert rep.k_rho == pytest.approx(k * rho, rel=1e-12)
        assert rep.energy_over_v0 == pytest.approx(1e-3, rel=1e-12)
        assert rep.rho_over_sigma == pytest.approx(0.02, rel=1e-12)
        assert rep.k_sigma == pytest.approx(k * sigma, rel=1e-12)
        xi = v0 * rho
        assert rep.sigma_z == pytest.approx(
            2.0 * mass * sigma * xi / HBAR**2, rel=1e-12
        )

    def test_reference_point_k_rho_window(self):
        # The motivating configuration: a 1 eV, 1 nm groove probed at 1 meV
        # with effective mass 0.01 m_e sits comfortably inside the
        # delta-line validity window.
        rep = assess(
            parse_energy("1eV"),
            parse_length("1nm"),
            parse_energy("1meV"),
            mass_ratio=0.01,
            sigma_m=parse_length("50nm"),
        )
        assert 0.015 <= rep.k_rho <= 0.025
        assert rep.deep_defect_ok
        assert rep.narrow_defect_ok
        assert rep.thin_on_bump_ok

    def test_flags_flip_when_scales_collide(self):
        rho = parse_length("1nm")
        sigma = parse_length("50nm")
        # Shallow defect: E = V0 / 2.
        rep = assess(parse_energy("1eV"), rho, parse_energy("0.5eV"),
                     mass_ratio=0.01, sigma_m=sigma)
        assert not rep.deep_defect_ok
        # Wide defect: rho comparable to sigma.
        rep = assess(parse_energy("1eV"), parse_length("20nm"),
                     parse_energy("1meV"), mass_ratio=0.01, sigma_m=sigma)
        assert not rep.thin_on_bump_ok
        # Short wavelength: heavy particle at high energy makes k rho large.
        rep = assess(parse_energy("1eV"), rho, parse_energy("0.09eV"),
                     mass_ratio=1.0, sigma_m=sigma)
        assert rep.k_rho > 2.0 * math.pi / 10.0
        assert not rep.narrow_defect_ok

    def test_lines_cover_every_scale(self):
        rep = assess(parse_energy("1eV"), parse_length("1nm"),
                     parse_energy("1meV"), mass_ratio=0.01,
                     sigma_m=parse_length("50nm"))
        text = "\n".join(rep.lines())
        for key in ("k =", "de_broglie =", "k_rho =", "energy_over_v0 =",
                    "rho_over_sigma =", "k_sigma =", "sigma_z =",
                    "deep_defect", "narrow_defect", "thin_on_bump"):
            assert key in text
        assert "VIOLATED" not in text

    def test_nonpositive_inputs_raise(self):
        with pytest.raises(ValueError, match="positive"):
            assess(0.0, 1e-9, 1e-22, 0.01, 5e-8)
        with pytest.raises(ValueError, match="positive"):
            assess(1e-19, 1e-9, 1e-22, -0.01, 5e-8)

    def test_non_finite_inputs_raise(self):
        for bad in (math.nan, math.inf):
            for i in range(5):
                args = [1e-19, 1e-9, 1e-22, 0.01, 5e-8]
                args[i] = bad
                with pytest.raises(ValueError, match="finite"):
                    assess(*args)

    def test_overflowing_scales_raise(self):
        # finite inputs whose products overflow: sigma_z = inf
        with pytest.raises(ValueError, match="overflow.*sigma_z"):
            assess(1e300, 1e300, 1e-3 * EV, 0.01, 1e301)

    def test_underflowing_k_raises(self):
        # 2 m E underflows to 0, so k = 0 and the de Broglie wavelength 1/0
        with pytest.raises(ValueError, match="underflows"):
            assess(EV, 1e-9, 1e-320, 0.01, 5e-8)
