import numpy as np
import pytest

from nilspec.algebra import htype_group
from nilspec.geometry import SolvableExtension, hubble_scaling
from nilspec.waves import (
    PhysicalConstants,
    ShrinkingWave,
    apply_operator,
    expanding_packet_residual,
    meson_phase_residual,
    nonrelativistic_link,
    operator_atoms,
    relativistic_dispersion,
    relativistic_residual,
    second_time_derivative_profile,
    solvable_split_residual,
    static_split_residual,
    zcrystal_wave_residual,
)

CC = PhysicalConstants()
HEIS = htype_group(1, 1)
H3 = htype_group(3, 1)


def test_relativistic_plane_wave():
    assert relativistic_residual([1.0, 0.0, 0.0], CC) < 1e-12
    assert relativistic_dispersion([1.0, 0.0, 0.0], CC) == pytest.approx(np.sqrt(2.0))


def test_massless_light_cone():
    c0 = PhysicalConstants(m=0.0)
    assert relativistic_dispersion([2.0, 1.0, 0.0], c0) == pytest.approx(np.sqrt(5.0))
    assert relativistic_residual([2.0, 1.0, 0.0], c0) == 0.0


def test_relativistic_randomized():
    rng = np.random.default_rng(0)
    for _ in range(10):
        K = rng.standard_normal(3)
        cc = PhysicalConstants(m=float(rng.uniform(0.1, 3.0)), c=float(rng.uniform(0.5, 2.0)))
        assert relativistic_residual(K, cc) < 1e-12


def test_nonrelativistic_link():
    identity, defect = nonrelativistic_link([1.0, 0.0, 0.0], CC)
    assert identity < 1e-12
    # the first-order Taylor defect is omega~^2/c^2, order hbar^3
    omega_t = np.sqrt(2.0) - 1.0
    assert defect == pytest.approx(omega_t**2)


def test_nonrelativistic_link_static_phase():
    identity, defect = nonrelativistic_link([0.0, 0.0, 0.0], CC)
    assert identity == 0.0 and defect == 0.0


def test_static_split_exact():
    assert static_split_residual(CC) == 0.0
    assert static_split_residual(PhysicalConstants(m=2.5, c=0.7)) == 0.0


def test_solvable_split_exact():
    assert solvable_split_residual(CC, 4, 3) == 0.0
    assert solvable_split_residual(PhysicalConstants(m=0.3), 8, 3) == 0.0


def test_second_order_time_only_in_neutrino():
    prof = second_time_derivative_profile(CC, 4, 3)
    with_d2T = {k for k, v in prof.items() if v != 0}
    assert with_d2T == {"full_static", "neutrino", "full_solvable", "meson", "shrinking_neutrino"}


def test_plane_wave_in_z_t_only_at_origin():
    # S on a (Z, t) plane wave at X = 0 reduces to its time term
    cc = CC
    op = operator_atoms("schrodinger", cc)
    K = np.array([0.7])
    omega = 0.3

    def f(X, Z, T):
        return np.exp(1j * (K @ Z - omega * T))

    X0, Z0, T0 = np.zeros(2), np.array([0.2]), 0.1
    got = apply_operator(op, f, HEIS, X0, Z0, T0)
    expect = -(2j * cc.m / cc.hbar) * (-1j * omega) * f(X0, Z0, T0)
    assert abs(got - expect) < 1e-6


@pytest.mark.parametrize("kind", ["schrodinger", "total_schrodinger"])
def test_zcrystal_anti_wave_annihilated(kind):
    res = zcrystal_wave_residual(HEIS, np.array([2.0]), 0, 0, 0, CC, kind)
    assert res < 1e-6


def test_zcrystal_anti_wave_higher_strata():
    res = zcrystal_wave_residual(HEIS, np.array([2.0]), 0, 1, 1, CC, "schrodinger")
    assert res < 1e-6
    res = zcrystal_wave_residual(H3, np.array([1.3, 0.5, -0.2]), 1, 0, 0, CC, "total_schrodinger")
    assert res < 1e-6


@pytest.mark.parametrize("p, q, r", [(2, 1, 1), (1, 2, 0), (1, 1, 0)])
def test_zcrystal_empty_stratum_is_refused(p, q, r):
    # on k = 2 the twist Pi_X(Theta^p conj(Theta)^q) is 0 once p, q >= 1, so
    # the residual would divide finite-difference noise by its floor
    with pytest.raises(ValueError, match=f"\\(p, q\\) = \\({p}, {q}\\) stratum is empty"):
        zcrystal_wave_residual(HEIS, np.array([2.0]), p, q, r, CC, "schrodinger")


def test_meson_massless_harmonic():
    c0 = PhysicalConstants(m=0.0)
    K = np.array([0.7, -0.2, 0.4])
    assert meson_phase_residual(K, c0) == 0.0
    ext = SolvableExtension(H3, 1.0)
    wave = ShrinkingWave(K, relativistic_dispersion(K, c0))
    res = expanding_packet_residual(ext, "meson", wave, c0)
    assert max(r for _, r in res) < 1e-10


def test_meson_massive_scale():
    cm = PhysicalConstants(m=0.5)
    K = np.array([0.7, -0.2, 0.4])
    # residual coefficient is e^{2T}(omega^2 - k^2) = e^{2T} m^2 c^4 / hbar^2
    assert meson_phase_residual(K, cm, T=0.0) == pytest.approx(0.25)
    assert meson_phase_residual(K, cm, T=1.0) == pytest.approx(0.25 * np.exp(2.0))


def test_static_packet_zero():
    c0 = PhysicalConstants(m=0.0)
    ext = SolvableExtension(H3, 1.0)
    wave = ShrinkingWave(np.zeros(3), 0.0)
    res = expanding_packet_residual(ext, "meson", wave, c0)
    assert max(r for _, r in res) == 0.0


def test_shrinking_neutrino_hat_wave():
    cm = PhysicalConstants(m=0.5)
    ext = SolvableExtension(H3, 1.0)
    K = np.array([0.4, 0.3, 0.1])
    omega_hat = relativistic_dispersion(K, cm) - cm.m * cm.c**2 / cm.hbar
    hat = ShrinkingWave(K, omega_hat)
    res = expanding_packet_residual(ext, "shrinking_neutrino", hat, cm)
    assert max(r for _, r in res) < 1e-12


def test_solvable_apply_exponential():
    # the q = 1 operators on the solvable extension of H^(1,0)_3 (k = 4, l = 3)
    a = 0.8
    f = lambda X, Z, T: np.exp(a * T)
    got = apply_operator(operator_atoms("full_solvable", CC, k=4, l=3), f, H3, np.zeros(4), np.zeros(3), 0.3)
    expect = (-(a**2) + (2.0 + 3.0) * a) * np.exp(a * 0.3)
    assert abs(got - expect) < 1e-6


def test_tractor_kills_time_independent():
    tractor = operator_atoms("tractor", CC, k=4, l=3)
    got = apply_operator(tractor, lambda X, Z, T: 1.0 + 0.0j, H3, np.zeros(4), np.zeros(3), 0.0)
    assert got == 0.0


def test_full_solvable_equals_sum_of_parts_on_wave():
    cc = PhysicalConstants(m=0.4)
    K = np.array([0.3, -0.2, 0.5])
    wave = ShrinkingWave(K, 1.1)
    point = (np.zeros(4), np.array([0.1, 0.2, -0.1]), 0.2)

    def apply(kind):
        return apply_operator(operator_atoms(kind, cc, k=4, l=3), wave, H3, *point)

    total = apply("full_solvable")
    parts = sum(apply(kind) for kind in ("shrinking_neutrino", "expanding_schrodinger", "tractor"))
    assert abs(total - parts) < 1e-10


def test_hubble_scaling_values():
    ext = SolvableExtension(H3, 1.0)
    assert hubble_scaling(ext, "X", 1.0, np.log(4.0)) == pytest.approx(2.0, abs=1e-12)
    assert hubble_scaling(ext, "Z", 1.0, np.log(4.0)) == pytest.approx(4.0, abs=1e-12)


def test_constants_validation():
    with pytest.raises(ValueError):
        PhysicalConstants(hbar=0.0)
    PhysicalConstants(m=0.0)  # massless allowed
