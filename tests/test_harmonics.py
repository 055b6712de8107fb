import numpy as np
import pytest

from nilspec.harmonics import (
    HankelSpec,
    HomogeneousPolynomial,
    fourier_quadrature,
    hankel_transform,
    hankel_transform_slice,
    harmonic_decomposition,
    harmonic_projection,
    projection_coefficients,
    spherical_mean,
)
from nilspec.quadrature import (
    harmonic_space_dimension,
    sphere_area,
    sphere_rule,
    zonal_eigenfunction,
    zonal_projector,
    zonal_projector_factor,
)


def gaussian(k):
    return np.exp(-np.asarray(k) ** 2 / 2.0)


# -- sphere quadrature / projectors ------------------------------------------


@pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
def test_sphere_rule_area(l):
    nodes, weights = sphere_rule(l, 16)
    assert abs(weights.sum() - sphere_area(l)) < 1e-12
    assert np.abs(np.linalg.norm(nodes, axis=1) - 1.0).max() < 1e-13


def test_sphere_rule_moments():
    for l in (2, 3, 4):
        nodes, weights = sphere_rule(l, 16)
        # odd moments vanish, x1^2 integrates to area / l
        assert abs(weights @ nodes[:, 0]) < 1e-12
        assert abs(weights @ nodes[:, 0] ** 2 - sphere_area(l) / l) < 1e-12


def test_zonal_eigenfunction_values():
    rho = np.linspace(0, np.pi, 9)
    assert np.allclose(zonal_eigenfunction(3, 1, rho), np.cos(rho))
    assert np.allclose(zonal_eigenfunction(2, 2, rho), np.cos(2 * rho))
    assert zonal_eigenfunction(5, 3, 0.0) == pytest.approx(1.0)


@pytest.mark.parametrize("l", [2, 3, 4, 5])
def test_zonal_projector_kernel_from_cosines(l):
    # the pole e_1, then one node per cosine c against it, unit weights:
    # row 0 of the projector is dim/area * phi_s(arccos c) past column 0
    c = np.linspace(-1.0, 1.0, 41)
    nodes = np.zeros((len(c) + 1, l))
    nodes[0, 0] = 1.0
    nodes[1:, 0], nodes[1:, 1] = c, np.sqrt(1.0 - c**2)
    for s in range(7):
        row = zonal_projector(l, s, nodes, np.ones(len(nodes)))[0, 1:]
        kern = row * sphere_area(l) / harmonic_space_dimension(l, s)
        assert np.abs(kern - zonal_eigenfunction(l, s, np.arccos(c))).max() < 1e-13


@pytest.mark.parametrize("l", [2, 3, 4])
def test_zonal_projector_factor_matches_dense(l):
    nodes, weights = sphere_rule(l, 6)
    for s in range(5):
        A, Bt = zonal_projector_factor(l, s, 6)
        dim = harmonic_space_dimension(l, s)
        assert A.shape == (len(nodes), dim) and Bt.shape == (dim, len(nodes))
        dense = zonal_projector(l, s, nodes, weights)
        assert np.abs(A @ Bt - dense).max() < 1e-13
        # negative control: the neighbouring degrees are other projectors
        for other in (s - 1, s + 1):
            if other >= 0:
                A2, Bt2 = zonal_projector_factor(l, other, 6)
                assert np.abs(A2 @ Bt2 - dense).max() > 1e-3


def test_zonal_projector_factor_cached_and_read_only():
    A, Bt = zonal_projector_factor(3, 2, 8)
    again = zonal_projector_factor(3, 2, 8)
    assert again[0] is A and again[1] is Bt
    with pytest.raises(ValueError):
        A[0, 0] = 1.0
    with pytest.raises(ValueError):
        Bt[0, 0] = 1.0


@pytest.mark.parametrize("l, s, order", [(2, 4, 2), (3, 2, 1), (3, 4, 2), (4, 3, 3)])
def test_zonal_projector_factor_rejects_inexact_rule(l, s, order):
    # the rule integrates degree < 2 order, so degree-s products need s < order
    with pytest.raises(RuntimeError, match="not a rank"):
        zonal_projector_factor(l, s, order)


def test_harmonic_space_dimensions():
    assert [harmonic_space_dimension(3, s) for s in range(4)] == [1, 3, 5, 7]
    assert [harmonic_space_dimension(2, s) for s in range(4)] == [1, 2, 2, 2]
    assert harmonic_space_dimension(4, 2) == 9


def test_spherical_projector_reproduces_harmonics():
    nodes, weights = sphere_rule(3, 8)
    f1 = nodes[:, 2]
    f2 = nodes[:, 0] * nodes[:, 1]
    assert np.abs(zonal_projector(3, 1, nodes, weights) @ f1 - f1).max() < 1e-12
    assert np.abs(zonal_projector(3, 2, nodes, weights) @ f2 - f2).max() < 1e-12
    assert np.abs(zonal_projector(3, 2, nodes, weights) @ f1).max() < 1e-12
    # x1^2 on the sphere splits into 1/3 + (x1^2 - 1/3)
    f3 = nodes[:, 0] ** 2
    assert np.abs(zonal_projector(3, 0, nodes, weights) @ f3 - 1.0 / 3.0).max() < 1e-12


# -- harmonic projection -------------------------------------------------------


def test_projection_example_d3():
    W = np.array([1.0, 2.0, -1.0])
    P = HomogeneousPolynomial.linear_form(W).power(2)
    H = harmonic_projection(P)
    expected = P - ((W @ W) / 3.0) * HomogeneousPolynomial.radius_squared(3)
    assert (H - expected).max_coeff() < 1e-14
    assert H.laplacian().max_coeff() < 1e-14


def test_projection_identity_on_harmonics():
    # harmonic input is returned unchanged; |K|^2 projects to zero
    d = 4
    H = HomogeneousPolynomial(d, 2, {(1, 1, 0, 0): 1.0})
    assert (harmonic_projection(H) - H).max_coeff() == 0.0
    r2 = HomogeneousPolynomial.radius_squared(d)
    assert harmonic_projection(r2).max_coeff() < 1e-15


def test_projection_idempotent_random():
    rng = np.random.default_rng(0)
    for d in (2, 3, 5):
        for n in (2, 4, 5):
            P = HomogeneousPolynomial.random(d, n, rng, complex_coeffs=True)
            H = harmonic_projection(P)
            assert H.laplacian().max_coeff() < 1e-10 * max(1.0, P.max_coeff())
            assert (harmonic_projection(H) - H).max_coeff() < 1e-12 * max(1.0, H.max_coeff())


def test_projection_coefficient_closed_form():
    # the harmonicity-forced s=1 coefficient is -1/(2(2n + d - 4)); it
    # depends on the dimension d
    n = 2
    for d in (2, 3, 4, 5, 6):
        assert projection_coefficients(d, n)[1] == pytest.approx(-1.0 / (2.0 * (2 * n + d - 4)))


def test_decomposition_examples():
    r2 = HomogeneousPolynomial.radius_squared(3)
    parts = harmonic_decomposition(r2)
    assert len(parts) == 1
    i, H = parts[0]
    assert i == 1 and H.degree == 0
    assert abs(H.coeffs[(0, 0, 0)] - 1.0) < 1e-14  # |K|^2 = |K|^2 * 1

    W = np.array([0.5, -1.0, 2.0])
    P = HomogeneousPolynomial.linear_form(W).power(2)
    parts = dict(harmonic_decomposition(P))
    assert set(parts) == {0, 1}
    assert abs(parts[1].coeffs[(0, 0, 0)] - (W @ W) / 3.0) < 1e-14


def test_decomposition_roundtrip_random():
    rng = np.random.default_rng(1)
    for d in (3, 4):
        for n in (4, 5):
            P = HomogeneousPolynomial.random(d, n, rng, complex_coeffs=True)
            r2 = HomogeneousPolynomial.radius_squared(d)
            rec = None
            for i, H in harmonic_decomposition(P):
                assert H.laplacian().max_coeff() < 1e-10
                term = H
                for _ in range(i):
                    term = r2 * term
                rec = term if rec is None else rec + term
            assert (rec - P).max_coeff() < 1e-12 * max(1.0, P.max_coeff())


# -- Hankel transform -----------------------------------------------------------


def test_hankel_gaussian_l2():
    spec = HankelSpec(2, 0)
    for r in (0.0, 0.5, 1.5):
        got = hankel_transform(spec, r, radial=gaussian)
        assert got == pytest.approx(2.0 * np.pi * np.exp(-(r**2) / 2.0), rel=1e-10)


def test_hankel_gaussian_l3():
    spec = HankelSpec(3, 0)
    for r in (0.7, 2.0):
        got = hankel_transform(spec, r, radial=gaussian)
        assert got == pytest.approx((2.0 * np.pi) ** 1.5 * np.exp(-(r**2) / 2.0), rel=1e-10)


def test_hankel_zero_profile():
    assert hankel_transform(HankelSpec(4, 1), 1.0, radial=lambda k: 0.0 * k) == 0.0


def _sphere_harmonic(l, nu):
    if nu == 0:
        return lambda pts: np.ones(len(pts)) + 0j
    if l == 2:
        return lambda pts: (pts[:, 0] + 1j * pts[:, 1]) ** nu
    if nu == 1:
        return lambda pts: pts[:, 2] + 0j
    return lambda pts: (pts[:, 0] + 1j * pts[:, 1]) ** 2


@pytest.mark.parametrize("l,nu", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2)])
def test_hankel_vs_direct_fourier(l, nu):
    F = _sphere_harmonic(l, nu)
    Z = np.array([1.3, 0.4]) if l == 2 else np.array([0.9, 0.3, 0.7])
    r = np.linalg.norm(Z)
    theta = Z / r

    def func(pts):
        kk = np.linalg.norm(pts, axis=1)
        return gaussian(kk) * F(pts / kk[:, None])

    direct = fourier_quadrature(l, func, Z)
    hank = hankel_transform(HankelSpec(l, nu), r, radial=gaussian) * F(theta[None, :])[0]
    assert abs(direct - hank) / abs(hank) < 1e-4


@pytest.mark.parametrize("l,nu", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
def test_hankel_slice_formula_agrees(l, nu):
    r = 1.3
    bessel = hankel_transform(HankelSpec(l, nu), r, radial=gaussian)
    sliced = hankel_transform_slice(HankelSpec(l, nu), r, radial=gaussian)
    assert abs(sliced - bessel) / max(abs(bessel), 1e-12) < 1e-3


# -- spherical mean --------------------------------------------------------------


def test_spherical_mean_constant():
    F = lambda pts: np.ones(len(pts))
    for rho in (0.3, 1.2, 2.9):
        assert spherical_mean(3, F, [0.0, 0.0, 1.0], rho) == pytest.approx(1.0)


def test_spherical_mean_degenerate_circle():
    F = lambda pts: pts[:, 0] + 2.0
    theta = np.array([1.0, 0.0, 0.0])
    assert spherical_mean(3, F, theta, 0.0) == pytest.approx(3.0)


def test_spherical_mean_value_identity():
    # nu = 1 zonal harmonic: mean over the rho-circle is cos(rho) F(theta)
    F = lambda pts: pts[:, 2]
    theta = np.array([0.0, 0.0, 1.0])
    assert abs(spherical_mean(3, F, theta, np.pi / 2)) < 1e-12
    for rho in (0.4, 1.1, 2.2):
        got = spherical_mean(3, F, theta, rho)
        assert got == pytest.approx(np.cos(rho), abs=1e-8)


def test_spherical_mean_higher_order():
    # degree-2 harmonic on S^2 against the zonal eigenfunction
    F = lambda pts: pts[:, 0] ** 2 - pts[:, 1] ** 2
    theta = np.array([1.0, 0.0, 0.0])
    for rho in (0.5, 1.3):
        got = spherical_mean(3, F, theta, rho)
        expect = F(theta[None, :])[0] * zonal_eigenfunction(3, 2, rho)
        assert abs(got - expect) < 1e-8


def test_spherical_mean_l2():
    F = lambda pts: pts[:, 0]
    theta = np.array([1.0, 0.0])
    for rho in (0.7, 2.0):
        assert spherical_mean(2, F, theta, rho) == pytest.approx(np.cos(rho), abs=1e-12)
