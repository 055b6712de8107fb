import numpy as np
import pytest

from nilspec import geometry
from nilspec.algebra import complete_basis, htype_group
from nilspec.harmonics import HomogeneousPolynomial, fourier_quadrature, harmonic_projection
from nilspec.quadrature import sphere_rule, zonal_projector
from nilspec.twisted import (
    SIGMA_DK,
    RouletteState,
    TwistedFunction,
    XKPolynomial,
    adapted_complex_basis,
    boundary_functions,
    delta_z_apply,
    dk_eigencheck,
    harmonic_nm_dimension,
    m_operator_apply,
    m_operator_eigencheck,
    m_perp_values,
    roulette_one_turn,
    spin_matrix,
    theta_eval,
    theta_projected,
    twisted_to_straight,
    zcrystal_reduce,
)

H3 = htype_group(3, 1)
HEIS = htype_group(1, 1)
Q0 = np.array([1.0, 0.0, 0.0, 0.0])


# -- theta functions -----------------------------------------------------------


def test_theta_at_pole():
    Ku = np.array([1.0, 0, 0])
    val = theta_eval(H3, Q0, Q0, Ku)
    assert val == pytest.approx(1.0)  # |Q|^2, imaginary part killed by skewness


def test_theta_at_rotated_pole():
    Ku = np.array([0.0, 1.0, 0.0])
    JQ = H3.J(Ku) @ Q0
    assert theta_eval(H3, Q0, JQ, Ku) == pytest.approx(1j)


def test_theta_heisenberg():
    assert theta_eval(HEIS, [1.0, 0.0], [0.0, 1.0], [1.0]) == pytest.approx(1j)


def test_theta_conjugate():
    rng = np.random.default_rng(0)
    X = rng.standard_normal(4)
    Ku = rng.standard_normal(3)
    Ku /= np.linalg.norm(Ku)
    v = theta_eval(H3, Q0, X, Ku)
    # the conjugate swaps the sign of the imaginary part
    Jq = H3.J(Ku) @ Q0
    assert np.conj(v) == pytest.approx((Q0 @ X) - 1j * (Jq @ X))


def test_theta_requires_unit_K():
    with pytest.raises(ValueError):
        theta_eval(H3, Q0, Q0, [2.0, 0, 0])


# -- angular momentum eigenchecks ------------------------------------------------


def test_dk_eigenvalue_p1q0():
    eig, resid = dk_eigencheck(H3, Q0, 2.0 * np.eye(3)[0], p=1, q=0)
    assert abs(eig) == pytest.approx(2.0)
    assert eig == SIGMA_DK * 1j * 2.0
    assert resid < 1e-8


def test_dk_eigenvalue_pq_equal():
    eig, resid = dk_eigencheck(H3, Q0, np.eye(3)[0], p=2, q=2)
    assert eig == 0
    assert resid < 1e-8


def test_dk_eigenvalue_p2q1():
    eig, resid = dk_eigencheck(H3, Q0, np.eye(3)[1], p=2, q=1)
    assert abs(eig) == pytest.approx(1.0)
    assert resid < 1e-8


def test_dk_conjugate_pairing():
    eig_pq, _ = dk_eigencheck(H3, Q0, np.eye(3)[0], p=1, q=0)
    eig_qp, _ = dk_eigencheck(H3, Q0, np.eye(3)[0], p=0, q=1)
    assert eig_pq == pytest.approx(np.conj(eig_qp) * (-1) ** 0 * -1 + 0 if False else -eig_qp)


# -- twisted transforms ------------------------------------------------------------


def test_lattice_mode_plain_kernel():
    tf = TwistedFunction(HEIS, ("lattice", np.array([0.37])))
    Z = np.array([0.4])
    assert tf(np.zeros(2), Z) == pytest.approx(np.exp(2j * np.pi * 0.37 * 0.4))


def test_sphere_mode_plane_wave_average():
    tf = TwistedFunction(H3, ("sphere", 2.0), sphere_order=20)
    Z = np.array([0.3, -0.5, 0.8])
    zz = np.linalg.norm(Z)
    assert tf(np.zeros(4), Z) == pytest.approx(np.sin(2.0 * zz) / (2.0 * zz), abs=1e-12)


def test_fullspace_matches_straight_fourier():
    tf = TwistedFunction(
        H3, ("full",), radial=lambda x, kk: np.exp(-(kk**2) / 2.0),
        sphere_order=20, radial_rule=(120, 10.0),
    )
    Z = np.array([0.3, -0.5, 0.8])
    got = tf(np.zeros(4), Z)
    expect = fourier_quadrature(3, lambda K: np.exp(-np.sum(K**2, axis=1) / 2.0), Z)
    assert abs(got - expect) < 1e-10


def test_m_operator_eigencheck():
    tf = TwistedFunction(
        H3, ("sphere", 3.0), Q=Q0, p=2, q=1,
        radial=lambda x, kk: np.exp(-x * x / 2.0), sphere_order=14,
    )
    X0 = np.array([0.4, 0.1, -0.3, 0.2])
    Z0 = np.array([0.2, -0.1, 0.3])
    eig, resid = m_operator_eigencheck(H3, tf, X0, Z0)
    assert abs(eig) == pytest.approx(3.0)  # (p - q) R in magnitude
    assert eig == SIGMA_DK * (tf.q - tf.p) * 3.0
    assert resid / abs(tf(X0, Z0)) < 1e-5


def test_m_operator_pq_equal_zero():
    tf = TwistedFunction(H3, ("sphere", 3.0), Q=Q0, p=1, q=1, sphere_order=14)
    X0 = np.array([0.4, 0.1, -0.3, 0.2])
    Z0 = np.array([0.2, -0.1, 0.3])
    eig, resid = m_operator_eigencheck(H3, tf, X0, Z0)
    assert eig == 0.0 and resid < 1e-6


def test_delta_z_eigenvalue():
    tf = TwistedFunction(
        H3, ("sphere", 3.0), Q=Q0, p=2, q=1,
        radial=lambda x, kk: np.exp(-x * x / 2.0), sphere_order=14,
    )
    X0 = np.array([0.4, 0.1, -0.3, 0.2])
    Z0 = np.array([0.2, -0.1, 0.3])
    val = tf(X0, Z0)
    got = delta_z_apply(tf, X0, Z0, 3)
    assert abs(got / val + 9.0) < 1e-5


def test_mf_commutation_identities():
    # M F_{Qpq}(phi) = F_{Qpq}(sigma (q - p) k phi); Delta_Z F = F(-k^2 phi)
    radial = lambda x, kk: np.exp(-x * x / 2.0)
    tf = TwistedFunction(H3, ("sphere", 2.0), Q=Q0, p=1, q=0, radial=radial, sphere_order=14)
    X0 = np.array([0.3, -0.2, 0.1, 0.4])
    Z0 = np.array([0.1, 0.2, -0.3])
    val = tf(X0, Z0)
    got_m = m_operator_apply(H3, tf, X0, Z0)
    expect_m = SIGMA_DK * (0 - 1) * 2.0 * val
    assert abs(got_m - expect_m) / abs(val) < 1e-5
    got_z = delta_z_apply(tf, X0, Z0, 3)
    assert abs(got_z - (-4.0) * val) / abs(val) < 1e-5


# -- X-harmonic projection of twists ----------------------------------------------


def test_theta_projected_reduces_to_raw_when_harmonic():
    # p q = 0 twists are already harmonic: projection is the identity
    nodes, _ = sphere_rule(3, 8)
    rng = np.random.default_rng(1)
    X = rng.standard_normal(4)
    raw = theta_eval(H3, Q0, X, nodes[0]) ** 2
    proj = theta_projected(H3, Q0, 2, 0, X, nodes[:1])[0]
    assert proj == pytest.approx(raw)


def test_theta_projected_harmonicity():
    # Laplacian in X of the projected twist vanishes (finite differences)
    node = np.array([[0.6, 0.0, 0.8]])
    h = 1e-3
    X = np.array([0.3, -0.1, 0.4, 0.2])

    def F(Xv):
        return theta_projected(H3, Q0, 1, 1, Xv, node)[0]

    lap = 0.0
    for i in range(4):
        e = np.zeros(4)
        e[i] = h
        lap += (F(X + e) - 2.0 * F(X) + F(X - e)) / h**2
    assert abs(lap) < 1e-6


def test_pi_x_pi_k_commute():
    # Pi_X through the polynomial engine and the closed form of
    # theta_projected are independent paths; they agree on the K-sphere
    # nodes, and so do their Pi_K projections
    F = XKPolynomial.theta_factor(H3, Q0).power(2) * XKPolynomial.theta_factor(H3, Q0, conj=True)
    nodes, weights = sphere_rule(3, 12)
    rng = np.random.default_rng(2)
    X = rng.standard_normal(4)
    engine = F.project_x().evaluate(X, nodes)
    closed = theta_projected(H3, Q0, 2, 1, X, nodes)
    assert np.abs(engine - closed).max() < 1e-12 * np.abs(closed).max()
    proj = zonal_projector(3, 1, nodes, weights)
    assert np.abs(proj @ closed).max() > 1e-3
    assert np.abs(proj @ engine - proj @ closed).max() < 1e-12 * np.abs(proj @ closed).max()


@pytest.mark.parametrize("d, degree", [(2, 4), (4, 5), (6, 3)])
def test_project_x_is_harmonic_projection_at_k_degree_zero(d, degree):
    # XKPolynomial and HomogeneousPolynomial share one projector: on an
    # X-polynomial of K-degree 0, project_x and harmonic_projection agree
    # coefficient by coefficient, bit for bit
    P = HomogeneousPolynomial.random(d, degree, np.random.default_rng(degree), complex_coeffs=True)
    F = XKPolynomial(d, 2, {(e, (0, 0)): c for e, c in P.coeffs.items()})
    got = {e[:d]: c for e, c in F.project_x().coeffs.items() if c != 0}
    assert got == harmonic_projection(P).coeffs
    assert all(e[d:] == (0, 0) for e in F.project_x().coeffs)


# -- Z-crystal reduction --------------------------------------------------------


def test_zcrystal_mu():
    mu, _ = zcrystal_reduce(H3, np.array([1.0 / np.pi, 0.0, 0.0]))
    assert mu == pytest.approx(1.0)


def test_zcrystal_reduced_eigenvalue():
    mu, apply_red = zcrystal_reduce(HEIS, np.array([1.0 / np.pi]))
    psi = lambda X: np.exp(-mu * (X @ X) / 2.0)
    X0 = np.array([0.3, -0.7])
    val = apply_red(psi, X0) / psi(X0)
    assert abs(val - (-6.0)) < 1e-6


def test_zcrystal_zero_limit():
    mu, apply_red = zcrystal_reduce(HEIS, np.array([0.0]))
    assert mu == 0.0
    psi = lambda X: np.exp(-(X @ X) / 2.0)
    X0 = np.array([0.2, 0.1])
    # reduces to Delta_X alone: value = (x^2 - k) psi
    val = apply_red(psi, X0) / psi(X0)
    assert abs(val - ((X0 @ X0) - 2.0)) < 1e-6


def test_zcrystal_consistent_with_group_laplacian():
    from nilspec.geometry import laplacian_apply

    Zg = np.array([0.2, -0.1, 0.3])
    mu, apply_red = zcrystal_reduce(H3, Zg)
    psi = lambda X: np.exp(-(X @ X) / 3.0) * (1.0 + (X[0] + 0.5 * X[2]) ** 2)

    def full(X, Z):
        return psi(X) * np.exp(2j * np.pi * (Zg @ Z))

    X0 = np.array([0.4, -0.2, 0.1, 0.3])
    Z0 = np.array([0.05, 0.1, -0.2])
    lhs = laplacian_apply(H3, full, X0, Z0)
    rhs = apply_red(psi, X0) * np.exp(2j * np.pi * (Zg @ Z0))
    assert abs(lhs - rhs) / abs(rhs) < 1e-5


# -- boundary-condition functions --------------------------------------------------


def test_boundary_dirichlet_s0():
    bf = boundary_functions(H3, s=0, i=1, bc="dirichlet", p=0, q=0, Q=Q0, R=1.0, sphere_order=16)
    X0 = np.array([0.2, 0.1, -0.1, 0.3])
    assert bf.boundary_residual(X0, "dirichlet", n_dir=8) < 1e-10
    # nontrivial away from the boundary
    assert abs(bf(X0, np.array([0.3, 0.2, 0.1]))) > 0.1


def test_boundary_trivial_stratum():
    # p = q = 0 carries only the s = 0 stratum; s = 1 projects to zero
    bf = boundary_functions(H3, s=1, i=1, bc="dirichlet", p=0, q=0, Q=Q0, R=1.0, sphere_order=16)
    X0 = np.array([0.2, 0.1, -0.1, 0.3])
    assert abs(bf(X0, np.array([0.3, 0.2, 0.1]))) < 1e-12


def test_boundary_dirichlet_s1_nontrivial():
    bf = boundary_functions(H3, s=1, i=1, bc="dirichlet", p=1, q=0, Q=Q0, R=1.0, sphere_order=16)
    X0 = np.array([0.2, 0.1, -0.1, 0.3])
    assert abs(bf(X0, np.array([0.1, 0.25, -0.2]))) > 1e-3
    assert bf.boundary_residual(X0, "dirichlet", n_dir=6) < 1e-10


def test_boundary_z_neumann():
    bf = boundary_functions(H3, s=0, i=2, bc="neumann", p=0, q=0, Q=Q0, R=1.0, sphere_order=16)
    X0 = np.array([0.2, 0.1, -0.1, 0.3])
    assert abs(bf(X0, np.array([0.3, 0.2, 0.1]))) > 0.1
    assert bf.boundary_residual(X0, "neumann", n_dir=6) < 1e-6


def test_boundary_residual_matches_pointwise_loop():
    X0 = np.array([0.2, 0.1, -0.1, 0.3])
    dirichlet = boundary_functions(H3, s=1, i=1, bc="dirichlet", p=1, q=0, Q=Q0, R=1.3, sphere_order=16)
    neumann = boundary_functions(H3, s=0, i=2, bc="neumann", p=0, q=0, Q=Q0, R=1.3, sphere_order=16)
    rng = np.random.default_rng(5)  # one direction per draw: the stream the method reads
    dirs = [d / np.linalg.norm(d) for d in (rng.standard_normal(3) for _ in range(4))]
    # the value of the Neumann function and the radial derivative of the
    # Dirichlet one on |Z| = R_b, neither of which vanishes
    value = max(abs(neumann(X0, 1.3 * d)) for d in dirs)
    slope = max(abs(geometry._central_difference(lambda s: dirichlet(X0, (1.3 + s) * d), 1)) for d in dirs)
    assert value > 0.1 and slope > 0.1
    assert abs(neumann.boundary_residual(X0, "dirichlet", n_dir=4, seed=5) - value) < 1e-12 * value
    assert abs(dirichlet.boundary_residual(X0, "neumann", n_dir=4, seed=5) - slope) < 1e-8 * slope


@pytest.mark.parametrize("mode", [("full",), ("lattice", np.array([0.5, 0.0, 0.0]))])
def test_boundary_residual_needs_sphere_mode(mode):
    tf = TwistedFunction(H3, mode, Q=Q0, p=1, q=0)
    with pytest.raises(ValueError, match="sphere mode"):
        tf.boundary_residual(np.zeros(4), "neumann")


# -- straight / twisted conversion ---------------------------------------------------


def _adapted_B():
    return complete_basis(np.array([[1.0, 0, 0, 0], [0, 0, 1.0, 0]]))[:2]


def _z_coords(B, X, Ku):
    """z_j = <B_j + i J_{K_u} B_j, X>, computed directly."""
    J = H3.J(Ku)
    return np.array([B[j] @ X + 1j * ((J @ B[j]) @ X) for j in range(len(B))])


def test_conversion_roundtrip_off_singular_set():
    # the straight polynomial of z_0^2 conj(z_0) conj(z_1) takes the same
    # values as the product of the complex coordinates themselves
    B = _adapted_B()
    rng = np.random.default_rng(3)
    Ku = rng.standard_normal(3)
    Ku /= np.linalg.norm(Ku)
    straight = twisted_to_straight(H3, B, [(0, 2, 1), (1, 0, 1)], Ku)
    assert straight.degree == 4
    assert all(sum(e) == 4 for e in straight.coeffs)
    for X in rng.standard_normal((5, 4)):
        z = _z_coords(B, X, Ku)
        direct = z[0] ** 2 * np.conj(z[0]) * np.conj(z[1])
        assert abs(straight(X)[0] - direct) < 1e-12


def test_conversion_exact_linear_case():
    # z_0 and conj(z_0) are the linear forms B_0 +- i J B_0, coefficient by
    # coefficient
    B = _adapted_B()
    Ku = np.array([1.0, 0.0, 0.0])
    a = B[0] + 1j * (H3.J(Ku) @ B[0])
    for pq, form in (((0, 1, 0), a), ((0, 0, 1), np.conj(a))):
        straight = twisted_to_straight(H3, B, [pq], Ku).coeffs
        expect = {tuple(np.eye(4, dtype=int)[i]): form[i] for i in range(4) if form[i] != 0}
        assert straight.keys() == expect.keys()
        assert all(straight[e] == expect[e] for e in expect)


def test_injectivity_gram_rank():
    # distinct exponent sets give linearly independent twist polynomials
    B = _adapted_B()
    rng = np.random.default_rng(4)
    Ku = np.array([0.6, 0.0, 0.8])
    exps = [((0, 0), (0, 0)), ((1, 0), (0, 0)), ((0, 0), (1, 0)), ((1, 0), (0, 1)), ((0, 1), (1, 0))]
    pts = rng.standard_normal((40, 4))
    M = np.array([
        twisted_to_straight(H3, B, [(j, pe[j], qe[j]) for j in range(2)], Ku)(pts)
        for pe, qe in exps
    ])
    s = np.linalg.svd(M, compute_uv=False)
    assert s[-1] > 1e-8 * s[0]


# -- rank oracle -----------------------------------------------------------------


def test_harmonic_nm_dimension():
    from math import comb

    def bidegree(kappa, p, q):
        base = comb(p + kappa - 1, kappa - 1) * comb(q + kappa - 1, kappa - 1)
        if min(p, q) == 0:
            return base
        return base - comb(p + kappa - 2, kappa - 1) * comb(q + kappa - 2, kappa - 1)

    for (n, m) in [(0, 0), (1, 1), (2, 0), (2, 2), (3, 1)]:
        p, q = (n + m) // 2, (n - m) // 2
        assert harmonic_nm_dimension(H3, n, m) == bidegree(2, p, q)
    assert harmonic_nm_dimension(H3, 2, 1) == 0  # parity violation
    for alg in (htype_group(3, 2, 0), htype_group(3, 1, 1)):
        for (n, m) in [(0, 0), (1, 1), (1, -1), (2, 0), (2, 2)]:
            p, q = (n + m) // 2, (n - m) // 2
            assert harmonic_nm_dimension(alg, n, m) == bidegree(4, p, q)


def test_adapted_complex_basis():
    # (B, J B) is an orthonormal basis on H_3, H^(2,0)_3 and H^(1,1)_3
    for alg in (H3, htype_group(3, 2, 0), htype_group(3, 1, 1)):
        for Z_u in ([0.0, 1.0, 0.0], [0.6, -0.3, 1.1]):
            B = adapted_complex_basis(alg, np.array(Z_u))
            J = alg.J(np.array(Z_u) / np.linalg.norm(Z_u))
            frame = np.vstack([B, B @ J.T])
            assert np.abs(frame @ frame.T - np.eye(alg.k)).max() < 1e-12


def test_explicit_multiplicity_matches_rank_oracle():
    # the multiplicity of a full-space eigenvalue on the (n, m) stratum is
    # the dimension of the harmonic twist space H^(n, m)
    from nilspec.glz import explicit_eigenvalue

    mu = 1.0
    for (n, m) in [(1, 1), (2, 0), (2, 2)]:
        dim = harmonic_nm_dimension(H3, n, m)
        assert dim >= 1
        # strata with equal p share eigenvalues; their aggregated multiplicity
        # is the sum of the stratum dimensions
        p = (n + m) // 2
        assert explicit_eigenvalue(mu, 0, p, H3.k) == explicit_eigenvalue(mu, 0, (n + m) // 2, H3.k)


# -- roulette ------------------------------------------------------------------------


def test_roulette_one_turn_toy():
    f0 = lambda x, kk: np.exp(-kk)
    f1 = lambda x, kk: kk**2
    st = RouletteState(["a", "b"], {"a": f0, "b": f1})
    S = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = roulette_one_turn(st, p=2, q=1, S=S)
    x, kk = 0.5, 1.3
    assert out.depth == 2
    assert abs(out["a"](x, kk) - (-1j) * (kk * f0(x, kk) + 2.0 * kk)) < 1e-9
    assert abs(out["b"](x, kk) - (-1j) * (kk * f1(x, kk) - np.exp(-kk))) < 1e-9


def test_roulette_pq_equal_zero():
    st = RouletteState(["a"], {"a": lambda x, kk: np.cos(kk)})
    out = roulette_one_turn(st, p=1, q=1, S=np.zeros((1, 1)))
    assert out["a"](0.1, 0.7) == 0.0


def test_roulette_constant_profile():
    # constant f with vanishing S-coupling leaves only the k f term
    st = RouletteState(["a"], {"a": lambda x, kk: 2.0})
    out = roulette_one_turn(st, p=1, q=0, S=np.zeros((1, 1)))
    kk = 0.9
    assert abs(out["a"](0.0, kk) - (-1j) * kk * 2.0) < 1e-12


def test_roulette_validation():
    with pytest.raises(ValueError):
        RouletteState(["a"], {"b": lambda x, kk: 1.0})
    st = RouletteState(["a"], {"a": lambda x, kk: 1.0})
    with pytest.raises(ValueError):
        roulette_one_turn(st, 1, 0, S=np.zeros((2, 2)))


# -- spin matrix ------------------------------------------------------------------------


def test_spin_matrix_top_stratum_coupling():
    lq = XKPolynomial.x_linear(4, 3, Q0)
    jk = XKPolynomial.jk_form(H3, Q0)
    R22 = jk * jk  # a = 2 stratum of the n = 2 twists
    coef, resid = spin_matrix(H3, [R22], s_from=2, s_to_list=[0, 1, 2, 3])
    assert resid < 1e-8
    # coupling lands on a single neighbouring stratum
    mags = np.abs(coef)
    assert mags[1] > 0.01
    assert mags[0] < 1e-8 and mags[2] < 1e-8 and mags[3] < 1e-8


def test_spin_matrix_mixed_stratum():
    lq = XKPolynomial.x_linear(4, 3, Q0)
    jk = XKPolynomial.jk_form(H3, Q0)
    R21 = lq * jk
    coef, resid = spin_matrix(H3, [R21], s_from=1, s_to_list=[0, 1, 2, 3])
    assert resid < 1e-8


def test_heisenberg_pq_twist_is_x_radial():
    # on the Heisenberg group the p = q = 1 twist z zbar equals |X|^2 for
    # either unit K, so it is K-independent
    for ku in (np.array([1.0]), np.array([-1.0])):
        X = np.array([0.7, -0.4])
        v = theta_eval(HEIS, [1.0, 0.0], X, ku)
        assert (v * np.conj(v)).real == pytest.approx(X @ X)


def test_spin_matrix_trivial_when_m_perp_vanishes():
    # an X-radial input (the Heisenberg-type p = q twist) is killed by both
    # D_K and M_perp, so the commutator output vanishes
    terms = None
    for i in range(4):
        xe = [0] * 4
        xe[i] = 2
        t = XKPolynomial(4, 3, {(tuple(xe), (0, 0, 0)): 1.0})
        terms = t if terms is None else terms + t
    nodes, weights = sphere_rule(3, 10)
    rng = np.random.default_rng(5)
    X = rng.standard_normal(4)
    mp = m_perp_values(H3, terms, X, nodes)
    assert np.abs(mp).max() < 1e-10
    DF = terms.D_K(H3)
    assert np.abs(DF.evaluate(X, nodes)).max() < 1e-10


def test_projected_strata_independent():
    # distinct (v, a) strata at fixed sphere order s span independent spaces
    lq = XKPolynomial.x_linear(4, 3, Q0)
    jk = XKPolynomial.jk_form(H3, Q0)
    phi1 = XKPolynomial.k_linear(4, 3, np.array([0.0, 0.0, 1.0]))
    # s = 1 components of (v, a) = (1, 0), (0, 1) and (1, 2)
    funcs = [phi1 * (lq * lq), lq * jk, phi1 * (jk * jk)]
    nodes, weights = sphere_rule(3, 12)
    proj = zonal_projector(3, 1, nodes, weights)
    rng = np.random.default_rng(6)
    rows = []
    for F in funcs:
        vals = []
        for X in rng.standard_normal((6, 4)):
            vals.append(proj @ F.evaluate(X, nodes))
        rows.append(np.concatenate(vals))
    M = np.array(rows)
    s = np.linalg.svd(M, compute_uv=False)
    assert s[-1] > 1e-8 * s[0]  # full rank: the three strata are independent


def test_spin_matrix_toy_residual():
    # l = 3, n = 2 with an angular factor: machine-precision decomposition
    lq = XKPolynomial.x_linear(4, 3, Q0)
    jk = XKPolynomial.jk_form(H3, Q0)
    phi1 = XKPolynomial.k_linear(4, 3, np.array([0.0, 0.0, 1.0]))
    F = phi1 * (lq * jk)
    coef, resid = spin_matrix(H3, [F], s_from=2, s_to_list=[0, 1, 2, 3])
    assert resid < 1e-8
