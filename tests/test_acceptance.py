"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (run with -s to see them inline);
tolerances are pinned here and not configurable.
"""

import time
from fractions import Fraction

import numpy as np


from nilspec.algebra import htype_group
from nilspec.clifford import build_generators, endomorphism_space, irreducible_dimension
from nilspec.geometry import SolvableExtension, ricci, riemann
from nilspec.glz import (
    RadialGLZOperator,
    compact_spectrum,
    explicit_eigenvalue,
    fullspace_spectrum,
    laguerre_eigenfunction,
    laguerre_operator_apply,
    laguerre_orthogonality_residual,
    zball_eigenvalues,
)
from nilspec.harmonics import (
    HankelSpec,
    HomogeneousPolynomial,
    fourier_quadrature,
    hankel_transform,
    hankel_transform_slice,
    harmonic_decomposition,
    harmonic_projection,
)
from nilspec.isospectral import IntertwineSpec, intertwine, reduced_operator_for_pole, spectra_compare
from nilspec.twisted import SIGMA_DK, TwistedFunction, boundary_functions, delta_z_apply, dk_eigencheck, m_operator_eigencheck
from nilspec.waves import (
    PhysicalConstants,
    ShrinkingWave,
    expanding_packet_residual,
    relativistic_dispersion,
    relativistic_residual,
    static_split_residual,
    zcrystal_wave_residual,
)
from nilspec.geometry import hubble_scaling


def report(num, label, ok, detail=""):
    flag = "PASS" if ok else "FAIL"
    print(f"{flag} criterion {num}: {label} {detail}")
    assert ok, f"criterion {num} failed: {label} {detail}"


def test_criterion_1_clifford_table():
    t0 = time.monotonic()
    table = {1: 2, 2: 4, 3: 4, 4: 8, 5: 8, 6: 8, 7: 8, 8: 16, 9: 32, 10: 64, 11: 64,
             12: 128, 13: 128, 14: 128, 15: 128, 16: 256}
    ok = all(irreducible_dimension(l) == expect for l, expect in table.items())
    for l in range(1, 10):
        ok = ok and build_generators(l).anticommutation_residual() == 0
    elapsed = time.monotonic() - t0
    report(1, "Clifford table and exact anticommutation", ok and elapsed < 1.0,
           f"(elapsed {elapsed:.2f}s)")


def test_criterion_2_h_type_condition():
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    worst = 0.0
    n_groups = 0
    for l in range(1, 12):
        n = irreducible_dimension(l)
        max_blocks = 64 // n
        for total in range(1, max_blocks + 1):
            for a in range(total + 1):
                b = total - a
                if a + b < 1:
                    continue
                stack = np.stack(endomorphism_space(l, a, b).basis_matrices())
                k = stack.shape[1]
                Z = rng.standard_normal((100, l))
                JZ = np.tensordot(Z, stack, axes=(1, 0))
                sq = JZ @ JZ
                z2 = np.sum(Z**2, axis=1)
                sq += z2[:, None, None] * np.eye(k)[None]
                worst = max(worst, np.abs(sq).max())
                n_groups += 1
    elapsed = time.monotonic() - t0
    report(2, "H-type condition over the block family", worst < 1e-12 and elapsed < 5.0,
           f"({n_groups} groups, worst {worst:.2e}, elapsed {elapsed:.1f}s)")


def test_criterion_3_explicit_glz_spectrum():
    t0 = time.monotonic()
    worst = 0.0
    for mu in (0.5, 1.0, 2.0):
        for k in (2, 4):
            for p in (0, 1, 2):
                rec = fullspace_spectrum(RadialGLZOperator(k, p, p, mu), T=60.0, N=400, count=5)
                for r, got in enumerate(rec.values()):
                    expect = explicit_eigenvalue(mu, r, p, k)
                    worst = max(worst, abs(got - expect) / abs(expect))
    elapsed = time.monotonic() - t0
    report(3, "collocation matches the explicit spectrum", worst < 1e-6 and elapsed < 30.0,
           f"(worst rel {worst:.2e}, elapsed {elapsed:.1f}s)")


def test_criterion_4_laguerre_identity():
    ok = True
    for r in range(7):
        for (n, k) in [(0, 2), (1, 4), (2, 6), (3, 2)]:
            u = laguerre_eigenfunction(r, n, k)
            alpha = Fraction(k, 2) + n - 1
            img = laguerre_operator_apply(u, alpha)
            ok = ok and all(img[i] + r * u[i] == 0 for i in range(len(u)))
    worst = max(
        abs(laguerre_orthogonality_residual(r1, r2, 1, 4))
        for r1 in range(5)
        for r2 in range(5)
        if r1 != r2
    )
    report(4, "Laguerre identity exact, orthogonality", ok and worst < 1e-10,
           f"(orthogonality worst {worst:.2e})")


def test_criterion_5_harmonic_projection():
    rng = np.random.default_rng(7)
    worst_harm = 0.0
    worst_round = 0.0
    for d in range(2, 6):
        for degree in range(1, 7):
            for trial in range(50):
                P = HomogeneousPolynomial.random(d, degree, rng, complex_coeffs=(trial % 2 == 0))
                H = harmonic_projection(P)
                scale = max(1.0, P.max_coeff())
                worst_harm = max(worst_harm, H.laplacian().max_coeff() / scale)
            for trial in range(3):
                P = HomogeneousPolynomial.random(d, degree, rng, complex_coeffs=True)
                r2 = HomogeneousPolynomial.radius_squared(d)
                rec = None
                for i, Hp in harmonic_decomposition(P):
                    term = Hp
                    for _ in range(i):
                        term = r2 * term
                    rec = term if rec is None else rec + term
                worst_round = max(worst_round, (rec - P).max_coeff() / max(1.0, P.max_coeff()))
    report(5, "harmonic projection and round trip", worst_harm < 1e-10 and worst_round < 1e-12,
           f"(harmonicity {worst_harm:.2e}, round trip {worst_round:.2e})")


def _sphere_harmonic(l, nu):
    if nu == 0:
        return lambda pts: np.ones(len(pts)) + 0j
    if l == 2:
        return lambda pts: (pts[:, 0] + 1j * pts[:, 1]) ** nu
    if nu == 1:
        return lambda pts: pts[:, 2] + 0j
    return lambda pts: (pts[:, 0] + 1j * pts[:, 1]) ** 2


def test_criterion_6_hankel_fidelity():
    t0 = time.monotonic()
    gauss = lambda k: np.exp(-np.asarray(k) ** 2 / 2.0)
    worst_direct = 0.0
    worst_slice = 0.0
    for l in (2, 3):
        for nu in (0, 1, 2):
            F = _sphere_harmonic(l, nu)
            Z = np.array([1.3, 0.4]) if l == 2 else np.array([0.9, 0.3, 0.7])
            r = np.linalg.norm(Z)
            theta = Z / r

            def func(pts):
                kk = np.linalg.norm(pts, axis=1)
                return gauss(kk) * F(pts / kk[:, None])

            direct = fourier_quadrature(l, func, Z)
            hank = hankel_transform(HankelSpec(l, nu), r, radial=gauss)
            full = hank * F(theta[None, :])[0]
            worst_direct = max(worst_direct, abs(direct - full) / abs(full))
            sliced = hankel_transform_slice(HankelSpec(l, nu), r, radial=gauss)
            worst_slice = max(worst_slice, abs(sliced - hank) / abs(hank))
    elapsed = time.monotonic() - t0
    report(6, "Hankel fidelity (Bessel vs direct vs slicing)",
           worst_direct < 1e-4 and worst_slice < 1e-3 and elapsed < 60.0,
           f"(direct {worst_direct:.2e}, slice {worst_slice:.2e}, elapsed {elapsed:.1f}s)")


def test_criterion_7_curvature():
    worst_ric = 0.0
    worst_scalar = 0.0
    worst_sym = 0.0
    for (l, a, b) in [(3, 1, 0), (3, 1, 1)]:
        alg = htype_group(l, a, b)
        rng = np.random.default_rng(l + a + b)
        # Ricci eigenstructure from the frame trace of the closed forms
        for i in range(alg.k):
            X = np.eye(alg.k)[i]
            worst_ric = max(worst_ric, abs(ricci(alg, (X, None), (X, None)) + alg.l / 2.0))
        for s in range(alg.l):
            Z = np.eye(alg.l)[s]
            worst_ric = max(worst_ric, abs(ricci(alg, (None, Z), (None, Z)) - alg.k / 4.0))
        ext = SolvableExtension(alg, 1.0)
        expect = -(alg.k / 4.0 + alg.l) * (alg.k + alg.l + 1.0)
        worst_scalar = max(worst_scalar, abs(ext.scalar_curvature() - expect))
        for _ in range(10):
            U, V, W, S = [(rng.standard_normal(alg.k), rng.standard_normal(alg.l)) for _ in range(4)]
            RUVW = riemann(alg, U, V, W)
            RVUW = riemann(alg, V, U, W)
            RWSU = riemann(alg, W, S, U)
            ip = lambda A, B: A[0] @ np.asarray(B[0]) + A[1] @ np.asarray(B[1])
            worst_sym = max(worst_sym, abs(ip(RUVW, S) + ip(RVUW, S)))
            worst_sym = max(worst_sym, abs(ip(RUVW, S) - ip(RWSU, V)))
            bianchi = [x + y + z for x, y, z in zip(
                riemann(alg, U, V, W), riemann(alg, V, W, U), riemann(alg, W, U, V))]
            worst_sym = max(worst_sym, np.abs(bianchi[0]).max(), np.abs(bianchi[1]).max())
    ok = worst_ric < 1e-12 and worst_scalar < 1e-12 and worst_sym < 1e-12
    report(7, "curvature eigenstructure, solvable scalar, symmetries", ok,
           f"(ricci {worst_ric:.2e}, scalar {worst_scalar:.2e}, sym {worst_sym:.2e})")


def test_criterion_8_zball_spectra():
    from scipy.special import jn_zeros

    lam3 = zball_eigenvalues(3, 0, 1.0, "dirichlet", count=4)
    worst3 = max(abs(lam3[i] - ((i + 1) * np.pi) ** 2) for i in range(4))
    lam2 = zball_eigenvalues(2, 0, 1.0, "dirichlet", count=4)
    zeros = jn_zeros(0, 4)
    worst2 = max(abs(lam2[i] - zeros[i] ** 2) for i in range(4))
    report(8, "Z-ball spectra against Bessel zeros", worst3 < 1e-10 and worst2 < 1e-10,
           f"(l=3 {worst3:.2e}, l=2 {worst2:.2e})")


def test_criterion_9_isospectrality():
    t0 = time.monotonic()
    h20 = htype_group(3, 2, 0)
    h11 = htype_group(3, 1, 1)
    mu = 1.0
    R = 3.0
    worst = 0.0
    for bc in ("dirichlet", "neumann"):
        for n in range(3):
            for m in range(-n, n + 1, 2):
                op_left = reduced_operator_for_pole(h20, np.eye(8)[0], n, m, mu)
                op_right = reduced_operator_for_pole(h11, np.eye(8)[0], n, m, mu)
                rec_l = compact_spectrum(op_left, R, bc, count=5, N=180)
                rec_r = compact_spectrum(op_right, R, bc, count=5, N=180)
                rep = spectra_compare(rec_l, rec_r, tol=1e-6)
                worst = max(worst, np.abs(rec_l.values() - rec_r.values()).max())
                assert rep["isospectral"]
    # intertwined boundary functions keep their boundary residuals
    src = boundary_functions(h20, s=0, i=1, bc="dirichlet", p=1, q=0, Q=np.eye(8)[0], R=1.0, sphere_order=14)
    out = intertwine(IntertwineSpec(source_Q=np.eye(8)[0], target_alg=h11), src)
    X0 = 0.3 * np.ones(8)
    res_src = src.boundary_residual(X0, "dirichlet", n_dir=6)
    res_out = out.boundary_residual(X0, "dirichlet", n_dir=6)
    elapsed = time.monotonic() - t0
    ok = worst < 1e-6 and res_src < 1e-8 and res_out < 1e-8 and elapsed < 60.0
    report(9, "reduced one-pole isospectrality H^(2,0)_3 vs H^(1,1)_3", ok,
           f"(spectra {worst:.2e}, boundary {max(res_src, res_out):.2e}, elapsed {elapsed:.1f}s)")


def test_criterion_10_wave_checks():
    cc = PhysicalConstants()
    heis = htype_group(1, 1)
    h3 = htype_group(3, 1)
    rel = relativistic_residual([1.0, 0.0, 0.0], cc)
    split = static_split_residual(cc)
    anti_s = zcrystal_wave_residual(heis, np.array([2.0]), 0, 0, 0, cc, "schrodinger")
    anti_ts = zcrystal_wave_residual(heis, np.array([2.0]), 0, 0, 0, cc, "total_schrodinger")
    c0 = PhysicalConstants(m=0.0)
    K = np.array([0.7, -0.2, 0.4])
    ext = SolvableExtension(h3, 1.0)
    wave = ShrinkingWave(K, relativistic_dispersion(K, c0))
    meson = max(r for _, r in expanding_packet_residual(ext, "meson", wave, c0))
    hub_x = abs(hubble_scaling(ext, "X", 1.0, np.log(4.0)) - 2.0)
    hub_z = abs(hubble_scaling(ext, "Z", 1.0, np.log(4.0)) - 4.0)
    ok = (
        rel < 1e-12
        and split == 0.0
        and anti_s < 1e-6
        and anti_ts < 1e-6
        and meson < 1e-10
        and hub_x < 1e-12
        and hub_z < 1e-12
    )
    report(10, "wave operator checks", ok,
           f"(rel {rel:.1e}, split {split:.1e}, anti {max(anti_s, anti_ts):.1e}, "
           f"meson {meson:.1e}, hubble {max(hub_x, hub_z):.1e})")


def test_criterion_11_angular_momentum():
    h3 = htype_group(3, 1)
    Q = np.eye(4)[0]
    # D_K eigenvalue magnitude (p - q)|K| with the recorded sign convention
    eig, resid = dk_eigencheck(h3, Q, 2.0 * np.eye(3)[0], p=1, q=0)
    ok = abs(abs(eig) - 2.0) < 1e-12 and resid < 1e-6
    ok = ok and eig == SIGMA_DK * 1j * 2.0
    eig2, resid2 = dk_eigencheck(h3, Q, np.eye(3)[1], p=2, q=1)
    ok = ok and abs(abs(eig2) - 1.0) < 1e-12 and resid2 < 1e-6
    # M and Delta_Z on a sphere-bundle transform
    tf = TwistedFunction(
        h3, ("sphere", 3.0), Q=Q, p=2, q=1,
        radial=lambda x, kk: np.exp(-x * x / 2.0), sphere_order=14,
    )
    X0 = np.array([0.4, 0.1, -0.3, 0.2])
    Z0 = np.array([0.2, -0.1, 0.3])
    val = tf(X0, Z0)
    m_eig, m_resid = m_operator_eigencheck(h3, tf, X0, Z0)
    ok = ok and abs(abs(m_eig) - 3.0) < 1e-12 and m_resid / abs(val) < 1e-5
    ok = ok and m_eig == SIGMA_DK * (tf.q - tf.p) * 3.0  # consistent sigma
    dz = delta_z_apply(tf, X0, Z0, 3)
    ok = ok and abs(dz / val + 9.0) < 1e-5
    report(11, "angular momentum eigenvalues and sign convention", ok,
           f"(D_K resid {max(resid, resid2):.1e}, M resid {m_resid / abs(val):.1e})")
