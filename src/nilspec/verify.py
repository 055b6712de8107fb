"""Named invariant suites over all modules.

Each suite returns a list of (check name, passed, detail) triples; the
collection backs the command-line `verify` subcommand and gives the test
suite a single entry point for the cross-module properties.
"""

import os
import traceback

import numpy as np

from . import algebra, geometry, glz, harmonics, isospectral, twisted, waves
from .clifford import build_generators, irreducible_dimension

__all__ = ["SUITES", "run_suite", "run_all"]


def _check(name, value, tol):
    return (name, bool(value < tol), float(value))


def suite_clifford(seed=0, perturb=False):
    out = []
    table = {1: 2, 2: 4, 3: 4, 4: 8, 5: 8, 6: 8, 7: 8, 8: 16, 9: 32, 16: 256}
    worst = max(abs(irreducible_dimension(l) - v) for l, v in table.items())
    out.append(_check("dimension table", worst, 1))
    res = max(build_generators(l).anticommutation_residual() for l in range(1, 10))
    if perturb:
        res += 1
    out.append(_check("generator anticommutation (exact)", res, 1))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for l in (1, 2, 3, 5, 7, 9):
        alg = algebra.htype_group(l, 1, 0)
        for _ in range(20):
            Z = rng.standard_normal(l)
            J = alg.J(Z)
            worst = max(worst, np.abs(J @ J + (Z @ Z) * np.eye(alg.k)).max())
    out.append(_check("J_Z^2 = -|Z|^2 I", worst, 1e-12))
    return out


def suite_htype(seed=0, perturb=False):
    out = []
    for (l, a, b) in [(3, 2, 1), (1, 1, 0), (7, 1, 0)]:
        ok, res = algebra.htype_group(l, a, b).is_h_type(samples=50, seed=seed)
        out.append((f"H^({a},{b})_{l} h-type", bool(ok), float(res)))
    su3 = algebra.from_representation(algebra.realify(algebra.su_generators(3)))
    ok, res = su3.is_h_type(samples=30)
    if perturb:
        ok = True
    out.append(("su(3) image is not H-type", not ok, float(res)))
    return out


def suite_curvature(seed=0, perturb=False):
    out = []
    worst = {"pair_symmetry": 0.0, "antisymmetry": 0.0, "bianchi": 0.0}
    for name, alg in [("H^(1,0)_3", algebra.htype_group(3, 1, 0)), ("H^(1,1)_3", algebra.htype_group(3, 1, 1))]:
        residuals = geometry.curvature_report(alg, samples=10, seed=seed)["residuals"]
        for key in worst:
            worst[key] = max(worst[key], residuals[key])
        out.append(_check(f"{name} ricci trace vs closed", residuals["ricci_closed_vs_trace"], 1e-12))
        ext = geometry.SolvableExtension(alg, 1.0)
        expect = -(alg.k / 4.0 + alg.l) * (alg.k + alg.l + 1.0)
        val = abs(ext.scalar_curvature() - expect)
        if perturb:
            val += 1.0
        out.append(_check(f"{name} solvable scalar", val, 1e-12))
    out.append(_check("pair symmetry", worst["pair_symmetry"], 1e-12))
    out.append(_check("antisymmetry", worst["antisymmetry"], 1e-12))
    out.append(_check("first Bianchi", worst["bianchi"], 1e-12))
    return out


def suite_glz(seed=0, perturb=False):
    out = []
    worst = 0.0
    for mu in (0.5, 1.0):
        rec = glz.fullspace_spectrum(glz.RadialGLZOperator(2, 0, 0, mu), T=60.0, N=220, count=3)
        for r, got in enumerate(rec.values()):
            expect = glz.explicit_eigenvalue(mu, r, 0, 2)
            worst = max(worst, abs(got - expect) / abs(expect))
    if perturb:
        worst += 1.0
    out.append(_check("collocation vs explicit (subset)", worst, 1e-6))
    res = max(abs(glz.laguerre_orthogonality_residual(r1, r2, 1, 4)) for r1 in range(3) for r2 in range(3) if r1 != r2)
    out.append(_check("Laguerre orthogonality", res, 1e-10))
    lam = glz.zball_eigenvalues(3, 0, 1.0, "dirichlet", 2)
    res = max(abs(lam[i] - ((i + 1) * np.pi) ** 2) for i in range(2))
    out.append(_check("Z-ball l=3 Dirichlet", res, 1e-10))
    return out


def suite_harmonics(seed=0, perturb=False):
    out = []
    rng = np.random.default_rng(seed)
    worst_h = worst_r = 0.0
    for d in (2, 3, 4):
        for degree in (2, 4, 5):
            P = harmonics.HomogeneousPolynomial.random(d, degree, rng, complex_coeffs=True)
            H = harmonics.harmonic_projection(P)
            parts = harmonics.harmonic_decomposition(P)
            if perturb:  # corrupt the outputs, so both checks must catch it
                H = H + 1e-6 * P
                parts[0] = (parts[0][0], (1.0 + 1e-6) * parts[0][1])
            worst_h = max(worst_h, H.laplacian().max_coeff() / max(1.0, P.max_coeff()))
            r2 = harmonics.HomogeneousPolynomial.radius_squared(d)
            rec = None
            for i, Hp in parts:
                term = Hp
                for _ in range(i):
                    term = r2 * term
                rec = term if rec is None else rec + term
            worst_r = max(worst_r, (rec - P).max_coeff() / max(1.0, P.max_coeff()))
    out.append(_check("projection harmonicity", worst_h, 1e-10))
    out.append(_check("decomposition round trip", worst_r, 1e-12))
    got = harmonics.spherical_mean(3, lambda pts: pts[:, 2], np.array([0.0, 0.0, 1.0]), 1.1)
    out.append(_check("mean value identity", abs(got - np.cos(1.1)), 1e-8))
    return out


def suite_isospec(seed=0, perturb=False):
    out = []
    h20 = algebra.htype_group(3, 2, 0)
    h11 = algebra.htype_group(3, 1, 1)
    worst = 0.0
    for (n, m) in [(0, 0), (1, 1)]:
        left = isospectral.reduced_operator_for_pole(h20, np.eye(8)[0], n, m, 1.0)
        right = isospectral.reduced_operator_for_pole(h11, np.eye(8)[0], n, m, 1.0)
        rec_l = glz.compact_spectrum(left, 3.0, "dirichlet", count=4, N=120)
        rec_r = glz.compact_spectrum(right, 3.0, "dirichlet", count=4, N=120)
        worst = max(worst, np.abs(rec_l.values() - rec_r.values()).max())
    if perturb:
        worst += 1.0
    out.append(_check("H^(2,0)_3 vs H^(1,1)_3 reduced spectra", worst, 1e-6))
    return out


def suite_waves(seed=0, perturb=False):
    out = []
    cc = waves.PhysicalConstants()
    out.append(_check("relativistic plane wave", waves.relativistic_residual([1.0, 0, 0], cc), 1e-12))
    out.append(_check("static split", waves.static_split_residual(cc), 1e-15))
    out.append(_check("solvable split", waves.solvable_split_residual(cc, 4, 3), 1e-15))
    heis = algebra.htype_group(1, 1, 0)
    res = waves.zcrystal_wave_residual(heis, np.array([2.0]), 0, 0, 0, kind="schrodinger")
    if perturb:
        res += 1.0
    out.append(_check("Z-crystal Schrodinger annihilation", res, 1e-8))
    c0 = waves.PhysicalConstants(m=0.0)
    out.append(_check("massless meson", waves.meson_phase_residual([0.7, -0.2, 0.4], c0), 1e-12))
    ext = geometry.SolvableExtension(algebra.htype_group(3, 1, 0), 1.0)
    got = geometry.hubble_scaling(ext, "X", 1.0, np.log(4.0))
    out.append(_check("Hubble X-scaling", abs(got - 2.0), 1e-12))
    return out


def suite_angular(seed=0, perturb=False):
    out = []
    h3 = algebra.htype_group(3, 1, 0)
    Q = np.eye(4)[0]
    eig, res = twisted.dk_eigencheck(h3, Q, 2.0 * np.eye(3)[0], p=1, q=0)
    val = abs(abs(eig) - 2.0) + res
    out.append(_check("D_K eigenvalue magnitude", val, 1e-10))
    tf = twisted.TwistedFunction(
        h3, ("sphere", 3.0), Q=Q, p=2, q=1, radial=lambda x, kk: np.exp(-x * x / 2), sphere_order=14
    )
    X0 = np.array([0.4, 0.1, -0.3, 0.2])
    Z0 = np.array([0.2, -0.1, 0.3])
    eig, res = twisted.m_operator_eigencheck(h3, tf, X0, Z0)
    scale = abs(tf(X0, Z0))
    v = res / scale + abs(abs(eig) - 3.0)
    if perturb:
        v += 1.0
    out.append(_check("M eigenvalue (p-q)R", v, 1e-8))
    dz = twisted.delta_z_apply(tf, X0, Z0, 3)
    out.append(_check("Delta_Z eigenvalue -R^2", abs(dz / tf(X0, Z0) + 9.0), 1e-8))
    return out


SUITES = {
    "clifford": suite_clifford,
    "htype": suite_htype,
    "curvature": suite_curvature,
    "harmonics": suite_harmonics,
    "glz": suite_glz,
    "waves": suite_waves,
    "angular": suite_angular,
    "isospec": suite_isospec,
}


def run_suite(name, seed=0, perturb=False):
    """The suite's checks; a suite that raises is one failed check whose
    detail is the exception text, so a broken library reads as a failed
    verification, not as a crash."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    try:
        return SUITES[name](seed=seed, perturb=perturb)
    except Exception as exc:
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}"
        return [(f"{name} suite ran", False, f"{type(exc).__name__}: {exc} ({where})")]


def run_all(only=None, seed=0, perturb=False):
    names = [only] if only else list(SUITES)
    results = {}
    for name in names:
        results[name] = run_suite(name, seed=seed, perturb=perturb)
    return results
