"""Named invariant checks over all modules, as one table `CHECKS` of
(suite, check, tolerance, function) rows: function(seed) returns the
detail, and the row passes when the detail is below the tolerance (or
reaches an `_AtLeast` one).  The table backs the command-line `verify`
subcommand and gives the test suite one entry point for the properties.
"""

import functools
import itertools
import math
import os
import traceback

import numpy as np

from . import algebra, geometry, glz, harmonics, isospectral, quadrature, twisted, waves

__all__ = ["CHECKS", "SUITES", "run_suite", "run_all"]


class _AtLeast(float):
    """A tolerance the detail must reach: the row passes when detail >= it."""


_built = {}  # inputs that several rows read, built once per run_suite call and never kept


def _once(build, seed):
    if build not in _built:
        _built[build] = build(seed)
    return _built[build]


def _jz_squared(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for l in range(1, 10):
        alg = algebra.htype_group(l, 1, 0)
        for _ in range(20):
            Z = rng.standard_normal(l)
            J = alg.J(Z)
            worst = max(worst, np.abs(J @ J + (Z @ Z) * np.eye(alg.k)).max())
    return worst


_CURVATURE_GROUPS = {"H^(1,0)_3": (3, 1, 0), "H^(1,1)_3": (3, 1, 1)}


def _curvature_residuals(seed):
    return {name: geometry.curvature_report(algebra.htype_group(*group), samples=10, seed=seed)["residuals"]
            for name, group in _CURVATURE_GROUPS.items()}


def _solvable_scalar(l, a, b):
    alg = algebra.htype_group(l, a, b)
    expect = -(alg.k / 4.0 + alg.l) * (alg.k + alg.l + 1.0)
    return abs(geometry.SolvableExtension(alg, 1.0).scalar_curvature() - expect)


def _harmonics_residuals(seed):
    """Worst projection Laplacian and decomposition round-trip error, relative to max(1, |P|)."""
    rng = np.random.default_rng(seed)
    worst_h = worst_r = 0.0
    for d in (2, 3, 4):
        for degree in (2, 4, 5):
            P = harmonics.HomogeneousPolynomial.random(d, degree, rng, complex_coeffs=True)
            H = harmonics.harmonic_projection(P)
            parts = harmonics.harmonic_decomposition(P)
            worst_h = max(worst_h, H.laplacian().max_coeff() / max(1.0, P.max_coeff()))
            r2 = harmonics.HomogeneousPolynomial.radius_squared(d)
            rec = None
            for i, Hp in parts:
                term = Hp
                for _ in range(i):
                    term = r2 * term
                rec = term if rec is None else rec + term
            worst_r = max(worst_r, (rec - P).max_coeff() / max(1.0, P.max_coeff()))
    return worst_h, worst_r


def _sphere_rule_error(order, degree):
    """Worst error of sphere_rule(l, order) over S^{l-1}, l = 2..5, on every
    monomial of degree <= `degree`, relative to max(1, |moment|).  The exact
    moment is 2 prod Gamma(b_i) / Gamma(sum b_i) with b_i = (a_i + 1) / 2,
    and 0 when an exponent a_i is odd (Folland, Amer. Math. Monthly 108,
    2001)."""
    worst = 0.0
    for l in range(2, 6):
        nodes, weights = quadrature.sphere_rule(l, order)
        for alpha in itertools.product(range(degree + 1), repeat=l):
            if sum(alpha) > degree:
                continue
            got = weights @ np.prod(nodes ** np.array(alpha), axis=1)
            beta = [(a + 1) / 2.0 for a in alpha]
            exact = 0.0 if any(a % 2 for a in alpha) else 2.0 * math.prod(map(math.gamma, beta)) / math.gamma(sum(beta))
            worst = max(worst, abs(got - exact) / max(1.0, abs(exact)))
    return worst


def _collocation_vs_explicit(seed):
    worst = 0.0
    for mu in (0.5, 1.0):
        rec = glz.fullspace_spectrum(glz.RadialGLZOperator(2, 0, 0, mu), T=60.0, N=220, count=3)
        for r, got in enumerate(rec.values()):
            expect = glz.explicit_eigenvalue(mu, r, 0, 2)
            worst = max(worst, abs(got - expect) / abs(expect))
    return worst


_Q = np.eye(4)[0]
_X0, _Z0 = np.array([0.4, 0.1, -0.3, 0.2]), np.array([0.2, -0.1, 0.3])


def _dk_eigenvalue(seed):
    eig, res = twisted.dk_eigencheck(algebra.htype_group(3, 1, 0), _Q, 2.0 * np.eye(3)[0], p=1, q=0)
    return abs(abs(eig) - 2.0) + res


def _twisted_function(seed):
    h3, radial = algebra.htype_group(3, 1, 0), lambda x, kk: np.exp(-x * x / 2)
    return twisted.TwistedFunction(h3, ("sphere", 3.0), Q=_Q, p=2, q=1, radial=radial, sphere_order=14)


def _m_eigenvalue(seed):
    tf = _once(_twisted_function, seed)
    eig, res = twisted.m_operator_eigencheck(tf.alg, tf, _X0, _Z0)
    return res / abs(tf(_X0, _Z0)) + abs(abs(eig) - 3.0)


def _reduced_spectra(seed):
    h20 = algebra.htype_group(3, 2, 0)
    h11 = algebra.htype_group(3, 1, 1)
    worst = 0.0
    for (n, m) in [(0, 0), (1, 1)]:
        left = isospectral.reduced_operator_for_pole(h20, np.eye(8)[0], n, m, 1.0)
        right = isospectral.reduced_operator_for_pole(h11, np.eye(8)[0], n, m, 1.0)
        rec_l = glz.compact_spectrum(left, 3.0, "dirichlet", count=4, N=120)
        rec_r = glz.compact_spectrum(right, 3.0, "dirichlet", count=4, N=120)
        worst = max(worst, np.abs(rec_l.values() - rec_r.values()).max())
    return worst


CHECKS = [
    ("clifford", "J_Z^2 = -|Z|^2 I", 1e-12, _jz_squared),
    *[("htype", f"H^({a},{b})_{l} h-type", algebra.HTYPE_TOL,
       lambda seed, g=(l, a, b): algebra.htype_group(*g).htype_residual(samples=50, seed=seed))
      for l, a, b in [(3, 2, 1), (1, 1, 0), (7, 1, 0)]],
    # passes when the residual is at least the largest one is_h_type accepts
    ("htype", "su(3) image is not H-type", _AtLeast(algebra.HTYPE_TOL),
     lambda seed: algebra.from_representation(algebra.realify(algebra.su_generators(3))).htype_residual(samples=30)),
    *[row for name, group in _CURVATURE_GROUPS.items() for row in [
        ("curvature", f"{name} ricci trace vs closed", geometry.CURVATURE_TOL,
         lambda seed, name=name: _once(_curvature_residuals, seed)[name]["ricci_closed_vs_trace"]),
        ("curvature", f"{name} solvable scalar", 1e-12, lambda seed, group=group: _solvable_scalar(*group)),
    ]],
    *[("curvature", check, geometry.CURVATURE_TOL,
       lambda seed, key=key: max(residuals[key] for residuals in _once(_curvature_residuals, seed).values()))
      for check, key in [("pair symmetry", "pair_symmetry"), ("antisymmetry", "antisymmetry"),
                         ("first Bianchi", "bianchi")]],
    ("harmonics", "projection harmonicity", 1e-10, lambda seed: _once(_harmonics_residuals, seed)[0]),
    ("harmonics", "decomposition round trip", 1e-12, lambda seed: _once(_harmonics_residuals, seed)[1]),
    ("harmonics", "mean value identity", 1e-8, lambda seed: abs(
        harmonics.spherical_mean(3, lambda pts: pts[:, 2], np.array([0.0, 0.0, 1.0]), 1.1) - np.cos(1.1))),
    # every monomial of degree < 2 * order, the degrees the rule claims
    ("harmonics", "sphere rule exactness", 1e-13, lambda seed: _sphere_rule_error(3, 5)),
    ("glz", "collocation vs explicit (subset)", 1e-6, _collocation_vs_explicit),
    ("glz", "Laguerre orthogonality", 1e-10, lambda seed: max(
        abs(glz.laguerre_orthogonality_residual(r1, r2, 1, 4)) for r1 in range(3) for r2 in range(3) if r1 != r2)),
    ("glz", "Z-ball l=3 Dirichlet", 1e-10, lambda seed: max(
        abs(lam - ((i + 1) * np.pi) ** 2) for i, lam in enumerate(glz.zball_eigenvalues(3, 0, 1.0, "dirichlet", 2)))),
    ("waves", "relativistic plane wave", 1e-12,
     lambda seed: waves.relativistic_residual([1.0, 0, 0], waves.PhysicalConstants())),
    ("waves", "static split", 1e-15, lambda seed: waves.static_split_residual(waves.PhysicalConstants())),
    ("waves", "solvable split", 1e-15, lambda seed: waves.solvable_split_residual(waves.PhysicalConstants(), 4, 3)),
    ("waves", "Z-crystal Schrodinger annihilation", 1e-8, lambda seed: waves.zcrystal_wave_residual(
        algebra.htype_group(1, 1, 0), np.array([2.0]), 0, 0, 0, kind="schrodinger")),
    ("waves", "Z-crystal Schrodinger annihilation (p=1, q=0)", 1e-8, lambda seed: waves.zcrystal_wave_residual(
        algebra.htype_group(1, 1, 0), np.array([2.0]), 1, 0, 0, kind="schrodinger")),
    ("waves", "massless meson", 1e-12,
     lambda seed: waves.meson_phase_residual([0.7, -0.2, 0.4], waves.PhysicalConstants(m=0.0))),
    ("waves", "Hubble X-scaling", 1e-12, lambda seed: abs(geometry.hubble_scaling(
        geometry.SolvableExtension(algebra.htype_group(3, 1, 0), 1.0), "X", 1.0, np.log(4.0)) - 2.0)),
    ("angular", "D_K eigenvalue magnitude", 1e-10, _dk_eigenvalue),
    ("angular", "M eigenvalue (p-q)R", 1e-8, _m_eigenvalue),
    ("angular", "Delta_Z eigenvalue -R^2", 1e-8, lambda seed: abs(twisted.delta_z_apply(
        _once(_twisted_function, seed), _X0, _Z0, 3) / _once(_twisted_function, seed)(_X0, _Z0) + 9.0)),
    ("isospec", "H^(2,0)_3 vs H^(1,1)_3 reduced spectra", 1e-6, _reduced_spectra),
]


def run_suite(name, seed=0):
    """(check, passed, detail) for each of the suite's rows, in table order.
    A row that raises fails alone, with the exception text as its detail, so
    a broken library reads as failed checks, not as a crash."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    _built.clear()
    try:
        return [_run(check, tol, fn, seed) for suite, check, tol, fn in CHECKS if suite == name]
    finally:
        _built.clear()


def _run(check, tol, fn, seed):
    try:
        detail = float(fn(seed))
    except Exception as exc:
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}"
        return (check, False, f"{type(exc).__name__}: {exc} ({where})")
    if not math.isfinite(detail):  # JSON has no NaN or infinity: keep the row, as text
        return (check, False, f"non-finite detail {detail}")
    passed = detail >= tol if isinstance(tol, _AtLeast) else detail < tol
    return (check, bool(passed), detail)


# {suite: callable(seed=0)}; perfbench/spans.py times each entry, so run_all calls through it
SUITES = {suite: functools.partial(run_suite, suite) for suite in dict.fromkeys(row[0] for row in CHECKS)}


def run_all(only=None, seed=0):
    names = [only] if only else list(SUITES)
    return {name: SUITES[name](seed=seed) for name in names}
