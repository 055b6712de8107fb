"""Every `verify` check must be able to fail.

CONTROLS: each perturbs one input of a finite-difference check by a small
relative amount, small enough that the check passes at the tolerance it
had before the differences were Richardson-extrapolated, large enough
that it fails at today's tolerance.

MUTATIONS: each changes one site of the library, and every check that
`verify.run_all` reports is named by at least one row that makes it fail
(mutation adequacy, DeMillo, Lipton & Sayward, IEEE Computer 11(4), 1978).
"""

from collections import namedtuple

import numpy as np
import pytest
from mutants import Edit, mutant

from nilspec import algebra, clifford, geometry, glz, harmonics, isospectral, quadrature, twisted, verify, waves


def _scaled_sphere_radius(factor):
    class Scaled(twisted.TwistedFunction):
        def __init__(self, alg, mode, **kwargs):
            super().__init__(alg, (mode[0], factor * mode[1], *mode[2:]), **kwargs)

    return Scaled


def _scaled_k(factor):
    dk_eigencheck = twisted.dk_eigencheck
    return lambda alg, Q, K, **kwargs: dk_eigencheck(alg, Q, factor * np.asarray(K), **kwargs)


def _scaled_mu(factor):
    scaled_eigenfunction = glz.scaled_eigenfunction
    return lambda mu, r, n, k: scaled_eigenfunction(factor * mu, r, n, k)


# (suite, check, tolerance before, patched attribute, perturbed replacement).
# |K| = 2 and the Z-crystal residual moves by 2e-6 and 1.8e-6 under a 1e-6
# relative change, above the earlier tolerance of 1e-6, so those two
# controls move their input by 1e-7
CONTROLS = [
    ("angular", "D_K eigenvalue magnitude", 1e-6, (twisted, "dk_eigencheck"), lambda: _scaled_k(1 + 1e-7)),
    ("angular", "M eigenvalue (p-q)R", 1e-5, (twisted, "TwistedFunction"), lambda: _scaled_sphere_radius(1 + 1e-6)),
    ("angular", "Delta_Z eigenvalue -R^2", 1e-5, (twisted, "TwistedFunction"),
     lambda: _scaled_sphere_radius(np.sqrt(1 + 1e-6))),  # R^2 by 1e-6
    ("waves", "Z-crystal Schrodinger annihilation", 1e-6, (glz, "scaled_eigenfunction"), lambda: _scaled_mu(1 + 1e-7)),
]


@pytest.mark.parametrize("suite, check, tol_before, target, perturbed", CONTROLS, ids=[c[1] for c in CONTROLS])
def test_small_perturbation_fails_tightened_check(monkeypatch, suite, check, tol_before, target, perturbed):
    rows = {name: (ok, detail) for name, ok, detail in verify.run_suite(suite)}
    assert rows[check][0]
    monkeypatch.setattr(*target, perturbed())
    rows = {name: (ok, detail) for name, ok, detail in verify.run_suite(suite)}
    ok, detail = rows[check]
    assert not ok
    assert detail < tol_before


# -- mutation table: every verify check is killed by a named mutation --------


Mutation = namedtuple("Mutation", "name owner attr change checks")

# Each row: (name, owner and attribute patched, mutated value or Edit of its
# source, {suite: checks that must read FAIL}).  A mutation is a sign, an
# index, a factor of 2, a swapped argument or an off-by-one in the library;
# none adds a constant to a result.  The caches of _CACHES are cleared once
# the mutation is in place, so it reaches every cached value built from it.
MUTATIONS = [
    Mutation("J_Z doubles Z", algebra.TwoStepAlgebra, "J",
             Edit("np.tensordot(Z, self.J_basis", "np.tensordot(2.0 * Z, self.J_basis"),
             {"clifford": ["J_Z^2 = -|Z|^2 I"]}),
    Mutation("H-type residual with J^2 - I", algebra.TwoStepAlgebra, "htype_residual",
             Edit("np.abs(J @ J + eye)", "np.abs(J @ J - eye)"),
             {"htype": ["H^(2,1)_3 h-type", "H^(1,0)_1 h-type", "H^(1,0)_7 h-type"]}),
    Mutation("H-type residual returned with its sign flipped", algebra.TwoStepAlgebra, "htype_residual",
             Edit("return worst", "return -worst"), {"htype": ["su(3) image is not H-type"]}),
    Mutation("closed Ricci with -l/4 <X, X*>", geometry, "ricci_htype",
             Edit("-(alg.l / 2.0)", "-(alg.l / 4.0)"),
             {"curvature": ["H^(1,0)_3 ricci trace vs closed", "H^(1,1)_3 ricci trace vs closed"]}),
    Mutation("solvable Ric(T, T) sign", geometry.SolvableExtension, "ricci",
             Edit("(-au * av)", "(au * av)"),
             {"curvature": ["H^(1,0)_3 solvable scalar", "H^(1,1)_3 solvable scalar"]}),
    Mutation("R(Z, Z*)X at 1/2", geometry, "_riemann",
             Edit("+ 0.25 * (_jz(J_basis, Zu, JvXw)", "+ 0.5 * (_jz(J_basis, Zu, JvXw)"),
             {"curvature": ["pair symmetry", "first Bianchi"]}),
    Mutation("R(X, Y)X* middle term sign", geometry, "_riemann",
             Edit("+ -0.25 * _jz(J_basis, _bracket(J_basis, Xv, Xw), Xu)",
                  "+ 0.25 * _jz(J_basis, _bracket(J_basis, Xv, Xw), Xu)"),
             {"curvature": ["antisymmetry", "first Bianchi"]}),
    Mutation("projection recursion with s + 2", harmonics, "projection_coefficients",
             Edit("2.0 * (s + 1)", "2.0 * (s + 2)"),
             {"harmonics": ["projection harmonicity", "decomposition round trip"]}),
    Mutation("decomposition norm stops one factor short", harmonics, "harmonic_decomposition",
             Edit("range(1, i + 1)", "range(1, i)"), {"harmonics": ["decomposition round trip"]}),
    Mutation("spherical mean with cos and sin swapped", harmonics, "spherical_mean",
             Edit("np.cos(rho) * theta[None, :] + np.sin(rho)", "np.sin(rho) * theta[None, :] + np.cos(rho)"),
             {"harmonics": ["mean value identity"]}),
    Mutation("circle rule with 2 order - 1 nodes", quadrature, "_sphere_rule_cached",
             Edit("max(4, 2 * order)", "max(4, 2 * order - 1)"), {"harmonics": ["sphere rule exactness"]}),
    Mutation("circle weights pi/n for 2 pi/n", quadrature, "_sphere_rule_cached",
             Edit("2.0 * np.pi / n", "np.pi / n"), {"harmonics": ["sphere rule exactness"]}),
    Mutation("one Gauss-Jacobi node fewer", quadrature, "_sphere_rule_cached",
             Edit("roots_jacobi(order,", "roots_jacobi(order - 1,"), {"harmonics": ["sphere rule exactness"]}),
    Mutation("full-space constant added", glz, "fullspace_spectrum",
             Edit("mu * lam - const", "mu * lam + const"), {"glz": ["collocation vs explicit (subset)"]}),
    Mutation("Laguerre recursion with alpha + i", glz, "laguerre_eigenfunction",
             Edit("(alpha + i + 1)", "(alpha + i)"), {"glz": ["Laguerre orthogonality"]}),
    Mutation("Z-ball Bessel order one up", glz, "zball_eigenvalues",
             Edit("s + l / 2.0 - 1.0", "s + l / 2.0"), {"glz": ["Z-ball l=3 Dirichlet"]}),
    Mutation("dispersion with k^2 - m^2 c^2", waves, "relativistic_dispersion",
             Edit("kk**2 + constants.m**2", "kk**2 - constants.m**2"), {"waves": ["relativistic plane wave"]}),
    Mutation("neutrino mass term sign", waves, "operator_atoms",
             Edit('"dT": const(mass_rate)', '"dT": const(-mass_rate)'), {"waves": ["static split"]}),
    Mutation("tractor rate k/2 + l", waves, "operator_atoms",
             Edit("const(k / 2.0 + l - 1.0)", "const(k / 2.0 + l)"), {"waves": ["solvable split"]}),
    Mutation("Z-crystal mu = |K|", waves, "zcrystal_wave_residual",
             Edit("mu = kt / 2.0", "mu = kt"), {"waves": ["Z-crystal Schrodinger annihilation"]}),
    Mutation("Z-crystal magnetic index p_index = q", waves, "zcrystal_wave_residual",
             Edit("p_index = p  #", "p_index = q  #"), {"waves": ["Z-crystal Schrodinger annihilation (p=1, q=0)"]}),
    Mutation("meson residual omega^2 + k^2", waves, "meson_phase_residual",
             Edit("(omega**2 - kk**2)", "(omega**2 + kk**2)"), {"waves": ["massless meson"]}),
    Mutation("X-curves at rate q", geometry, "hubble_scaling",
             Edit("np.exp(q * tau / 2.0)", "np.exp(q * tau)"), {"waves": ["Hubble X-scaling"]}),
    Mutation("D_K eigenvalue with q - p", twisted, "dk_eigencheck",
             Edit("SIGMA_DK * (p - q)", "SIGMA_DK * (q - p)"), {"angular": ["D_K eigenvalue magnitude"]}),
    Mutation("M eigenvalue with p - q", twisted, "m_operator_eigencheck",
             Edit("(tf.q - tf.p)", "(tf.p - tf.q)"), {"angular": ["M eigenvalue (p-q)R"]}),
    Mutation("sphere rule off the sphere", quadrature, "_sphere_rule_cached",
             Edit("np.sqrt(1.0 - u**2)", "np.sqrt(1.0 + u**2)"), {"angular": ["Delta_Z eigenvalue -R^2"]}),
    # the isospec row fails by the pole reduction raising, on its own row
    Mutation("D-sign convention flipped", twisted, "SIGMA_DK", -1,
             {"angular": ["D_K eigenvalue magnitude", "M eigenvalue (p-q)R"],
              "isospec": ["H^(2,0)_3 vs H^(1,1)_3 reduced spectra"]}),
]

# survives every check: both sides of the isospectral pair share k, so the
# comparison cannot see it (ROADMAP item 4 makes it fail)
SURVIVORS = [
    Mutation("reduction uses k + 2 on both sides", isospectral, "reduced_operator_for_pole",
             Edit("RadialGLZOperator(k=alg.k,", "RadialGLZOperator(k=alg.k + 2,"),
             {"isospec": ["H^(2,0)_3 vs H^(1,1)_3 reduced spectra"]}),
]

# the caches a mutation can sit behind
_CACHES = [
    clifford._cayley_dickson_table,
    clifford._irreducible_module,
    glz._galerkin_basis,
    quadrature._sphere_rule_cached,
    quadrature._zonal_projector_factor,
]


def _clear_caches():
    for cached in _CACHES:
        cached.cache_clear()


@pytest.fixture
def clean_caches():
    """Cleared before the row and again at teardown, so no entry built under
    a mutation reaches a later test."""
    _clear_caches()
    yield
    _clear_caches()


def _verdicts(checks):
    """{(suite, check): passed} for the named checks of each suite."""
    out = {}
    for suite, names in checks.items():
        rows = {name: ok for name, ok, _ in verify.run_suite(suite)}
        out.update({(suite, name): rows[name] for name in names})
    return out


@pytest.mark.parametrize("mutation", [
    *MUTATIONS,
    *[pytest.param(m, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 4")) for m in SURVIVORS],
], ids=lambda m: m.name)
def test_mutation_fails_its_checks(monkeypatch, clean_caches, mutation):
    assert all(_verdicts(mutation.checks).values())
    value = mutation.change
    if isinstance(value, Edit):
        value = mutant(getattr(mutation.owner, mutation.attr), value)
    with monkeypatch.context() as patch:
        patch.setattr(mutation.owner, mutation.attr, value)
        _clear_caches()
        verdicts = _verdicts(mutation.checks)
    assert verdicts == dict.fromkeys(verdicts, False)


def test_every_check_has_a_killing_mutation():
    reported = {(suite, name) for suite, rows in verify.run_all().items() for name, _, _ in rows}
    killed = {(suite, check) for m in MUTATIONS for suite, checks in m.checks.items() for check in checks}
    assert killed == reported
    assert len(reported) == len(verify.CHECKS)


def test_sphere_rule_exactness_fails_one_degree_up():
    # the rule claims degree < 2 * order; at degree 2 * order the same
    # comparison misses by far more than the row's tolerance
    assert verify._sphere_rule_error(3, 6) > 0.1
