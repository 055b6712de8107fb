import numpy as np
import pytest

from nilspec import geometry
from nilspec.algebra import TwoStepAlgebra, from_representation, htype_group, realify, su_generators
from nilspec.geometry import (
    SolvableExtension,
    connection,
    curvature_report,
    hubble_scaling,
    invariant_vector_fields,
    laplacian_apply,
    metric_components,
    ricci,
    ricci_htype,
    riemann,
    scalar_curvature,
)


def _pair(alg, rng):
    return (rng.standard_normal(alg.k), rng.standard_normal(alg.l))


def _inner(U, V):
    return np.asarray(U[0]) @ np.asarray(V[0]) + np.asarray(U[1]) @ np.asarray(V[1])


def test_invariant_frame_at_origin():
    h3 = htype_group(3, 1)
    assert np.allclose(invariant_vector_fields(h3, np.zeros(4)), np.eye(7))


def test_invariant_frame_heisenberg():
    heis = htype_group(1, 1)
    F = invariant_vector_fields(heis, [1.0, 0.0])
    # X_2 = d_2 + (1/2) d_z
    assert np.allclose(F[1], [0.0, 1.0, 0.5])


def test_invariant_frame_unimodular():
    h3 = htype_group(3, 2, 1)
    rng = np.random.default_rng(0)
    for _ in range(5):
        F = invariant_vector_fields(h3, rng.standard_normal(h3.k))
        assert abs(np.linalg.det(F) - 1.0) < 1e-13


def test_connection_values():
    heis = htype_group(1, 1)
    x, z = connection(heis, ([1, 0], None), ([1, 0], None))
    assert np.allclose(x, 0) and np.allclose(z, 0)
    # nabla_{e1} e_z = -J(e1)/2 = -e2/2
    x, z = connection(heis, ([1, 0], None), (None, [1.0]))
    assert np.allclose(x, [0, -0.5]) and np.allclose(z, 0)


def test_connection_torsion_free():
    h3 = htype_group(3, 1)
    rng = np.random.default_rng(1)
    for _ in range(10):
        U, V = _pair(h3, rng), _pair(h3, rng)
        cUV = connection(h3, U, V)
        cVU = connection(h3, V, U)
        br = h3.bracket(U[0], V[0])
        assert np.abs(cUV[0] - cVU[0]).max() < 1e-13
        assert np.abs(cUV[1] - cVU[1] - br).max() < 1e-13


def test_metric_compatibility_invariant_fields():
    h3 = htype_group(3, 1)
    rng = np.random.default_rng(2)
    for _ in range(10):
        U, V, W = _pair(h3, rng), _pair(h3, rng), _pair(h3, rng)
        val = _inner(connection(h3, U, V), W) + _inner(V, connection(h3, U, W))
        assert abs(val) < 1e-13


def test_riemann_z_triple_vanishes():
    h3 = htype_group(3, 1)
    rng = np.random.default_rng(3)
    for _ in range(5):
        Zs = [(None, rng.standard_normal(3)) for _ in range(3)]
        R = riemann(h3, *Zs)
        assert np.abs(R[0]).max() < 1e-14 and np.abs(R[1]).max() < 1e-14


def test_riemann_heisenberg_example():
    heis = htype_group(1, 1)
    R = riemann(heis, ([1.0, 0], None), (None, [1.0]), (None, [1.0]))
    assert np.allclose(R[0], [0.25, 0.0]) and np.allclose(R[1], 0.0)


def test_curvature_symmetries_and_bianchi():
    h3 = htype_group(3, 1)
    rng = np.random.default_rng(4)
    for _ in range(15):
        U, V, W, S = (_pair(h3, rng) for _ in range(4))
        RUVW = riemann(h3, U, V, W)
        RVUW = riemann(h3, V, U, W)
        RWSU = riemann(h3, W, S, U)
        assert abs(_inner(RUVW, S) + _inner(RVUW, S)) < 1e-12
        assert abs(_inner(RUVW, S) - _inner(RWSU, V)) < 1e-12
        b = [x + y + z for x, y, z in zip(
            riemann(h3, U, V, W), riemann(h3, V, W, U), riemann(h3, W, U, V))]
        assert np.abs(b[0]).max() < 1e-12 and np.abs(b[1]).max() < 1e-12


def test_ricci_closed_form():
    h3 = htype_group(3, 1)
    X = np.eye(4)[0]
    Z = np.eye(3)[0]
    assert ricci(h3, (X, None), (X, None)) == pytest.approx(-1.5)
    assert ricci(h3, (None, Z), (None, Z)) == pytest.approx(1.0)
    assert ricci(h3, (X, None), (None, Z)) == pytest.approx(0.0)


def test_ricci_trace_matches_htype_closed():
    for (l, a, b) in [(3, 1, 0), (3, 1, 1)]:
        alg = htype_group(l, a, b)
        rng = np.random.default_rng(l + a + b)
        for _ in range(8):
            U, V = _pair(alg, rng), _pair(alg, rng)
            assert abs(ricci(alg, U, V) - ricci_htype(alg, U, V)) < 1e-12


# the six curvature groups of the structures benchmark, plus H^(2,1)_3
CURVATURE_GROUPS = [(1, 1, 0), (2, 1, 0), (3, 1, 0), (3, 1, 1), (5, 1, 0), (7, 1, 0), (3, 2, 1)]


def _riemann_from_connection(alg, U, V, W):
    """R(U,V)W = nabla_U nabla_V W - nabla_V nabla_U W - nabla_[U,V] W."""
    UV = (np.zeros(alg.k), alg.bracket(U[0], V[0]))
    a = connection(alg, U, connection(alg, V, W))
    b = connection(alg, V, connection(alg, U, W))
    c = connection(alg, UV, W)
    return [x - y - z for x, y, z in zip(a, b, c)]


@pytest.mark.parametrize("l, a, b", CURVATURE_GROUPS)
def test_riemann_closed_forms_match_connection_oracle(l, a, b):
    alg = htype_group(l, a, b)
    rng = np.random.default_rng(10 * l + a + b)
    for _ in range(10):
        U, V, W = (_pair(alg, rng) for _ in range(3))
        R = riemann(alg, U, V, W)
        O = _riemann_from_connection(alg, U, V, W)
        assert np.abs(R[0] - O[0]).max() < 1e-13
        assert np.abs(R[1] - O[1]).max() < 1e-13


def test_stacked_riemann_matches_per_triple():
    for l, a, b in [(3, 1, 1), (7, 1, 0)]:
        alg = htype_group(l, a, b)
        rng = np.random.default_rng(l)
        X = rng.standard_normal((3, 6, alg.k))
        Z = rng.standard_normal((3, 6, alg.l))
        xs, zs = geometry._riemann(alg.J_basis, X[0], Z[0], X[1], Z[1], X[2], Z[2])
        assert xs.shape == (6, alg.k) and zs.shape == (6, alg.l)
        for s in range(6):
            x, z = riemann(alg, (X[0, s], Z[0, s]), (X[1, s], Z[1, s]), (X[2, s], Z[2, s]))
            assert np.abs(x - xs[s]).max() <= 1e-15
            assert np.abs(z - zs[s]).max() <= 1e-15


def test_ricci_equals_per_frame_vector_trace():
    for l, a, b in [(1, 1, 0), (3, 1, 1), (5, 1, 0)]:
        alg = htype_group(l, a, b)
        rng = np.random.default_rng(l + a + b)
        for _ in range(4):
            U, V = _pair(alg, rng), _pair(alg, rng)
            loop = 0.0
            for i, E in enumerate(np.eye(alg.k)):
                loop += riemann(alg, (E, None), U, V)[0][i]
            for i, E in enumerate(np.eye(alg.l)):
                loop += riemann(alg, (None, E), U, V)[1][i]
            got = ricci(alg, U, V)
            assert isinstance(got, float)
            assert abs(got - loop) < 1e-13


def test_curvature_report_without_samples():
    report = curvature_report(htype_group(3, 1, 0), samples=0)
    names = ("antisymmetry", "pair_symmetry", "bianchi", "ricci_closed_vs_trace")
    assert report == {
        "k": 4,
        "l": 3,
        "ricci_unit_X": -1.5,
        "ricci_unit_Z": 1.0,
        "scalar_curvature": -3.0,
        "sample_riemann": None,
        "residuals": dict.fromkeys(names, 0.0),
        "within_tol": dict.fromkeys(names, True),
        "tol": 1e-12,
    }


def test_curvature_report_keeps_the_per_vector_stream():
    # sample 0 is R(U,V)W of the first four per-vector (X, Z) draws
    for l, a, b in [(1, 1, 0), (3, 2, 1)]:
        alg = htype_group(l, a, b)
        rng = np.random.default_rng(5)
        U, V, W, _ = [(rng.standard_normal(alg.k), rng.standard_normal(alg.l)) for _ in range(4)]
        x, z = riemann(alg, U, V, W)
        sample = curvature_report(alg, samples=3, seed=5)["sample_riemann"]
        assert np.abs(np.array(sample["x_part"]) - x).max() <= 1e-15 * max(1.0, np.abs(x).max())
        assert np.abs(np.array(sample["z_part"]) - z).max() <= 1e-15 * max(1.0, np.abs(z).max())


def test_curvature_report_passes_on_htype_groups():
    for l, a, b in CURVATURE_GROUPS:
        report = curvature_report(htype_group(l, a, b), samples=5, seed=l)
        assert all(report["within_tol"].values()), report["residuals"]
        assert len(report["sample_riemann"]["x_part"]) == report["k"]


def test_curvature_report_ricci_fails_off_htype():
    # the su(3) image is two-step but not H-type: the curvature symmetries
    # hold, the closed H-type Ricci form does not
    su3 = from_representation(realify(su_generators(3)))
    report = curvature_report(su3, samples=5, seed=0)
    assert report["residuals"]["ricci_closed_vs_trace"] > 1.0
    assert report["within_tol"] == {
        "antisymmetry": True, "pair_symmetry": True, "bianchi": True, "ricci_closed_vs_trace": False,
    }


def test_curvature_report_keeps_nan_residuals():
    # a NaN residual must fail its check, not read as the 0.0 it started from
    alg = TwoStepAlgebra([np.array([[0.0, np.nan], [-1.0, 0.0]])])
    report = curvature_report(alg, samples=2)
    assert all(np.isnan(v) for v in report["residuals"].values())
    assert not any(report["within_tol"].values())


def test_curvature_report_symmetry_checks_can_fail(monkeypatch):
    closed = geometry._riemann

    def broken(J_basis, Xu, Zu, Xv, Zv, Xw, Zw):
        # add |X_U|^2 W: not antisymmetric in (U, V), breaks all three identities
        xpart, zpart = closed(J_basis, Xu, Zu, Xv, Zv, Xw, Zw)
        norm = np.einsum("...i,...i->...", Xu, Xu)[..., None]
        return xpart + 1e-6 * norm * Xw, zpart + 1e-6 * norm * Zw

    monkeypatch.setattr(geometry, "_riemann", broken)
    report = curvature_report(htype_group(3, 1, 1), samples=5, seed=0)
    for name in ("antisymmetry", "pair_symmetry", "bianchi"):
        assert report["residuals"][name] > report["tol"], name
        assert not report["within_tol"][name]


def test_scalar_curvature():
    h3 = htype_group(3, 1)
    assert scalar_curvature(h3) == pytest.approx(-3.0)  # -k l / 4


def test_metric_components():
    h3 = htype_group(3, 1)
    g, gi = metric_components(h3, np.zeros(4))
    assert np.allclose(g, np.eye(7)) and np.allclose(gi, np.eye(7))
    rng = np.random.default_rng(5)
    for _ in range(5):
        g, gi = metric_components(h3, rng.standard_normal(4))
        assert np.abs(g @ gi - np.eye(7)).max() < 1e-13


def test_metric_heisenberg_gzz():
    heis = htype_group(1, 1)
    _, gi = metric_components(heis, [1.0, 0.0])
    assert gi[2, 2] == pytest.approx(1.25)


def test_laplacian_zcrystal_mode():
    heis = htype_group(1, 1)
    Zg = np.array([1.0 / np.pi])

    def f(X, Z):
        return np.exp(-(X @ X) / 2.0) * np.exp(2j * np.pi * (Zg @ Z))

    X0, Z0 = np.array([0.3, -0.2]), np.array([0.15])
    val = laplacian_apply(heis, f, X0, Z0) / f(X0, Z0)
    assert abs(val - (-6.0)) < 1e-6


class TestSolvableExtension:
    def setup_method(self):
        self.h3 = htype_group(3, 1)
        self.ext = SolvableExtension(self.h3, q=1.0)
        self.eX = (np.eye(4)[0], None, 0.0)
        self.eZ = (None, np.eye(3)[0], 0.0)
        self.eT = (None, None, 1.0)

    def test_ricci_closed_values_q1(self):
        # Ri_1 = -(k/4 + l) on X and Z, +(k/4 + l) on T (bilinear -(k/4+l))
        assert self.ext.ricci(self.eX, self.eX) == pytest.approx(-4.0)
        assert self.ext.ricci(self.eZ, self.eZ) == pytest.approx(-4.0)
        assert self.ext.ricci(self.eT, self.eT) == pytest.approx(-4.0)

    def test_ricci_trace_oracle(self):
        for q in (1.0, 0.7, 2.3):
            ext = SolvableExtension(self.h3, q=q)
            for U in (self.eX, self.eZ, self.eT):
                assert abs(ext.ricci(U, U) - ext.ricci_trace(U, U)) < 1e-11
            assert abs(ext.ricci_trace(self.eX, self.eZ)) < 1e-12
            assert abs(ext.ricci_trace(self.eX, self.eT)) < 1e-12

    def test_scalar_curvature_closed_form(self):
        assert self.ext.scalar_curvature() == pytest.approx(-32.0, abs=1e-12)
        h11 = htype_group(3, 1, 1)
        assert SolvableExtension(h11, 1.0).scalar_curvature() == pytest.approx(-60.0, abs=1e-12)

    def test_einstein_entry_from_pinned_scalar(self):
        # Ric(T,T) - scalar/2 <T,T> with the pinned scalar (-32): -4 - 16
        val = self.ext.einstein(self.eT, self.eT)
        assert val == pytest.approx(-4.0 - 0.5 * (-32.0) * (-1.0))

    def test_t_lines_are_geodesics(self):
        out = self.ext.connection(self.eT, self.eT)
        assert np.abs(out[0]).max() == 0.0
        assert np.abs(out[1]).max() == 0.0
        assert out[2] == 0.0

    def test_unit_frame(self):
        rng = np.random.default_rng(6)
        for t in (0.5, 1.0, 2.5):
            X, Z = rng.standard_normal(4), rng.standard_normal(3)
            ext = SolvableExtension(self.h3, q=1.3)
            g, gi = ext.metric_components(X, Z, t)
            F = ext.solvable_frame(X, Z, t)
            eta = np.diag([1.0] * 7 + [-1.0])
            assert np.abs(F @ g @ F.T - eta).max() < 1e-12
            assert np.abs(g @ gi - np.eye(8)).max() < 1e-12

    def test_time_coordinates(self):
        ext = SolvableExtension(self.h3, q=2.0)
        assert ext.t_of_T(0.0) == pytest.approx(1.0)
        assert ext.T_of_t(np.e**2) == pytest.approx(1.0)


def test_hubble_scaling():
    ext = SolvableExtension(htype_group(3, 1), q=1.0)
    assert hubble_scaling(ext, "X", 1.0, np.log(4.0)) == pytest.approx(2.0, abs=1e-12)
    assert hubble_scaling(ext, "Z", 1.0, np.log(4.0)) == pytest.approx(4.0, abs=1e-12)
    assert hubble_scaling(ext, "X", 0.7, 0.0) == pytest.approx(0.7)
    with pytest.raises(ValueError):
        hubble_scaling(ext, "X", -1.0, 0.0)


# -- the finite-difference kernel ---------------------------------------------


@pytest.mark.parametrize("order, degree", [(1, 0), (1, 2), (1, 4), (2, 1), (2, 3), (2, 5)])
def test_central_difference_exact_on_polynomials(order, degree):
    P = np.polynomial.Polynomial(np.random.default_rng(degree).standard_normal(degree + 1))
    for s0 in (-0.7, 0.0, 1.3):
        got = geometry._central_difference(lambda s: P(s0 + s), order)
        # rounding only: a few ulps of |P| near s0, divided by the step^order
        scale = np.abs(P.coef).sum() * (1.0 + abs(s0)) ** degree
        tol = 64 * np.finfo(float).eps * scale / geometry._STEP**order
        assert abs(got - P.deriv(order)(s0)) < tol


def test_laplacian_apply_non_htype_matches_symbolic():
    sympy = pytest.importorskip("sympy")
    su3 = from_representation(realify(su_generators(3)))
    k, l = su3.k, su3.l
    n = k + l
    # a homogeneous cubic, a product of random linear forms in all k + l
    # coordinates, near the origin: there |f| = O(|v|^3) stays below
    # |Delta f| = O(|v|), so the rounding floor eps |f| / h^2 of the
    # differences sits far below the tolerance
    coef = np.random.default_rng(0).standard_normal((3, n))
    point = np.random.default_rng(100).uniform(-0.2, 0.2, n)

    def f(X, Z):
        forms = coef @ np.concatenate([X, Z])
        return forms[0] * forms[1] * forms[2]

    v = sympy.symbols(f"v0:{n}")

    def poly(expr):
        return sympy.Poly(expr, *v, domain="RR")

    forms = [poly(sum(float(c) * vi for c, vi in zip(row, v))) for row in coef]
    f_sym = forms[0] * forms[1] * forms[2]
    JX = [[poly(sum(float(J[i, j]) * v[j] for j in range(k))) for i in range(k)] for J in su3.J_basis]
    # inverse metric: g^ij = delta_ij, g^ia = <J_a X, E_i>/2,
    # g^ab = delta_ab + <J_a X, J_b X>/4
    G = [[sum((JX[a][i] * JX[b][i] for i in range(k)), poly(0)) for b in range(l)] for a in range(l)]
    ginv = [[poly(int(i == j)) for j in range(n)] for i in range(n)]
    for a in range(l):
        for i in range(k):
            ginv[i][k + a] = ginv[k + a][i] = JX[a][i] * 0.5
        for b in range(l):
            ginv[k + a][k + b] += G[a][b] * 0.25
    # det g = 1, so the Laplace-Beltrami operator is d_i (g^ij d_j f)
    grad = [f_sym.diff(vj) for vj in v]
    lap = sum(((ginv[i][j] * grad[j]).diff(v[i]) for i in range(n) for j in range(n)), poly(0))
    ref = float(lap(*point))
    got = laplacian_apply(su3, f, point[:k], point[k:])
    assert abs(got - ref) < 1e-10 * max(1.0, abs(ref))
    # the <J_a X, J_b X>/4 term is far above the tolerance, so an operator
    # that drops it fails
    term = sum((G[a][b] * grad[k + a].diff(v[k + b]) * 0.25 for a in range(l) for b in range(l)), poly(0))
    assert abs(float(term(*point))) > 1e-6 * max(1.0, abs(ref))
