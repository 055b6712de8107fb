from fractions import Fraction

import mpmath
import numpy as np
import pytest

from nilspec import glz
from nilspec.glz import (
    RadialGLZOperator,
    _barycentric_interp,
    _galerkin_basis,
    _gram,
    _top_eigenvalues,
    chebyshev_diff,
    chebyshev_nodes,
    clenshaw_curtis_weights,
    compact_spectrum,
    compact_upper_bound,
    explicit_eigenvalue,
    exterior_operator_eigenvalue,
    fullspace_spectrum,
    laguerre_eigenfunction,
    laguerre_operator_apply,
    laguerre_orthogonality_residual,
    radial_apply,
    scaled_eigenfunction,
    shooting_eigenvalue,
    zball_eigenvalues,
)


def test_operator_validation():
    with pytest.raises(ValueError):
        RadialGLZOperator(3, 0, 0, 1.0)  # odd k
    with pytest.raises(ValueError):
        RadialGLZOperator(2, 1, 2, 1.0)  # |m| > n
    with pytest.raises(ValueError):
        RadialGLZOperator(2, 2, 1, 1.0)  # parity


def test_explicit_eigenvalues():
    assert explicit_eigenvalue(1, 0, 0, 2) == -6.0
    assert explicit_eigenvalue(2, 1, 1, 4) == -40.0
    assert explicit_eigenvalue(0.5, 0, 0, 2) == -2.0


def test_radial_apply_ground_state():
    op = RadialGLZOperator(2, 0, 0, 1.0)
    f = scaled_eigenfunction(1.0, 0, 0, 2)
    for t in (0.0, 0.5, 3.0, 10.0):
        assert abs(radial_apply(op, f, t) - (-6.0) * f(t)) < 1e-12


def test_radial_apply_r1():
    # f = (t - 1) e^{-t/2}: eigenvalue -10 = -(4 + 0 + 2 + 4)
    op = RadialGLZOperator(2, 0, 0, 1.0)
    f = scaled_eigenfunction(1.0, 1, 0, 2)
    assert abs(f(0.0) - (-1.0)) < 1e-15
    for t in (0.0, 1.0, 4.0):
        assert abs(radial_apply(op, f, t) - (-10.0) * f(t)) < 1e-12


def test_radial_apply_mu_zero_limit():
    op = RadialGLZOperator(2, 0, 0, 1e-12)
    const = lambda t: 1.0
    val = radial_apply(op, const, 1.0, df=lambda t: 0.0, d2f=lambda t: 0.0)
    assert abs(val) < 1e-10


def test_radial_apply_finite_differences():
    op = RadialGLZOperator(4, 1, 1, 0.7)
    f = scaled_eigenfunction(0.7, 2, 1, 4)
    expect = explicit_eigenvalue(0.7, 2, 1, 4)
    val = radial_apply(op, lambda t: f(t), 2.0)  # no derivative closures
    assert abs(val - expect * f(2.0)) < 1e-4


def test_laguerre_eigenfunction_exact():
    assert laguerre_eigenfunction(0, 0, 2) == [Fraction(1)]
    assert laguerre_eigenfunction(1, 0, 2) == [Fraction(-1), Fraction(1)]
    # operator identity Lambda_alpha(u) = -r u, exact rational arithmetic
    for r in range(7):
        for (n, k) in [(0, 2), (1, 4), (2, 6)]:
            u = laguerre_eigenfunction(r, n, k)
            alpha = Fraction(k, 2) + n - 1
            img = laguerre_operator_apply(u, alpha)
            assert all(img[i] + r * u[i] == 0 for i in range(len(u)))


def test_laguerre_orthogonality():
    for r1 in range(4):
        for r2 in range(4):
            val = laguerre_orthogonality_residual(r1, r2, 1, 4)
            if r1 != r2:
                assert abs(val) < 1e-10
            else:
                assert abs(val) > 0.5


def test_scaled_eigenfunction_mu2():
    op = RadialGLZOperator(2, 0, 0, 2.0)
    f = scaled_eigenfunction(2.0, 0, 0, 2)
    target = explicit_eigenvalue(2.0, 0, 0, 2)
    assert target == -20.0
    for t in np.linspace(0.0, 20.0, 9):
        assert abs(radial_apply(op, f, t) - target * f(t)) < 1e-10


def test_scaled_eigenfunction_mu_half():
    op = RadialGLZOperator(4, 1, 1, 0.5)
    f = scaled_eigenfunction(0.5, 1, 1, 4)
    target = explicit_eigenvalue(0.5, 1, 1, 4)
    assert target == -7.0
    for t in np.linspace(0.0, 12.0, 7):
        assert abs(radial_apply(op, f, t) - target * f(t)) < 1e-10


def test_scaled_eigenfunction_mu1_reduces():
    f1 = scaled_eigenfunction(1.0, 2, 0, 2)
    u = laguerre_eigenfunction(2, 0, 2)
    t = 1.7
    poly = sum(float(c) * t**i for i, c in enumerate(u))
    assert f1(t) == pytest.approx(poly * np.exp(-t / 2.0))


def test_compact_spectrum_converges_to_explicit():
    rec = compact_spectrum(RadialGLZOperator(2, 0, 0, 1.0), np.sqrt(40.0), "dirichlet", count=3, N=300)
    assert abs(rec.values()[0] + 6.0) < 1e-6
    assert abs(rec.values()[1] + 10.0) < 1e-6
    assert rec.provenance == "discretized"


def test_compact_spectrum_count_and_order():
    rec = compact_spectrum(RadialGLZOperator(2, 0, 0, 1.0), 2.0, "dirichlet", count=1, N=150)
    assert len(rec.eigenvalues) == 1
    rec = compact_spectrum(RadialGLZOperator(2, 0, 0, 1.0), 2.0, "dirichlet", count=4, N=150)
    v = rec.values()
    assert np.all(np.diff(v) < 0) and v[0] < 0  # strictly decreasing from below 0


def test_compact_dirichlet_vs_neumann_ordering():
    rd = compact_spectrum(RadialGLZOperator(2, 0, 0, 1.0), 2.0, "dirichlet", count=3, N=150)
    rn = compact_spectrum(RadialGLZOperator(2, 0, 0, 1.0), 2.0, "neumann", count=3, N=150)
    # Neumann ground state sits above the Dirichlet one
    assert rn.values()[0] > rd.values()[0]


@pytest.mark.parametrize("bc", ["dirichlet", "neumann", ("robin", 1.0, 1.0)])
def test_compact_spectrum_shooting_crosscheck(bc):
    op = RadialGLZOperator(2, 0, 0, 1.0)
    rec = compact_spectrum(op, 2.0, bc, count=1, N=150)
    bc_shoot = bc if isinstance(bc, str) else ("robin", 1.0 / np.sqrt(2), 1.0 / np.sqrt(2))
    val = shooting_eigenvalue(op, 2.0, bc_shoot, near=rec.values()[0], span=2.0)
    assert abs(val - rec.values()[0]) < 1e-8


def test_compact_spectrum_alpha_positive():
    rec = compact_spectrum(RadialGLZOperator(4, 1, 1, 1.0), np.sqrt(40.0), "dirichlet", count=3, N=250)
    expect = [explicit_eigenvalue(1.0, r, 1, 4) for r in range(3)]
    assert np.abs(rec.values() - expect).max() < 1e-6


def test_fullspace_spectrum_matches_explicit():
    rec = fullspace_spectrum(RadialGLZOperator(2, 0, 0, 1.0), T=60.0, N=200, count=4)
    expect = [explicit_eigenvalue(1.0, r, 0, 2) for r in range(4)]
    assert np.abs(rec.values() - expect).max() < 1e-8


def test_spectrum_depends_on_p_and_r_only():
    # (n, m) = (2, 0) and (1, 1) share p = 1: identical spectra
    rec_a = fullspace_spectrum(RadialGLZOperator(4, 2, 0, 1.0), T=60.0, N=200, count=3)
    rec_b = fullspace_spectrum(RadialGLZOperator(4, 1, 1, 1.0), T=60.0, N=200, count=3)
    assert np.abs(rec_a.values() - rec_b.values()).max() < 1e-8
    assert explicit_eigenvalue(1.0, 2, 1, 4) == explicit_eigenvalue(1.0, 2, 1, 4)


def test_zball_l3_dirichlet_pi_squares():
    lam = zball_eigenvalues(3, 0, 1.0, "dirichlet", count=3)
    for i, v in enumerate(lam, start=1):
        assert abs(v - (i * np.pi) ** 2) < 1e-10


def test_zball_l2_dirichlet_bessel_zero():
    lam = zball_eigenvalues(2, 0, 1.0, "dirichlet", count=2)
    assert lam[0] == pytest.approx(5.783185962946785, abs=1e-9)  # j_{0,1}^2


def test_zball_neumann_zero_mode():
    lam = zball_eigenvalues(3, 0, 1.0, "neumann", count=3)
    assert lam[0] == 0.0
    # tan(x) = x roots: x_1 ~ 4.4934094579
    assert np.sqrt(lam[1]) == pytest.approx(4.493409457909064, abs=1e-9)


def test_zball_radius_scaling():
    lam1 = zball_eigenvalues(3, 1, 1.0, "dirichlet", count=2)
    lam2 = zball_eigenvalues(3, 1, 2.0, "dirichlet", count=2)
    assert np.allclose(np.asarray(lam1) / 4.0, lam2)


def test_exterior_operator_reduction():
    op = exterior_operator_eigenvalue(3, 0, 1, 1.0, k=4, n=0, m=0)
    assert op.mu == pytest.approx(np.pi / 2.0, abs=1e-12)
    # spectrum of the returned operator matches the explicit formula
    rec = fullspace_spectrum(op, T=60.0, N=200, count=2)
    expect = [explicit_eigenvalue(np.pi / 2.0, r, 0, 4) for r in range(2)]
    assert np.abs(rec.values() - expect).max() < 1e-7


def test_variable_mu_operator():
    op = RadialGLZOperator(2, 0, 0, lambda t: 1.0 + 0.1 * t)
    a2, a1, a0 = op.coeffs(2.0)
    mu = 1.2
    assert a0 == pytest.approx(-(4.0 * mu**2 * 1.5))


def _clenshaw_curtis_loop(N):
    """Reference: the weights summed one frequency at a time."""
    theta = np.pi * np.arange(N + 1) / N
    w = np.zeros(N + 1)
    v = np.ones(N - 1)
    for m in range(1, N // 2 + 1):
        factor = 2.0 if 2 * m < N else 1.0
        v -= factor * np.cos(2.0 * m * theta[1:-1]) / (4.0 * m**2 - 1.0)
    w[1:-1] = 2.0 * v / N
    w[0] = w[N] = 1.0 / (N**2 - 1.0 + (N % 2))
    return w


def _barycentric_loop(x_from, x_to):
    """Reference: the interpolation matrix built one target point at a time."""
    n = len(x_from) - 1
    wts = (-1.0) ** np.arange(n + 1)
    wts[0] *= 0.5
    wts[-1] *= 0.5
    M = np.zeros((len(x_to), n + 1))
    for i, xt in enumerate(x_to):
        diff = xt - x_from
        hit = np.where(np.abs(diff) < 1e-14)[0]
        if hit.size:
            M[i, hit[0]] = 1.0
            continue
        terms = wts / diff
        M[i] = terms / terms.sum()
    return M


@pytest.mark.parametrize("M", [1, 2, 3, 8, 9, 208, 808, 1608])
def test_clenshaw_curtis_exact_for_degree_m(M):
    x = chebyshev_nodes(M)
    w = clenshaw_curtis_weights(M)
    for j in range(M + 1):
        exact = 2.0 / (j + 1) if j % 2 == 0 else 0.0
        assert abs(w @ x**j - exact) < 1e-14, j
    # same weights as the loop form, up to the summation order
    assert np.abs(w - _clenshaw_curtis_loop(M)).max() <= 4 * np.finfo(float).eps


def test_barycentric_interp_reproduces_polynomials():
    N = 12
    nodes = chebyshev_nodes(N)
    coef = np.random.default_rng(3).standard_normal(N + 1)
    targets = np.linspace(-1.0, 1.0, 37) * 0.999
    M = _barycentric_interp(nodes, targets)
    for deg in range(N + 1):
        p = np.polynomial.chebyshev.Chebyshev(coef[: deg + 1])
        assert np.abs(M @ p(nodes) - p(targets)).max() < 1e-13, deg
    # a target on a node gets that node's identity row
    M = _barycentric_interp(nodes, np.array([nodes[0], 0.3, nodes[5], nodes[N]]))
    assert np.array_equal(M[[0, 2, 3]], np.eye(N + 1)[[0, 5, N]])
    assert np.isfinite(M).all() and abs(M[1].sum() - 1.0) < 1e-14
    # the same arithmetic as the per-point loop, so the same bits
    targets = np.concatenate([chebyshev_nodes(2 * N + 8), targets])
    assert np.array_equal(_barycentric_interp(nodes, targets), _barycentric_loop(nodes, targets))


def test_galerkin_basis_cached_read_only():
    N = 40
    first = _galerkin_basis(N)
    again = _galerkin_basis(N)
    assert all(a is b for a, b in zip(first, again))
    x, xf, cwf, Et, Gt = first
    for arr in first:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0
    assert len(x) == N + 1 and len(xf) == 2 * N + 9
    for arr in (Et, Gt):
        assert arr.flags.c_contiguous and arr.shape == (N + 1, 2 * N + 9)
    assert abs(cwf.sum() - 2.0) < 1e-14


def _gram_error(Xt, c):
    """Worst relative error of _gram against the dense lower triangle."""
    dense = np.tril(Xt @ np.diag(c) @ Xt.T)
    got = _gram(Xt, c)
    return np.abs(got - dense).max() / np.abs(dense).max()


_GRAM_WEIGHTS = {
    "positive": lambda c: np.abs(c),
    "mixed": lambda c: c,
    "negative": lambda c: -np.abs(c),
}


@pytest.mark.parametrize("sign", sorted(_GRAM_WEIGHTS))
def test_gram_matches_dense_lower_triangle(sign):
    rng = np.random.default_rng(16)
    Xt = rng.standard_normal((9, 31))
    c = _GRAM_WEIGHTS[sign](rng.standard_normal(31))
    assert _gram_error(Xt, c) < 1e-13
    assert not np.triu(_gram(Xt, c), 1).any()


def test_gram_without_negative_part_fails(monkeypatch):
    # negative control: a Gram product that drops the c- rank update
    import scipy.linalg.blas

    dsyrk = scipy.linalg.blas.dsyrk

    def positive_only(alpha, a, **kw):
        return kw["c"] if alpha < 0 else dsyrk(alpha, a, **kw)

    monkeypatch.setattr(scipy.linalg.blas, "dsyrk", positive_only)
    rng = np.random.default_rng(16)
    Xt = rng.standard_normal((9, 31))
    c = rng.standard_normal(31)
    assert _gram_error(Xt, np.abs(c)) < 1e-13
    for weight in (c, -np.abs(c)):
        assert _gram_error(Xt, weight) > 1e-3


def test_gram_hands_scaled_rows_to_blas_without_a_copy():
    import tracemalloc

    rng = np.random.default_rng(16)
    Xt = rng.standard_normal((100, 801))
    c = np.abs(rng.standard_normal(801))
    tracemalloc.start()
    try:
        G = _gram(Xt, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the scaled rows and the result; a copy of the rows would add Xt.nbytes
    assert peak < 1.25 * Xt.nbytes + G.nbytes


def _dense_pencil(op, R, bc, N):
    """The compact pencil (A, B) by dense products on the untransposed basis."""
    x, D = chebyshev_diff(N)
    xf = chebyshev_nodes(2 * N + 8)
    cw = clenshaw_curtis_weights(2 * N + 8)
    E = _barycentric_interp(x[::-1], xf[::-1])[::-1, ::-1]
    G0 = E @ D
    a = op.k // 2 + op.n - 1
    half = R**2 / 2.0
    tf = (xf + 1.0) * half
    cwf = cw * half
    P = 4.0 * tf ** (a + 1)
    V = np.array([-op.coeffs(t)[2] for t in tf])
    first = 1 if bc == "dirichlet" else 0
    E, G0 = E[:, first:], G0[:, first:]
    wf = cwf * tf**a
    A = -(G0.T * (cwf * P / half**2)) @ G0 - (E.T * (wf * V)) @ E
    if isinstance(bc, tuple):
        A[0, 0] -= (bc[2] / bc[1]) * 4.0 * R ** (2 * a + 2)
    B = (E.T * wf) @ E
    d = 1.0 / np.sqrt(np.diag(B))
    return A * np.outer(d, d), B * np.outer(d, d)


@pytest.mark.parametrize("mu", [0.0, 0.7, "callable"])
@pytest.mark.parametrize("bc", ["dirichlet", "neumann", ("robin", 0.6, 0.8)])
def test_compact_pencil_matches_dense_formula(monkeypatch, mu, bc):
    N, R = 40, 1.7
    if mu == "callable":
        mu = lambda t: 0.7 + 0.2 * t  # noqa: E731
    seen = {}

    def capture(A, B, count):
        seen.update(A=A.copy(order="F"), B=B.copy(order="F"), count=count)
        return _top_eigenvalues(A, B, count)

    monkeypatch.setattr(glz, "_top_eigenvalues", capture)
    op = RadialGLZOperator(4, 2, -2, mu)
    compact_spectrum(op, R, bc, count=4, N=N)
    A, B = seen["A"], seen["B"]
    assert seen["count"] == 4
    # only the lower triangles are formed
    assert not np.triu(A, 1).any() and not np.triu(B, 1).any()
    A_ref, B_ref = _dense_pencil(op, R, bc, N)
    for got, ref in ((A, A_ref), (B, B_ref)):
        assert np.abs(got - np.tril(ref)).max() < 1e-13 * np.abs(ref).max()


def _definite_pencil(rng, n):
    """Lower triangles of a random symmetric A and a positive definite B, Fortran order."""
    X = rng.standard_normal((n, n))
    A = X + X.T
    Y = rng.standard_normal((n, 2 * n))
    B = Y @ Y.T / n + 0.1 * np.eye(n)
    return np.asfortranarray(np.tril(A)), np.asfortranarray(np.tril(B)), A, B


@pytest.mark.parametrize("n, count", [(1, 1), (7, 3), (60, 9), (60, 60), (5, 8)])
def test_top_eigenvalues_match_dense_eigh(n, count):
    import scipy.linalg

    rng = np.random.default_rng(n + count)
    A_low, B_low, A, B = _definite_pencil(rng, n)
    B_kept = B_low.copy()
    got = _top_eigenvalues(A_low, B_low, count)
    ref = np.sort(scipy.linalg.eigh(A, B, eigvals_only=True))[::-1][:count]
    assert got.shape == (min(count, n),)
    assert np.all(np.diff(got) <= 0)
    assert np.abs(got - ref).max() < 1e-11 * max(1.0, np.abs(ref).max())
    assert np.array_equal(B_low, B_kept)


def test_top_eigenvalues_reports_symmetric_condition():
    rng = np.random.default_rng(7)
    A_low, _, _, _ = _definite_pencil(rng, 12)
    Y = rng.standard_normal((12, 12))
    # indefinite symmetric B; only its lower triangle is passed
    B = np.asfortranarray(np.tril(Y + Y.T))
    B_kept = B.copy()
    with pytest.raises(RuntimeError, match="condition") as info:
        _top_eigenvalues(A_low, B, 4)
    reported = float(str(info.value).rsplit(" ", 1)[1])
    symmetric = np.linalg.cond(B + np.tril(B, -1).T)
    # the lower triangle alone has another condition number, so this can fail
    assert f"{np.linalg.cond(B):.3e}" != f"{symmetric:.3e}"
    assert f"{reported:.3e}" == f"{symmetric:.3e}"
    assert np.array_equal(B, B_kept)


def test_eigensolve_failure_reports_symmetric_condition():
    # the (k=8, n=2, m=-2) Dirichlet stratum of the default isospec: its
    # scaled mass matrix is numerically singular
    with pytest.raises(RuntimeError, match="scaled mass matrix condition"):
        compact_spectrum(RadialGLZOperator(8, 2, -2, 1.0), 4.0, "dirichlet", count=5, N=220)


def _neumann_bessel_error():
    """Worst error of the k = 4, n = 0, mu = 0 Neumann spectrum at N = 800, R = 2
    against the Bessel values 0, -(j_{2,i}/R)^2, relative to max(1, |value|)."""
    R, count = 2.0, 4
    got = compact_spectrum(RadialGLZOperator(4, 0, 0, 0.0), R, "neumann", count=count, N=800).values()
    ref = np.array([0.0] + [-float((mpmath.besseljzero(2, i) / R) ** 2) for i in range(1, count)])
    return np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref)))


def test_bisection_tolerance_keeps_relative_accuracy(monkeypatch):
    assert _neumann_bessel_error() < 1e-7
    # negative control: abstol = 0 means eps * ||T||, too coarse near zero
    monkeypatch.setattr(glz, "_BISECTION_ABSTOL", 0.0)
    assert _neumann_bessel_error() > 1e-7


def test_too_few_eigenvalues_raise():
    op = RadialGLZOperator(4, 1, 1, 0.7)
    with pytest.raises(RuntimeError, match="only 30 of 50 eigenvalues at N=30"):
        compact_spectrum(op, 2.0, "dirichlet", count=50, N=30)
    with pytest.raises(RuntimeError, match="of 5 eigenvalues at N=2"):
        fullspace_spectrum(op, N=2, count=5)
    # the same grids give every value asked for
    assert len(compact_spectrum(op, 2.0, "dirichlet", count=30, N=30).values()) == 30
    assert len(fullspace_spectrum(op, N=30, count=5).values()) == 5


def test_compact_spectrum_callable_mu_matches_constant():
    for bc in ("dirichlet", "neumann"):
        ref = compact_spectrum(RadialGLZOperator(4, 1, 1, 0.7), 2.0, bc, count=4, N=120).values()
        got = compact_spectrum(RadialGLZOperator(4, 1, 1, lambda t: 0.7), 2.0, bc, count=4, N=120).values()
        assert np.abs(got - ref).max() < 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_compact_spectrum_variable_mu_shooting_crosscheck(bc):
    op = RadialGLZOperator(2, 0, 0, lambda t: 1.0 + 0.1 * t)
    rec = compact_spectrum(op, 2.0, bc, count=1, N=150)
    val = shooting_eigenvalue(op, 2.0, bc, near=rec.values()[0], span=2.0)
    assert abs(val - rec.values()[0]) < 1e-8


def test_compact_upper_bound():
    for bc in ("dirichlet", "neumann", ("robin", 1.0, 0.5)):
        for k, n, m, mu in [(2, 0, 0, 1.0), (4, 1, -1, 0.7), (6, 2, 2, 1.3)]:
            op = RadialGLZOperator(k, n, m, mu)
            bound = compact_upper_bound(op, bc)
            assert bound == -(2.0 * m * mu + 4.0 * mu**2)
            assert compact_spectrum(op, 2.0, bc, count=3, N=100).values().max() <= bound
    # a Robin term of the wrong sign admits no bound: the spectrum goes above -min V
    op = RadialGLZOperator(2, 0, 0, 0.0)
    assert compact_upper_bound(op, ("robin", 1.0, -2.0)) == np.inf
    assert compact_spectrum(op, 1.0, ("robin", 1.0, -2.0), count=1, N=60).values()[0] > 0.0
    with pytest.raises(ValueError):
        compact_upper_bound(RadialGLZOperator(2, 0, 0, lambda t: 1.0))


@pytest.mark.parametrize("l,s", [(2, 0), (3, 1), (4, 2), (5, 3)])
def test_zball_dirichlet_mpmath_oracle(l, s):
    R = 1.7
    lam = zball_eigenvalues(l, s, R, "dirichlet", count=4)
    for i, v in enumerate(lam, start=1):
        ref = float((mpmath.besseljzero(mpmath.mpf(s) + mpmath.mpf(l) / 2 - 1, i) / R) ** 2)
        assert abs(v - ref) < 1e-12
