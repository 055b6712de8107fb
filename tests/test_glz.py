import os
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import mpmath
import numpy as np
import pytest
from radial_oracles import kummer_eigenvalues, radial_apply

from nilspec import glz
from nilspec.glz import (
    RadialGLZOperator,
    _barycentric_interp,
    _galerkin_basis,
    _gram,
    _top_eigenvalues,
    chebyshev_diff,
    chebyshev_nodes,
    compact_spectrum,
    compact_upper_bound,
    explicit_eigenvalue,
    exterior_operator_eigenvalue,
    fullspace_spectrum,
    laguerre_eigenfunction,
    laguerre_operator_apply,
    laguerre_orthogonality_residual,
    scaled_eigenfunction,
    zball_eigenvalues,
)


def test_operator_validation():
    with pytest.raises(ValueError):
        RadialGLZOperator(3, 0, 0, 1.0)  # odd k
    with pytest.raises(ValueError):
        RadialGLZOperator(2, 1, 2, 1.0)  # |m| > n
    with pytest.raises(ValueError):
        RadialGLZOperator(2, 2, 1, 1.0)  # parity
    for mu in (-1.0, -1e-300, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="mu must be finite and >= 0"):
            RadialGLZOperator(2, 0, 0, mu)
    assert RadialGLZOperator(2, 0, 0, 0).mu == 0.0


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


def _kummer_error(op, bc, values):
    """Worst error of `values` against the Kummer zeros of op on [0, 4],
    relative to max(1, |zero|)."""
    ref = np.array(kummer_eigenvalues(op, 2.0, bc, len(values)))
    return np.max(np.abs(np.asarray(values) - ref) / np.maximum(1.0, np.abs(ref)))


_KUMMER_CELLS = {
    "dirichlet": ((2, 0, 0, 1.0), "dirichlet"),
    "neumann": ((2, 0, 0, 1.0), "neumann"),
    "robin": ((2, 0, 0, 1.0), ("robin", 1.0, 1.0)),
    "n1-dirichlet": ((4, 1, 1, 0.7), "dirichlet"),
    "n2-robin": ((4, 2, -2, 0.7), ("robin", 0.6, 0.8)),
    "mu0-dirichlet": ((4, 1, -1, 0.0), "dirichlet"),
}


@pytest.mark.parametrize("cell", sorted(_KUMMER_CELLS))
def test_compact_spectrum_kummer_oracle(cell):
    params, bc = _KUMMER_CELLS[cell]
    op = RadialGLZOperator(*params)
    values = compact_spectrum(op, 2.0, bc, count=4, N=150).values()
    assert _kummer_error(op, bc, values) < 1e-9


def test_kummer_oracle_controls():
    # the n1-dirichlet cell against the k + 2 operator, and shifted by 1e-6 relative
    op = RadialGLZOperator(4, 1, 1, 0.7)
    values = compact_spectrum(op, 2.0, "dirichlet", count=4, N=150).values()
    assert _kummer_error(RadialGLZOperator(6, 1, 1, 0.7), "dirichlet", values) > 1e-9
    assert _kummer_error(op, "dirichlet", values * (1.0 + 1e-6)) > 1e-9


def test_compact_spectrum_alpha_positive():
    rec = compact_spectrum(RadialGLZOperator(4, 1, 1, 1.0), np.sqrt(40.0), "dirichlet", count=3, N=250)
    expect = [explicit_eigenvalue(1.0, r, 1, 4) for r in range(3)]
    assert np.abs(rec.values() - expect).max() < 1e-6


def test_fullspace_spectrum_matches_explicit():
    rec = fullspace_spectrum(RadialGLZOperator(2, 0, 0, 1.0), T=60.0, N=200, count=4)
    expect = [explicit_eigenvalue(1.0, r, 0, 2) for r in range(4)]
    assert np.abs(rec.values() - expect).max() < 1e-8


def _fullspace_error(T, N, count):
    """Worst error of the k = 8, n = 1 (a = 4) full-space values against
    the closed form, relative to max(1, |value|)."""
    op = RadialGLZOperator(8, 1, 1, 1.0)
    got = fullspace_spectrum(op, T=T, N=N, count=count).values()
    ref = np.array([explicit_eigenvalue(1.0, r, op.p, op.k) for r in range(count)])
    return np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref)))


# at T = 30 the truncation alone costs ~6e-6 from r = 2 on
@pytest.mark.parametrize("T, count", [(30.0, 2), (60.0, 5), (120.0, 5)])
@pytest.mark.parametrize("N", [100, 400])
def test_fullspace_rule_grows_with_T(T, count, N):
    assert _fullspace_error(T, N, count) < 1e-6


def test_fullspace_rule_without_T_term_fails(monkeypatch):
    # negative control: N + 8 points are exact for a polynomial weight, but
    # not for e^{-s} on [0, 60]; spurious values enter the spectrum
    basis = glz._galerkin_basis
    monkeypatch.setattr(glz, "_galerkin_basis", lambda N, nq: basis(N, N + 8))
    assert _fullspace_error(60.0, 400, 5) > 1e-3


@pytest.mark.parametrize("T", [float("nan"), float("inf"), 0.0, -1.0, 700.5, 1e300])
def test_fullspace_spectrum_refuses_bad_T(monkeypatch, T):
    def no_basis(N, nq):
        raise AssertionError("a basis was built")

    monkeypatch.setattr(glz, "_galerkin_basis", no_basis)
    with pytest.raises(ValueError, match="need 0 < T <= 700"):
        fullspace_spectrum(RadialGLZOperator(2, 0, 0, 1.0), T=T, N=40, count=2)


def test_fullspace_spectrum_at_T_max():
    rec = fullspace_spectrum(RadialGLZOperator(2, 0, 0, 1.0), T=glz._T_MAX, N=100, count=2)
    assert np.abs(rec.values() - [-6.0, -10.0]).max() < 1e-8


@pytest.mark.parametrize("R", [float("nan"), float("inf"), 0.0, -1.0])
def test_compact_spectrum_refuses_bad_radius(R):
    with pytest.raises(ValueError, match="need finite R > 0"):
        compact_spectrum(RadialGLZOperator(2, 0, 0, 1.0), R, count=2, N=40)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # N = 0 gave [nan] with a warning
@pytest.mark.parametrize("solve", ["compact", "fullspace"])
@pytest.mark.parametrize("N", [0, -3, 2.0, 40.5, glz._N_MAX + 1, 10**12])
def test_spectra_refuse_bad_order_before_allocating(solve, N):
    op = RadialGLZOperator(2, 0, 0, 1.0)
    before = glz._galerkin_basis.cache_info()
    with pytest.raises(ValueError, match=f"need an integer N with 1 <= N <= {glz._N_MAX}"):
        if solve == "compact":
            compact_spectrum(op, 1.0, count=1, N=N)
        else:
            fullspace_spectrum(op, T=60.0, N=N, count=1)
    assert glz._galerkin_basis.cache_info() == before


def test_spectra_accept_the_order_limits():
    op = RadialGLZOperator(2, 0, 0, 1.0)
    assert compact_spectrum(op, 1.0, count=1, N=np.int64(1)).values().shape == (1,)
    assert glz._N_MAX >= 800  # the largest N a caller uses


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("R", [1e200, np.float64(1e200), 1e150])
def test_compact_spectrum_overflow_raises(R):
    # R^2 overflows (a Python or a numpy float), or a weight of the pencil does
    with pytest.raises(ArithmeticError):
        compact_spectrum(RadialGLZOperator(2, 0, 0, 1.0), R, count=2, N=40)


@pytest.mark.parametrize("A, B", [(0, 0), (0.0, -0.0), (float("nan"), 1.0), (1.0, float("inf"))])
def test_compact_spectrum_refuses_bad_robin(A, B):
    with pytest.raises(ValueError, match="Robin A and B must be finite and not both 0"):
        compact_spectrum(RadialGLZOperator(2, 0, 0, 1.0), 2.0, ("robin", A, B), count=2, N=40)


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
    # mu is one constant per stratum; a function of t is refused
    with pytest.raises(TypeError):
        RadialGLZOperator(2, 0, 0, lambda t: 1.0 + 0.1 * t)


def test_fullspace_spectrum_refuses_mu_zero():
    with pytest.raises(ValueError, match="no L\\^2 eigenvalues"):
        fullspace_spectrum(RadialGLZOperator(2, 0, 0, 0.0), N=40, count=2)


def test_import_loads_no_scipy_integrate():
    # nilspec.glz imports no scipy.integrate; nilspec.harmonics (quad) shows
    # that the probe sees the module when it is loaded
    probe = ("import sys, nilspec.glz; print('scipy.integrate' in sys.modules); "
             "import nilspec.harmonics; print('scipy.integrate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(Path(glz.__file__).parents[1])}).stdout
    assert out.split() == ["False", "True"]


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


def _gauss_remainder(n):
    """Exact error of the n-point Gauss-Legendre rule on x^(2n):
    2^(2n+1) (n!)^4 / ((2n+1) ((2n)!)^2)."""
    return float(Fraction(2 ** (2 * n + 1) * factorial(n) ** 4, (2 * n + 1) * factorial(2 * n) ** 2))


@pytest.mark.parametrize("nq", [1, 5, 9, 16, 108, 808])
def test_gauss_rule_exact_to_degree_2nq_minus_1(nq):
    _, xq, wq, _, _ = _galerkin_basis(4, nq)
    for j in range(2 * nq):
        exact = 2.0 / (j + 1) if j % 2 == 0 else 0.0
        assert abs(wq @ xq**j - exact) < 1e-13, j
    # control: degree 2 nq is the first the rule misses, by the Gauss
    # remainder (below rounding once nq > 16)
    if nq <= 16:
        miss = 2.0 / (2 * nq + 1) - wq @ xq ** (2 * nq)
        assert abs(miss - _gauss_remainder(nq)) < 1e-6 * _gauss_remainder(nq)


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
    N, nq = 40, 48
    first = _galerkin_basis(N, nq)
    again = _galerkin_basis(N, nq)
    assert all(a is b for a, b in zip(first, again))
    assert _galerkin_basis(N, nq + 1)[1] is not first[1]
    x, xq, wq, Et, Gt = first
    for arr in first:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0
    assert len(x) == N + 1 and len(xq) == len(wq) == nq
    for arr in (Et, Gt):
        assert arr.flags.c_contiguous and arr.shape == (N + 1, nq)
    assert abs(wq.sum() - 2.0) < 1e-14


def _gram_error(Xt, c):
    """Worst relative error of _gram against the dense lower triangle."""
    dense = np.tril(Xt @ np.diag(c) @ Xt.T)
    got = _gram(Xt, c)
    return np.abs(got - dense).max() / np.abs(dense).max()


def test_gram_matches_dense_lower_triangle():
    rng = np.random.default_rng(16)
    Xt = rng.standard_normal((9, 31))
    c = np.abs(rng.standard_normal(31))
    assert _gram_error(Xt, c) < 1e-13
    assert not np.triu(_gram(Xt, c), 1).any()


@pytest.mark.parametrize("bad", [-1e-300, -1.0, float("nan")])
def test_gram_refuses_negative_weight(bad):
    rng = np.random.default_rng(16)
    Xt = rng.standard_normal((9, 31))
    c = np.abs(rng.standard_normal(31))
    c[7] = bad
    with pytest.raises(ValueError, match="Gram weights must be >= 0"):
        _gram(Xt, c)


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


def _dense_pencil(op, R, bc, N, shift=True):
    """The compact pencil (A, B) by dense products on the untransposed basis,
    on the (N + 8)-point Gauss-Legendre rule.  V = c0 + mu^2 t goes into A
    without its constant c0 = V(0) when `shift` (compact_spectrum subtracts
    c0 from the eigenvalues instead), and whole otherwise."""
    x, D = chebyshev_diff(N)
    xq, wq = np.polynomial.legendre.leggauss(N + 8)
    E = _barycentric_interp(x, xq)
    G0 = E @ D
    a = op.k // 2 + op.n - 1
    half = R**2 / 2.0
    tq = (xq + 1.0) * half
    cw = wq * half
    P = 4.0 * tq ** (a + 1)
    V = np.array([-op.coeffs(t)[2] for t in tq])
    if shift:
        V -= -op.coeffs(0.0)[2]  # c0 = V(0)
    first = 1 if bc == "dirichlet" else 0
    E, G0 = E[:, first:], G0[:, first:]
    wf = cw * tq**a
    A = -(G0.T * (cw * P / half**2)) @ G0 - (E.T * (wf * V)) @ E
    if isinstance(bc, tuple):
        A[0, 0] -= (bc[2] / bc[1]) * 4.0 * R ** (2 * a + 2)
    B = (E.T * wf) @ E
    d = 1.0 / np.sqrt(np.diag(B))
    return A * np.outer(d, d), B * np.outer(d, d)


def _jacobi_mass(op, R, bc, N, points):
    """The Jacobi-scaled mass matrix on the Gauss-Jacobi rule of the weight
    (1 + x)^a, int_0^{R^2} t^a l_i l_j dt = (R^2 / 2)^(a + 1) int (1 + x)^a
    l_i l_j dx: an independent rule, exact for it from N + 1 points on."""
    from scipy.special import roots_jacobi

    a = op.k // 2 + op.n - 1
    xj, wj = roots_jacobi(points, 0.0, a)
    E = _barycentric_interp(chebyshev_nodes(N), xj)[:, (1 if bc == "dirichlet" else 0):]
    B = (E.T * (wj * (R**2 / 2.0) ** (a + 1))) @ E
    d = 1.0 / np.sqrt(np.diag(B))
    return B * np.outer(d, d)


@pytest.mark.parametrize("mu", [0.0, 0.7])
@pytest.mark.parametrize("bc", ["dirichlet", "neumann", ("robin", 0.6, 0.8)])
def test_compact_pencil_matches_dense_formula(monkeypatch, mu, bc):
    N, R = 40, 1.7
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
    # B has unit diagonal; the two rules agree to rounding, and an N-point
    # Jacobi rule (exact to degree 2N - 1 only) is the control
    assert np.abs(B - np.tril(_jacobi_mass(op, R, bc, N, N + 2))).max() < 1e-12
    assert np.abs(B - np.tril(_jacobi_mass(op, R, bc, N, N))).max() > 1e-3


@pytest.mark.parametrize("bc", ["dirichlet", "neumann", ("robin", 0.6, 0.8)])
def test_compact_shift_matches_potential_in_pencil(bc):
    import scipy.linalg

    # m < 0 and mu > 0: the constant c0 = 2 m mu + 4 mu^2 = -0.84 is not 0
    op = RadialGLZOperator(4, 2, -2, 0.7)
    N, R, count = 40, 1.7, 4
    A, B = _dense_pencil(op, R, bc, N, shift=False)
    ref = np.sort(scipy.linalg.eigh(A, B, eigvals_only=True))[::-1][:count]
    got = compact_spectrum(op, R, bc, count=count, N=N).values()

    def error(values):
        return np.max(np.abs(values - ref) / np.maximum(1.0, np.abs(ref)))

    assert error(got) < 1e-10
    # negative control: the values without the shift
    assert error(got + (2.0 * op.m * op.mu + 4.0 * op.mu**2)) > 1e-3


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
    # a k = 16 stratum (a = 7): its scaled mass matrix is numerically singular
    with pytest.raises(RuntimeError, match="scaled mass matrix condition"):
        compact_spectrum(RadialGLZOperator(16, 0, 0, 1.0), 4.0, "dirichlet", count=5, N=100)


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


@pytest.mark.parametrize("l,s", [(2, 0), (3, 1), (4, 2), (5, 3)])
def test_zball_dirichlet_mpmath_oracle(l, s):
    R = 1.7
    lam = zball_eigenvalues(l, s, R, "dirichlet", count=4)
    for i, v in enumerate(lam, start=1):
        ref = float((mpmath.besseljzero(mpmath.mpf(s) + mpmath.mpf(l) / 2 - 1, i) / R) ** 2)
        assert abs(v - ref) < 1e-12
