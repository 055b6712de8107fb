"""The radial Ginsburg-Landau-Zeeman operator and its spectra.

Explicit Laguerre spectrum on the full X-space, discretized
Dirichlet/Neumann/Robin spectra on X-balls (Galerkin over the Lagrange
basis of a Chebyshev grid, integrated by Gauss-Legendre), and Z-ball
Bessel eigenvalues.  Every stratum has one constant reduction
constant mu >= 0.
"""

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.optimize import brentq
from scipy.special import jv, roots_genlaguerre

__all__ = [
    "RadialGLZOperator",
    "SpectrumRecord",
    "explicit_eigenvalue",
    "laguerre_eigenfunction",
    "laguerre_operator_apply",
    "scaled_eigenfunction",
    "compact_spectrum",
    "compact_upper_bound",
    "fullspace_spectrum",
    "zball_eigenvalues",
    "exterior_operator_eigenvalue",
    "chebyshev_nodes",
    "chebyshev_diff",
    "laguerre_orthogonality_residual",
]


class RadialGLZOperator:
    """Reduced radial operator 4t f'' + (2k+4n) f' - (2m mu + 4 mu^2 (1+t/4)) f.

    k is the X-space dimension, n the X-harmonic order, m the magnetic
    quantum number (m = 2p - n), mu >= 0 the reduction constant: pi |Z_gamma|
    on a Z-torus, sqrt(lambda_i)/2 on a Z-ball.  t is the squared X-radius.
    """

    def __init__(self, k, n, m, mu):
        if k < 2 or k % 2:
            raise ValueError("k must be even and >= 2")
        if n < 0 or abs(m) > n or (m + n) % 2:
            raise ValueError("need n >= 0, |m| <= n, m = 2p - n for integer p")
        self.k = int(k)
        self.n = int(n)
        self.m = int(m)
        self.mu = float(mu)
        if not (np.isfinite(self.mu) and self.mu >= 0):
            raise ValueError(f"mu must be finite and >= 0, got {mu!r}")

    @property
    def p(self):
        return (self.m + self.n) // 2

    def coeffs(self, t):
        """(a2, a1, a0) with op(f) = a2 f'' + a1 f' + a0 f at t."""
        mu = self.mu
        return 4.0 * t, 2.0 * self.k + 4.0 * self.n, -(2.0 * self.m * mu + 4.0 * mu**2 * (1.0 + 0.25 * t))

    def to_json_dict(self):
        return {"k": self.k, "n": self.n, "m": self.m, "mu": self.mu}


def explicit_eigenvalue(mu, r, p, k):
    """Full-space eigenvalue -( (4r + 4p + k) mu + 4 mu^2 )."""
    return -((4.0 * r + 4.0 * p + k) * mu + 4.0 * mu**2)


def laguerre_eigenfunction(r, n, k):
    """Monic degree-r polynomial u with Lambda_{k/2+n-1}(u) = -r u.

    Coefficients are exact rationals from the triangular solve of the
    Laguerre identity; equals (-1)^r r! L_r^{(alpha)} with
    alpha = k/2 + n - 1.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    if k % 2:
        raise ValueError("k must be even")
    alpha = Fraction(k, 2) + n - 1
    coeff = [Fraction(0)] * (r + 1)
    coeff[r] = Fraction(1)
    for i in range(r - 1, -1, -1):
        coeff[i] = -coeff[i + 1] * (i + 1) * (alpha + i + 1) / (r - i)
    return coeff


def laguerre_operator_apply(coeff, alpha):
    """Lambda_alpha(u) = t u'' + (alpha + 1 - t) u' for polynomial coefficients.

    coeff[i] multiplies t^i; returns the coefficient list of the image, in
    exact rationals for rational input.
    """
    out = [Fraction(0)] * len(coeff)
    for i, c in enumerate(coeff):
        if i >= 1:
            # t * i(i-1) t^{i-2} + (alpha+1) i t^{i-1}
            out[i - 1] += c * i * (i - 1) + c * (alpha + 1) * i
        out[i] += -c * i
    return out


class ScaledEigenfunction:
    """f(t) = u(mu t) e^{-mu t / 2} with exact derivative closures."""

    def __init__(self, mu, r, n, k):
        self.mu = float(mu)
        self.r, self.n, self.k = r, n, k
        self.u = np.array([float(c) for c in laguerre_eigenfunction(r, n, k)])
        self.du = np.polynomial.polynomial.polyder(self.u) if r >= 1 else np.zeros(1)
        self.d2u = np.polynomial.polynomial.polyder(self.u, 2) if r >= 2 else np.zeros(1)

    def _parts(self, t):
        s = self.mu * np.asarray(t, dtype=float)
        pol = np.polynomial.polynomial.polyval
        return pol(s, self.u), pol(s, self.du), pol(s, self.d2u), np.exp(-s / 2.0)

    def __call__(self, t):
        u, _, _, e = self._parts(t)
        return u * e

    def derivative(self, t):
        u, du, _, e = self._parts(t)
        return self.mu * (du - 0.5 * u) * e

    def second_derivative(self, t):
        u, du, d2u, e = self._parts(t)
        return self.mu**2 * (d2u - du + 0.25 * u) * e


def scaled_eigenfunction(mu, r, n, k):
    """Radial eigenfunction u(mu t) e^{-mu t/2} for the order-n stratum.

    For any operator (k, n, m, mu) with p = (m + n)/2 the operator maps f
    to explicit_eigenvalue(mu, r, p, k) * f pointwise.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    return ScaledEigenfunction(mu, r, n, k)


# -- Galerkin discretization on [0, R^2] -------------------------------------


def chebyshev_nodes(N):
    """Gauss-Lobatto nodes on [-1, 1], descending from 1 to -1."""
    return np.cos(np.pi * np.arange(N + 1) / N)


def chebyshev_diff(N):
    """First-order Chebyshev differentiation matrix on the Lobatto nodes."""
    x = chebyshev_nodes(N)
    c = np.ones(N + 1)
    c[0] = c[N] = 2.0
    c = c * (-1.0) ** np.arange(N + 1)
    X = np.tile(x, (N + 1, 1)).T
    dX = X - X.T
    D = np.outer(c, 1.0 / c) / (dX + np.eye(N + 1))
    D -= np.diag(D.sum(axis=1))
    return x, D


def _barycentric_interp(x_from, x_to):
    """Interpolation matrix from Chebyshev-Lobatto nodes to arbitrary points.

    A target within 1e-14 of a node gets the identity row of that node.
    """
    n = len(x_from) - 1
    wts = (-1.0) ** np.arange(n + 1)
    wts[0] *= 0.5
    wts[-1] *= 0.5
    diff = np.subtract.outer(np.asarray(x_to, dtype=float), x_from)
    hit = np.abs(diff) < 1e-14
    diff[hit] = 1.0
    M = wts / diff
    M /= M.sum(axis=1, keepdims=True)
    exact = hit.any(axis=1)
    M[exact] = 0.0
    M[exact, hit[exact].argmax(axis=1)] = 1.0
    return M


# bases kept at once: a radial sweep uses a few grid sizes, two rules each
_BASIS_CACHE_SIZE = 8


@functools.lru_cache(maxsize=_BASIS_CACHE_SIZE)
def _galerkin_basis(N, nq):
    """Read-only arrays of the order-N Galerkin basis on [-1, 1].

    Returns (x, xq, wq, Et, Gt): the Lobatto nodes, the nq-point
    Gauss-Legendre nodes and weights (Golub & Welsch 1969; exact for
    polynomials of degree 2 nq - 1), and the node functions and their
    derivatives at xq, one C-contiguous row per node function: Et is the
    transposed interpolation matrix from x to xq and Gt = D^T Et.  Both
    rules map affinely, so one basis serves every domain.
    """
    x, D = chebyshev_diff(N)
    xq, wq = np.polynomial.legendre.leggauss(nq)
    # interpolate in ascending order, then store one row per node function
    Et = np.ascontiguousarray(_barycentric_interp(x[::-1], xq)[:, ::-1].T)
    Gt = D.T @ Et
    for arr in (x, xq, wq, Et, Gt):
        arr.flags.writeable = False
    return x, xq, wq, Et, Gt


def _gram(Xt, c):
    """Lower triangle of Xt diag(c) Xt^T (upper triangle zero), by one dsyrk.

    The weights must be >= 0: the rows are scaled by sqrt(c).
    """
    from scipy.linalg.blas import dsyrk

    if not (c >= 0).all():
        raise ValueError("Gram weights must be >= 0")
    # Y.T is Fortran-ordered, so f2py hands it to BLAS without a copy
    Y = Xt * np.sqrt(c)
    return dsyrk(1.0, Y.T, trans=1, lower=1)


# absolute bisection tolerance of dstebz: 2 * safmin makes each eigenvalue
# converge to high relative accuracy (Kahan 1966), which the graded
# tridiagonal of a Jacobi-scaled radial pencil needs near zero; abstol = 0
# means eps * ||T|| instead and costs ~1e-6 at N = 800
_BISECTION_ABSTOL = 2.0 * np.finfo(float).tiny


def _top_eigenvalues(A, B, count):
    """The min(count, n) largest eigenvalues of the pencil (A, B), descending.

    Reads the lower triangles of A and B (B positive definite); A is
    overwritten, B is kept.  Cholesky B = L L^T, reduction to the standard
    problem L^-1 A L^-T, blocked tridiagonal reduction, then bisection for
    the wanted eigenvalues only (Parlett, The Symmetric Eigenvalue Problem,
    ch. 15).
    """
    from scipy.linalg import lapack

    n = A.shape[0]
    k = min(count, n)
    L, info = lapack.dpotrf(B, lower=1)
    if info > 0:
        cond = np.linalg.cond(B + np.tril(B, -1).T)
        raise RuntimeError(f"radial eigensolve failed; scaled mass matrix condition {cond:.3e}")
    _check_lapack("dpotrf", info)
    C, info = lapack.dsygst(A, L, itype=1, lower=1, overwrite_a=1)
    _check_lapack("dsygst", info)
    lwork, info = lapack.dsytrd_lwork(n, lower=1)
    _check_lapack("dsytrd_lwork", info)
    _, d, e, _, info = lapack.dsytrd(C, lower=1, lwork=int(lwork), overwrite_a=1)
    _check_lapack("dsytrd", info)
    if n == 1:  # scipy's dstebz wrapper rejects the empty off-diagonal
        return d
    m, w, _, _, info = lapack.dstebz(d, e, 2, 0.0, 0.0, n - k + 1, n, _BISECTION_ABSTOL, "E")
    _check_lapack("dstebz", info)
    return w[:m][::-1]


def _check_lapack(name, info):
    if info != 0:
        raise RuntimeError(f"radial eigensolve failed; LAPACK {name} info {info}")


def _weighted_radial_eig(N, nq, P_fun, w_fun, count, domain, V_fun=None, boundary=None, first=0):
    """Eigenvalues of (1/w)(P f')' - V f by the symmetric Galerkin form.

    The Lagrange node basis of the order-N Chebyshev grid on `domain`
    (descending nodes) is integrated on the nq-point Gauss-Legendre rule of
    `_galerkin_basis`: A = -G^T diag(cw P) G - E^T diag(cw w V) E
    (+ boundary term), B = E^T diag(cw w) E, with E = Et^T and G = Gt^T
    mapped to the domain; V_fun = None means V = 0.  P, w and w V must be
    >= 0.  Only the lower triangles of A and B are formed, each product by
    `_gram`.  Node functions before `first` are dropped (Dirichlet at the
    right end, or discarded ones); `boundary` = (j, coeff) adds coeff to
    A[j, j] in the kept numbering.  Returns the `count` largest eigenvalues,
    descending (fewer when the kept basis is smaller), by `_top_eigenvalues`.
    """
    _, xq, wq, Et, Gt = _galerkin_basis(N, nq)
    a, b = domain
    half = (b - a) / 2.0
    tq = (xq + 1.0) * half + a
    cw = wq * half
    Et = Et[first:]
    with np.errstate(over="raise"):  # an overflowing weight raises, not inf in the pencil
        wf = cw * w_fun(tq)
        # G = Gt^T / half: the chain-rule factor goes into the stiffness weights
        pf = cw * P_fun(tq) / half**2
        vf = None if V_fun is None else wf * V_fun(tq)
    A = _gram(Gt[first:], pf)
    if vf is not None:
        A += _gram(Et, vf)
    np.negative(A, out=A)
    if boundary is not None:
        j, coeff = boundary
        A[j, j] += coeff
    B = _gram(Et, wf)
    # Jacobi scaling of the pencil: keeps the Cholesky of B robust when the
    # weight spans many orders of magnitude
    d = 1.0 / np.sqrt(np.diag(B))
    for M in (A, B):
        M *= d[:, None]
        M *= d
    return _top_eigenvalues(A, B, count)


def _require_count(vals, count, N):
    """Raise when the grid gave fewer than `count` eigenvalues."""
    if len(vals) < count:
        raise RuntimeError(f"only {len(vals)} of {count} eigenvalues at N={N}; increase N")


# Gauss points beyond N; the compact integrands have degree <= 2N + a + 1
_QUAD_EXTRA = 8
# largest full-space truncation T: e^{-T} stays a normal float
_T_MAX = 700.0
# largest grid order N (the largest any caller uses is 800): a solve holds
# O(N^2) doubles, the cached basis two (N + 1) x nq arrays and the pencil two
# (N + 1)^2 ones, about 0.14 GB at N = 2048 on a ball
_N_MAX = 2048


def _check_order(N):
    """Raise ValueError, before anything is allocated, unless N is an
    integer with 1 <= N <= _N_MAX."""
    if not (isinstance(N, (int, np.integer)) and 1 <= N <= _N_MAX):
        raise ValueError(f"need an integer N with 1 <= N <= {_N_MAX}, got {N!r}")


def compact_spectrum(op, R, bc="dirichlet", count=8, N=400):
    """Lowest eigenvalues of the radial operator on [0, R^2].

    Measure-weighted symmetrization on Chebyshev nodes: the operator is
    (1/w)(4 t^{a+1} f')' - V(t) f with weight w = t^a, a = k/2 + n - 1,
    discretized as a symmetric Galerkin pair over the Lagrange node basis
    on N + 8 Gauss-Legendre points, exact for a <= 14.  Of V = c0 + mu^2 t
    only mu^2 t is assembled; c0 = 2 m mu + 4 mu^2 is subtracted from the
    eigenvalues, exactly.  The condition at t = R^2 is Dirichlet (f = 0),
    Neumann (f' = 0, natural) or ("robin", A, B) for A f' + B f = 0, A and
    B finite and not both 0; t = 0 needs no condition (the weighted flux
    vanishes, selecting the regular branch).  Returns a SpectrumRecord
    ordered by closeness to zero (the sequence 0 >= nu_1 > nu_2 > ... ->
    -inf).  Raises ValueError unless 1 <= N <= _N_MAX, and RuntimeError
    when the grid has fewer than `count` eigenvalues.
    """
    if not (np.isfinite(R) and R > 0) or count < 1:
        raise ValueError("need finite R > 0 and count >= 1")
    _check_order(N)
    R2 = float(R) ** 2  # raises OverflowError, not inf, for a huge R
    alpha = op.k // 2 + op.n - 1

    def P_fun(tt):
        return 4.0 * tt ** (alpha + 1)

    def w_fun(tt):
        return tt**alpha

    mu2 = op.mu**2

    def V_fun(tt):
        return mu2 * tt

    boundary = None
    first = 0
    if isinstance(bc, (tuple, list)):
        kind, a_c, b_c = bc[0].lower(), float(bc[1]), float(bc[2])
        if kind != "robin":
            raise ValueError("tuple condition must be ('robin', A, B)")
        if not (np.isfinite(a_c) and np.isfinite(b_c)) or a_c == b_c == 0.0:
            raise ValueError(f"Robin A and B must be finite and not both 0, got {bc[1]!r}, {bc[2]!r}")
        norm = np.hypot(a_c, b_c)
        a_c, b_c = a_c / norm, b_c / norm
        if abs(a_c) < 1e-13:
            first = 1
        else:
            boundary = (0, -(b_c / a_c) * P_fun(R2))
        bc_name = f"robin({a_c:.6g},{b_c:.6g})"
    elif bc.lower() == "dirichlet":
        first = 1
        bc_name = "dirichlet"
    elif bc.lower() == "neumann":
        bc_name = "neumann"
    else:
        raise ValueError(f"unknown boundary condition {bc!r}")

    # node 0 is t = R^2; at mu = 0 there is no potential left to assemble
    eigs = _weighted_radial_eig(
        N, N + _QUAD_EXTRA, P_fun, w_fun, count, (0.0, R2),
        V_fun=V_fun if mu2 else None, boundary=boundary, first=first,
    )
    _require_count(eigs, count, N)
    c0 = 2.0 * op.m * op.mu + 4.0 * mu2
    return _record(op, eigs - c0, bc_name, {"R": float(R), "N": int(N)})


def compact_upper_bound(op, bc="dirichlet"):
    """Min-max upper bound -min V on every compact_spectrum eigenvalue.

    The Rayleigh quotient of the compact problem is
    (-int P f'^2 - int w V f^2 + boundary term) / int w f^2, and the
    boundary term is <= 0 for Dirichlet, Neumann and Robin A f' + B f = 0
    with A B >= 0, so every eigenvalue is <= -min V, and
    V(t) = 2 m mu + 4 mu^2 (1 + t/4) is smallest at t = 0 on any ball.
    Returns inf for Robin with A B < 0, where no such bound holds.
    """
    if isinstance(bc, (tuple, list)) and float(bc[1]) * float(bc[2]) < 0:
        return np.inf
    mu = op.mu
    return -(2.0 * op.m * mu + 4.0 * mu**2)


def fullspace_spectrum(op, T=60.0, N=400, count=8):
    """Lowest full-space (L^2) eigenvalues by the weighted Galerkin form on [0, T].

    Works in the scaled radial variable s = mu * x^2 (the variable of the
    operator's second displayed form): substituting f = e^{-s/2} g(s)
    leaves mu * [4 s g'' + (2k + 4n - 4s) g'] - ((4p + k) mu + 4 mu^2) g,
    self-adjoint in the weight s^a e^{-s}, a = k/2 + n - 1, discretized on
    [0, T] by the same measure-weighted symmetrization as the compact
    solver.  The L^2 eigenfunctions are polynomials, represented exactly
    on the Chebyshev grid; the truncation drops an e^{-T} tail uniformly
    in mu.  The Gauss-Legendre rule has N + 8 + ceil(T) points, since the
    weight factor e^{-s} = e^{-T (x + 1) / 2} is no polynomial and needs
    more points as T grows.  Raises ValueError unless 0 < T <= _T_MAX and
    1 <= N <= _N_MAX, and at mu = 0 (no L^2 eigenvalues); RuntimeError
    when fewer than `count` eigenvalues remain.
    """
    if not (np.isfinite(T) and 0.0 < T <= _T_MAX):
        raise ValueError(f"need 0 < T <= {_T_MAX:g}, got {T!r}")
    _check_order(N)
    mu = op.mu
    if mu == 0:
        raise ValueError("at mu = 0 the full-space operator has no L^2 eigenvalues")
    alpha = op.k // 2 + op.n - 1
    const = (4.0 * op.p + op.k) * mu + 4.0 * mu**2

    def P_fun(ss):
        return 4.0 * ss ** (alpha + 1) * np.exp(-ss)

    def w_fun(ss):
        return ss**alpha * np.exp(-ss)

    nq = N + _QUAD_EXTRA + math.ceil(T)
    # drop node functions in the region where the weight has decayed away
    # (the nodes descend from s = T, so they are a leading block); keeps the
    # mass matrix well conditioned, at an exponentially small cost
    x = _galerkin_basis(N, nq)[0]
    first = int(np.argmax((x + 1.0) * (T / 2.0) < 48.0))
    lam = _weighted_radial_eig(N, nq, P_fun, w_fun, count + 4, (0.0, T), first=first)
    # the scaled operator is negative semidefinite; spurious near-null-mass
    # modes of the truncated pencil land at positive values and are dropped
    lam = lam[lam < 1e-8][:count]
    _require_count(lam, count, N)
    return _record(op, mu * lam - const, "none", {"T": float(T), "N": int(N)})


def _record(op, eigs, bc, domain):
    """SpectrumRecord of the discretized eigenvalues of op, indexed by r."""
    entries = [
        {"value": float(v), "multiplicity": 1, "indices": {"r": i, "n": op.n, "m": op.m}}
        for i, v in enumerate(eigs)
    ]
    return SpectrumRecord(entries, bc, "discretized", op.to_json_dict(), domain)


# -- Z-ball Bessel eigenvalues ------------------------------------------------


_BRACKET_STEP = 0.05  # scan step of the root bracketing in zball_eigenvalues


def _bracketed_roots(fun, x_hi, count, x_lo=1e-6):
    roots = []
    prev_x, prev_v = x_lo, fun(x_lo)
    x = x_lo + _BRACKET_STEP
    while len(roots) < count and x < x_hi:
        v = fun(x)
        if np.isfinite(v) and np.isfinite(prev_v) and np.sign(v) != np.sign(prev_v):
            roots.append(brentq(fun, prev_x, x, xtol=1e-13, rtol=1e-14))
        prev_x, prev_v = x, v
        x += _BRACKET_STEP
    if len(roots) < count:
        raise RuntimeError(f"found only {len(roots)} roots below {x_hi}")
    return roots


def zball_eigenvalues(l, s, R, bc="dirichlet", count=5):
    """Dirichlet/Neumann eigenvalues of -Delta on the l-ball of radius R,
    order-s angular stratum.

    Radial parts are t^{1 - l/2} J_{s + l/2 - 1}(sqrt(lambda) t); Dirichlet
    eigenvalues come from Bessel zeros, Neumann ones from zeros of the
    radial derivative, with lambda = 0 prepended for s = 0 Neumann.
    """
    if l < 2 or s < 0 or R <= 0:
        raise ValueError("need l >= 2, s >= 0, R > 0")
    order = s + l / 2.0 - 1.0
    x_hi = (count + order / 2.0 + 2.0) * np.pi + 10.0

    if str(bc).lower() == "dirichlet":
        roots = _bracketed_roots(lambda x: jv(order, x), x_hi, count)
        return [(x / R) ** 2 for x in roots]
    if str(bc).lower() != "neumann":
        raise ValueError(f"unknown boundary condition {bc!r}")

    def neumann_fun(x):
        # d/dt [t^{1-l/2} J(sqrt(lambda) t)] = 0 at t=R, x = sqrt(lambda) R
        return (2.0 - l - s) * jv(order, x) + x * jv(order - 1.0, x)

    needed = count - 1 if s == 0 else count
    out = [0.0] if s == 0 else []
    if needed > 0:
        roots = _bracketed_roots(neumann_fun, x_hi, needed, x_lo=1e-4)
        out += [(x / R) ** 2 for x in roots]
    return out[:count]


def exterior_operator_eigenvalue(l, s, i, R, k, n, m, bc="dirichlet"):
    """RadialGLZOperator of the exterior (orbital) operator on a Z-ball bundle.

    The reduction constant is mu = sqrt(lambda_i^(s)) / 2 built from the
    i-th order-s eigenvalue of the Z-ball; the returned operator is the
    radial Ginsburg-Landau-Zeeman operator with that mu.
    """
    lam = zball_eigenvalues(l, s, R, bc=bc, count=i)[i - 1]
    return RadialGLZOperator(k=k, n=n, m=m, mu=np.sqrt(lam) / 2.0)


# -- spectrum records ---------------------------------------------------------


@dataclass
class SpectrumRecord:
    """Sorted eigenvalue list with multiplicities, indices and provenance."""

    eigenvalues: list
    bc: str
    provenance: str
    operator: dict = field(default_factory=dict)
    domain: dict = field(default_factory=dict)

    def values(self):
        return np.array([e["value"] for e in self.eigenvalues])


def laguerre_orthogonality_residual(r1, r2, n, k):
    """Quadrature check of int_0^inf u_r1 u_r2 t^{k/2+n-1} e^{-t} dt."""
    alpha = k / 2.0 + n - 1.0
    u1 = np.array([float(c) for c in laguerre_eigenfunction(r1, n, k)])
    u2 = np.array([float(c) for c in laguerre_eigenfunction(r2, n, k)])
    nodes, weights = roots_genlaguerre(r1 + r2 + 2, alpha)
    pol = np.polynomial.polynomial.polyval
    return float(np.sum(weights * pol(nodes, u1) * pol(nodes, u2)))
