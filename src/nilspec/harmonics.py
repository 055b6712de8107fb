"""Solid harmonics: the sparse polynomial type `Polynomial` (extended to
(X, K) by `twisted.XKPolynomial`), projections and graded decompositions of
homogeneous polynomials, the Hankel transform, and the spherical mean value
identity.
"""

from itertools import combinations_with_replacement

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma, jv

from .quadrature import (
    gauss_legendre,
    orthcomplement_basis,
    sphere_area,
    sphere_rule,
    zonal_eigenfunction,
)

__all__ = [
    "Polynomial",
    "HomogeneousPolynomial",
    "harmonic_projection",
    "harmonic_decomposition",
    "projection_coefficients",
    "HankelSpec",
    "hankel_transform",
    "hankel_transform_slice",
    "fourier_quadrature",
    "spherical_mean",
]


class Polynomial:
    """Sparse polynomial on `nvars` variables as a {exponent tuple: coeff} map.

    The Laplacian, the |x|^2-multiply and the harmonic projection act on the
    first `harmonic` variables; further variables (the K-block of an
    XKPolynomial) ride along as parameters.  Every result is rebuilt by
    `_like`, which subclasses override to keep their own bookkeeping; the
    ladder and the projection run on bare maps, with no object per step.
    """

    degree = 0  # total degree; tracked by HomogeneousPolynomial

    def __init__(self, nvars, harmonic, coeffs=None):
        self.nvars = int(nvars)
        self.harmonic = int(harmonic)
        self.coeffs = {} if coeffs is None else coeffs

    def _like(self, coeffs, degree_shift=0):
        """A polynomial of this one's kind holding `coeffs`, of degree
        raised by `degree_shift`."""
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__, coeffs=coeffs)
        return out

    @staticmethod
    def _sum(a, b):
        out = dict(a)
        for expo, c in b.items():
            out[expo] = out.get(expo, 0.0) + c
        return out

    def __add__(self, other):
        return self._like(self._sum(self.coeffs, other.coeffs))

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, scalar):
        return self._like({e: scalar * c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.__rmul__(other)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                expo = tuple(x + y for x, y in zip(e1, e2))
                out[expo] = out.get(expo, 0.0) + c1 * c2
        return self._like(out, other.degree)

    def power(self, m):
        out = self._like({(0,) * self.nvars: 1.0}, -self.degree)
        for _ in range(m):
            out = out * self
        return out

    def diff(self, i):
        """Derivative in variable i."""
        out = {}
        for expo, c in self.coeffs.items():
            if expo[i]:
                key = expo[:i] + (expo[i] - 1,) + expo[i + 1 :]
                out[key] = out.get(key, 0.0) + c * expo[i]
        return self._like(out, -1)

    def _laplacian_map(self, coeffs):
        out = {}
        for expo, c in coeffs.items():
            for i in range(self.harmonic):
                e = expo[i]
                if e >= 2:
                    key = expo[:i] + (e - 2,) + expo[i + 1 :]
                    out[key] = out.get(key, 0.0) + c * e * (e - 1)
        return out

    def laplacian(self):
        return self._like(self._laplacian_map(self.coeffs), -2)

    def _times_r2_map(self, coeffs):
        out = {}
        for expo, c in coeffs.items():
            for i in range(self.harmonic):
                key = expo[:i] + (expo[i] + 2,) + expo[i + 1 :]
                out[key] = out.get(key, 0.0) + c
        return out

    def __call__(self, points):
        """Values at the rows of `points` (one column per variable)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(len(points), dtype=complex)
        for expo, c in self.coeffs.items():
            term = np.ones(len(points))
            for i, e in enumerate(expo):
                if e:
                    term = term * points[:, i] ** e
            out += c * term
        return out

    def _ladder(self):
        """Maps of [P, Delta P, Delta^2 P, ...] up to the last nonzero term."""
        ladder = [self.coeffs]
        while True:
            lap = self._laplacian_map(ladder[-1])
            if not any(lap.values()):
                return ladder
            ladder.append(lap)

    def _project(self, degree, ladder=None):
        """Map of the harmonic projection sum_s c_s |x|^{2s} Delta^s P of P,
        homogeneous of `degree` in the harmonic variables, from P's Laplacian
        ladder (this polynomial's when none is given); |x|^2 is applied in
        Horner form."""
        ladder = ladder or self._ladder()
        cs = projection_coefficients(self.harmonic, degree)
        out = {}
        for s in reversed(range(len(ladder))):
            out = self._sum({e: cs[s] * c for e, c in ladder[s].items()}, self._times_r2_map(out))
        return out


class HomogeneousPolynomial(Polynomial):
    """Homogeneous polynomial over R^d as a sparse monomial -> coefficient map."""

    def __init__(self, dimension, degree, coeffs=None):
        super().__init__(dimension, dimension)
        self.dimension = int(dimension)
        self.degree = int(degree)
        if coeffs:
            for expo, c in coeffs.items():
                if len(expo) != self.dimension or sum(expo) != self.degree:
                    raise ValueError(f"monomial {expo} is not degree {degree} in d={dimension}")
                if c != 0:
                    self.coeffs[tuple(expo)] = complex(c)

    def _like(self, coeffs, degree_shift=0):
        return HomogeneousPolynomial(self.dimension, max(self.degree + degree_shift, 0), coeffs)

    @classmethod
    def linear_form(cls, W):
        d = len(W)
        return cls(d, 1, {(0,) * i + (1,) + (0,) * (d - i - 1): w for i, w in enumerate(W) if w != 0})

    @classmethod
    def radius_squared(cls, d):
        return cls(d, 2, {(0,) * i + (2,) + (0,) * (d - i - 1): 1.0 for i in range(d)})

    @classmethod
    def random(cls, d, n, rng, complex_coeffs=False):
        coeffs = {}
        for combo in combinations_with_replacement(range(d), n):
            expo = tuple(combo.count(i) for i in range(d))
            c = rng.standard_normal()
            if complex_coeffs:
                c = c + 1j * rng.standard_normal()
            coeffs[expo] = c
        return cls(d, n, coeffs)

    def max_coeff(self):
        if not self.coeffs:
            return 0.0
        return max(abs(c) for c in self.coeffs.values())


def projection_coefficients(d, n):
    """Coefficients c_s of Pi = sum_s c_s |x|^{2s} Delta^s on degree n, dim d.

    Solved from the harmonicity condition, which collapses to the
    triangular recursion c_{s+1} = -c_s / (2(s+1)(2n - 2s + d - 4)).
    """
    if d < 2:
        raise ValueError("need dimension >= 2")
    cs = [1.0]
    for s in range(n // 2):
        cs.append(-cs[-1] / (2.0 * (s + 1) * (2 * n - 2 * s + d - 4)))
    return cs


def harmonic_projection(P):
    """Harmonic component of a homogeneous polynomial.

    Pi(P) = sum_s c_s |x|^{2s} Delta^s P is harmonic and differs from P by
    a multiple of |x|^2; harmonic inputs are returned unchanged.
    """
    return P._like(P._project(P.degree))


def harmonic_decomposition(P):
    """Graded decomposition P = sum_i |x|^{2i} H_{n-2i} with H harmonic.

    Read off the Laplacian ladder: Delta(|x|^{2t} H_m) =
    2t(2m + 2t + d - 2) |x|^{2t-2} H_m, so the harmonic part of Delta^i P
    is H_{n-2i} times prod_{t=1..i} 2t(2(n-2i) + 2t + d - 2).  Returns the
    list of (i, H_{n-2i}) with nonzero parts.
    """
    d, n = P.dimension, P.degree
    ladder = P._ladder()
    out = []
    for i in range(len(ladder)):
        m = n - 2 * i
        norm = 1.0
        for t in range(1, i + 1):
            norm *= 2.0 * t * (2 * m + 2 * t + d - 2)
        coeffs = P._project(m, ladder[i:])
        H = HomogeneousPolynomial(d, m, {e: c / norm for e, c in coeffs.items()})
        if H.coeffs:  # the constructor drops exact zeros
            out.append((i, H))
    return out


# -- Hankel transform --------------------------------------------------------

HANKEL_TOL = 1e-10  # absolute tolerance of the Bessel-path quadrature
RADIAL_MAX = 12.0  # radial cutoff of the slice and polar rules (Gaussian-class profiles)
SLICE_NODES = 220  # Gauss-Legendre nodes per axis of the Fubini slice rule
POLAR_NODES = 160  # radial Gauss-Legendre nodes of the polar Fourier rule
SPHERE_ORDER = 24  # sphere-rule order of the polar Fourier rule and the spherical mean


class HankelSpec:
    """Transform order data: ambient dimension l >= 2 and harmonic order nu."""

    def __init__(self, l, nu):
        if l < 2 or nu < 0:
            raise ValueError("need l >= 2 and nu >= 0")
        self.l = int(l)
        self.nu = int(nu)


def _require_converged(err, erri):
    """Raise when either part of a Hankel quadrature missed its error bound."""
    if max(err, erri) > 1e-6:
        raise RuntimeError(f"hankel quadrature did not converge (error {max(err, erri):.2e})")


def hankel_transform(spec, r, radial):
    """H^(l)_nu of a radial profile, Bessel-kernel path.

    Defined so the l-dimensional Fourier transform (kernel e^{i<Z,K>}) of
    radial(|K|) F(theta_K), F a degree-nu spherical harmonic, equals
    H^(l)_nu(radial)(|Z|) F(theta_Z):

        H(r) = (2 pi)^{l/2} i^nu r^{1-l/2}
               * integral_0^inf radial(k) J_{nu+l/2-1}(k r) k^{l/2} dk.

    The profile must decay fast enough for absolute convergence
    (Gaussian-class).
    """
    l, nu = spec.l, spec.nu
    order = nu + l / 2.0 - 1.0
    if r < 0:
        raise ValueError("radius must be >= 0")
    if r == 0.0:
        if nu > 0:
            return 0.0
        val, err = quad(lambda k: np.real(radial(k)) * k ** (l - 1), 0, np.inf, epsabs=HANKEL_TOL)
        vali, erri = quad(lambda k: np.imag(radial(k)) * k ** (l - 1), 0, np.inf, epsabs=HANKEL_TOL)
        _require_converged(err, erri)
        const = (2.0 * np.pi) ** (l / 2.0) / (2.0 ** (l / 2.0 - 1.0) * gamma(l / 2.0))
        return const * (val + 1j * vali)

    def kernel_re(k):
        return np.real(radial(k)) * jv(order, k * r) * k ** (l / 2.0)

    def kernel_im(k):
        return np.imag(radial(k)) * jv(order, k * r) * k ** (l / 2.0)

    val, err = quad(kernel_re, 0, np.inf, epsabs=HANKEL_TOL, limit=400)
    vali, erri = quad(kernel_im, 0, np.inf, epsabs=HANKEL_TOL, limit=400)
    _require_converged(err, erri)
    front = (2.0 * np.pi) ** (l / 2.0) * (1j**nu) * r ** (1.0 - l / 2.0)
    return front * (val + 1j * vali)


def hankel_transform_slice(spec, r, radial):
    """H^(l)_nu by the Fubini slicing through hyperplanes meeting the Z-axis.

    For each axis position t the hyperplane integral is folded with the
    mean value identity, leaving the zonal eigenfunction at the polar
    angle rho = atan2(tau, t); the radial profile is evaluated at the
    Euclidean radius sqrt(t^2 + tau^2) of the slice point.  Cross-checks
    the Bessel path.
    """
    l, nu = spec.l, spec.nu
    t, wt = gauss_legendre(SLICE_NODES, 0.0, RADIAL_MAX)
    tau, wtau = gauss_legendre(SLICE_NODES, 0.0, RADIAL_MAX)
    T, TAU = np.meshgrid(t, tau, indexing="ij")
    W = np.outer(wt, wtau)
    rho = np.arctan2(TAU, T)
    vals = radial(np.sqrt(T**2 + TAU**2)) * zonal_eigenfunction(l, nu, rho) * TAU ** (l - 2)
    phase = np.exp(1j * r * T) + (-1.0) ** nu * np.exp(-1j * r * T)
    omega = sphere_area(l - 1)
    return omega * np.sum(W * vals * phase)


def fourier_quadrature(l, func, Z):
    """Direct l-dimensional Fourier integral of func(K) at Z, in polar form.

    Oracle for the Hankel paths: integral of e^{i<Z,K>} func(K) dK with a
    Gauss-Legendre radial rule times a sphere rule.
    """
    Z = np.asarray(Z, dtype=float)
    nodes, weights = sphere_rule(l, SPHERE_ORDER)
    k, wk = gauss_legendre(POLAR_NODES, 0.0, RADIAL_MAX)
    total = 0.0 + 0.0j
    for ki, wi in zip(k, wk):
        pts = ki * nodes
        total += wi * ki ** (l - 1) * np.sum(weights * func(pts) * np.exp(1j * pts @ Z))
    return total


def spherical_mean(l, F, theta, rho):
    """Average of F over the sphere of spherical radius rho around theta.

    For a degree-nu spherical harmonic this equals F(theta) times the
    zonal eigenfunction at rho (mean value identity).
    """
    theta = np.asarray(theta, dtype=float)
    theta = theta / np.linalg.norm(theta)
    if rho < 0 or rho > np.pi:
        raise ValueError("rho must lie in [0, pi]")
    if rho == 0.0:
        return complex(np.asarray(F(theta[None, :]))[0])
    basis = orthcomplement_basis(theta)
    sub_nodes, sub_weights = sphere_rule(l - 1, SPHERE_ORDER)
    pts = np.cos(rho) * theta[None, :] + np.sin(rho) * (sub_nodes @ basis)
    vals = np.asarray(F(pts))
    return complex((sub_weights @ vals) / sub_weights.sum())
