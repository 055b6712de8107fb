"""Solid harmonics: the sparse polynomial engine (shared with `twisted`),
projections and graded decompositions of homogeneous polynomials, the
Hankel transform, and the spherical mean value identity.
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


def _monomials(d, n):
    out = []
    for combo in combinations_with_replacement(range(d), n):
        expo = [0] * d
        for i in combo:
            expo[i] += 1
        out.append(tuple(expo))
    return out


# -- sparse polynomial engine ------------------------------------------------
#
# A polynomial is a {exponent tuple: coeff} dict.  Derivatives, the
# Laplacian, the |x|^2-multiply and the harmonic projection act on the first
# `nvars` variables; further variables (the K-block of an XKPolynomial) ride
# along as parameters.


def poly_add(a, b):
    out = dict(a)
    for expo, c in b.items():
        out[expo] = out.get(expo, 0.0) + c
    return out


def poly_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            expo = tuple(x + y for x, y in zip(e1, e2))
            out[expo] = out.get(expo, 0.0) + c1 * c2
    return out


def poly_power(a, m, nvars):
    out = {(0,) * nvars: 1.0}
    for _ in range(m):
        out = poly_mul(out, a)
    return out


def poly_diff(a, i):
    """Derivative in variable i."""
    out = {}
    for expo, c in a.items():
        if expo[i]:
            key = expo[:i] + (expo[i] - 1,) + expo[i + 1 :]
            out[key] = out.get(key, 0.0) + c * expo[i]
    return out


def poly_laplacian(a, nvars):
    out = {}
    for expo, c in a.items():
        for i in range(nvars):
            e = expo[i]
            if e >= 2:
                key = expo[:i] + (e - 2,) + expo[i + 1 :]
                out[key] = out.get(key, 0.0) + c * e * (e - 1)
    return out


def poly_times_r2(a, nvars):
    out = {}
    for expo, c in a.items():
        for i in range(nvars):
            key = expo[:i] + (expo[i] + 2,) + expo[i + 1 :]
            out[key] = out.get(key, 0.0) + c
    return out


def poly_eval(a, points):
    """Values at the rows of `points` (one column per variable)."""
    points = np.atleast_2d(points)
    out = np.zeros(len(points), dtype=complex)
    for expo, c in a.items():
        term = np.ones(len(points), dtype=points.dtype)
        for i, e in enumerate(expo):
            if e:
                term = term * points[:, i] ** e
        out += c * term
    return out


def laplacian_ladder(a, nvars):
    """[P, Delta P, Delta^2 P, ...] up to the last nonzero term."""
    ladder = [a]
    while True:
        lap = poly_laplacian(ladder[-1], nvars)
        if not any(lap.values()):
            return ladder
        ladder.append(lap)


def project_ladder(ladder, nvars, degree):
    """Harmonic projection sum_s c_s |x|^{2s} Delta^s P of a degree-`degree`
    polynomial P, given its Laplacian ladder; |x|^2 is applied in Horner form."""
    cs = projection_coefficients(nvars, degree)
    out = {}
    for s in reversed(range(len(ladder))):
        out = poly_add({e: cs[s] * c for e, c in ladder[s].items()}, poly_times_r2(out, nvars))
    return out


class HomogeneousPolynomial:
    """Homogeneous polynomial over R^d as a sparse monomial -> coefficient map."""

    def __init__(self, dimension, degree, coeffs=None):
        self.dimension = int(dimension)
        self.degree = int(degree)
        self.coeffs = {}
        if coeffs:
            for expo, c in coeffs.items():
                if len(expo) != self.dimension or sum(expo) != self.degree:
                    raise ValueError(f"monomial {expo} is not degree {degree} in d={dimension}")
                if c != 0:
                    self.coeffs[tuple(expo)] = complex(c)

    @classmethod
    def linear_form(cls, W):
        W = np.asarray(W)
        d = len(W)
        coeffs = {}
        for i, w in enumerate(W):
            if w != 0:
                expo = [0] * d
                expo[i] = 1
                coeffs[tuple(expo)] = w
        return cls(d, 1, coeffs)

    @classmethod
    def radius_squared(cls, d):
        return cls(d, 2, poly_times_r2({(0,) * d: 1.0}, d))

    @classmethod
    def random(cls, d, n, rng, complex_coeffs=False):
        coeffs = {}
        for expo in _monomials(d, n):
            c = rng.standard_normal()
            if complex_coeffs:
                c = c + 1j * rng.standard_normal()
            coeffs[expo] = c
        return cls(d, n, coeffs)

    def __add__(self, other):
        if other.degree != self.degree or other.dimension != self.dimension:
            raise ValueError("degree/dimension mismatch")
        coeffs = poly_add(self.coeffs, other.coeffs)
        return HomogeneousPolynomial(self.dimension, self.degree, coeffs)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, scalar):
        coeffs = {e: scalar * c for e, c in self.coeffs.items()}
        return HomogeneousPolynomial(self.dimension, self.degree, coeffs)

    def __mul__(self, other):
        if isinstance(other, HomogeneousPolynomial):
            coeffs = poly_mul(self.coeffs, other.coeffs)
            return HomogeneousPolynomial(self.dimension, self.degree + other.degree, coeffs)
        return self.__rmul__(other)

    def power(self, m):
        coeffs = poly_power(self.coeffs, m, self.dimension)
        return HomogeneousPolynomial(self.dimension, m * self.degree, coeffs)

    def laplacian(self):
        coeffs = poly_laplacian(self.coeffs, self.dimension)
        return HomogeneousPolynomial(self.dimension, max(self.degree - 2, 0), coeffs)

    def __call__(self, points):
        return poly_eval(self.coeffs, np.asarray(points, dtype=float))

    def max_coeff(self):
        if not self.coeffs:
            return 0.0
        return max(abs(c) for c in self.coeffs.values())

    def is_zero(self):
        return self.max_coeff() == 0.0

    def to_json_dict(self):
        return {
            "dimension": self.dimension,
            "degree": self.degree,
            "coeffs": {
                ",".join(map(str, e)): [c.real, c.imag] for e, c in self.coeffs.items()
            },
        }


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
    d, n = P.dimension, P.degree
    return HomogeneousPolynomial(d, n, project_ladder(laplacian_ladder(P.coeffs, d), d, n))


def harmonic_decomposition(P):
    """Graded decomposition P = sum_i |x|^{2i} H_{n-2i} with H harmonic.

    Read off the Laplacian ladder: Delta(|x|^{2t} H_m) =
    2t(2m + 2t + d - 2) |x|^{2t-2} H_m, so the harmonic part of Delta^i P
    is H_{n-2i} times prod_{t=1..i} 2t(2(n-2i) + 2t + d - 2).  Returns the
    list of (i, H_{n-2i}) with nonzero parts.
    """
    d, n = P.dimension, P.degree
    ladder = laplacian_ladder(P.coeffs, d)
    out = []
    for i in range(len(ladder)):
        m = n - 2 * i
        norm = 1.0
        for t in range(1, i + 1):
            norm *= 2.0 * t * (2 * m + 2 * t + d - 2)
        coeffs = project_ladder(ladder[i:], d, m)
        H = HomogeneousPolynomial(d, m, {e: c / norm for e, c in coeffs.items()})
        if not H.is_zero():
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
        const = (2.0 * np.pi) ** (l / 2.0) / (2.0 ** (l / 2.0 - 1.0) * gamma(l / 2.0))
        return const * (val + 1j * vali)

    def kernel_re(k):
        return np.real(radial(k)) * jv(order, k * r) * k ** (l / 2.0)

    def kernel_im(k):
        return np.imag(radial(k)) * jv(order, k * r) * k ** (l / 2.0)

    val, err = quad(kernel_re, 0, np.inf, epsabs=HANKEL_TOL, limit=400)
    vali, erri = quad(kernel_im, 0, np.inf, epsabs=HANKEL_TOL, limit=400)
    if max(err, erri) > 1e-6:
        raise RuntimeError(f"hankel quadrature did not converge (error {max(err, erri):.2e})")
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
