"""Sphere quadrature rules, zonal harmonics and spherical-harmonic projectors."""

from functools import lru_cache
from math import comb

import numpy as np
from scipy.special import eval_chebyt, eval_gegenbauer, gamma, roots_jacobi

__all__ = [
    "sphere_area",
    "sphere_rule",
    "zonal_eigenfunction",
    "harmonic_space_dimension",
    "zonal_projector",
    "zonal_projector_factor",
    "orthonormal_complete",
    "orthcomplement_basis",
    "gauss_legendre",
]


def sphere_area(l):
    """Surface area of the unit sphere S^{l-1} in R^l."""
    return 2.0 * np.pi ** (l / 2.0) / gamma(l / 2.0)


@lru_cache(maxsize=64)
def _sphere_rule_cached(l, order):
    if l == 1:
        nodes = np.array([[1.0], [-1.0]])
        weights = np.array([1.0, 1.0])
        return nodes, weights
    if l == 2:
        n = max(4, 2 * order)
        ang = 2.0 * np.pi * np.arange(n) / n
        nodes = np.column_stack([np.cos(ang), np.sin(ang)])
        weights = np.full(n, 2.0 * np.pi / n)
        return nodes, weights
    # recursive product: x = (sin(theta) y, cos(theta)), y on S^{l-2};
    # Gauss-Jacobi in u = cos(theta) integrates (1-u^2)^{(l-3)/2} exactly
    sub_nodes, sub_weights = _sphere_rule_cached(l - 1, order)
    alpha = (l - 3) / 2.0
    u, wu = roots_jacobi(order, alpha, alpha)
    s = np.sqrt(1.0 - u**2)
    nodes = np.concatenate(
        [np.column_stack([si * sub_nodes, np.full(len(sub_nodes), ui)]) for ui, si in zip(u, s)]
    )
    weights = np.concatenate([wi * sub_weights for wi in wu])
    return nodes, weights


def sphere_rule(l, order=20):
    """Quadrature nodes/weights on S^{l-1}; weights sum to the sphere area.

    Exact for polynomials of degree < 2*order restricted to the sphere.
    """
    nodes, weights = _sphere_rule_cached(l, order)
    return nodes.copy(), weights.copy()


def zonal_eigenfunction(l, nu, rho):
    """Radial eigenfunction phi of the sphere Laplacian on S^{l-1}.

    Order-nu eigenvalue nu(nu+l-2), normalized to phi(0) = 1; rho is the
    polar distance.  Gegenbauer for l >= 3, cos(nu rho) on the circle.
    """
    rho = np.asarray(rho, dtype=float)
    if l < 2:
        raise ValueError("need l >= 2")
    if l == 2:
        return np.cos(nu * rho)
    return _zonal_kernel(l, nu, np.cos(rho))


def _zonal_kernel(l, s, cosang):
    """phi_s at polar distance arccos(cosang), evaluated from the cosine:
    Chebyshev T_s on the circle, the normalized Gegenbauer C_s^{(l-2)/2}
    for l >= 3."""
    if l == 2:
        return eval_chebyt(s, cosang)
    alpha = (l - 2) / 2.0
    return eval_gegenbauer(s, alpha, cosang) / eval_gegenbauer(s, alpha, 1.0)


def harmonic_space_dimension(l, s):
    """Dimension of degree-s spherical harmonics on S^{l-1}."""
    if s == 0:
        return 1
    if l == 1:
        return 1 if s == 1 else 0
    return comb(s + l - 1, l - 1) - comb(s + l - 3, l - 1)


def zonal_projector(l, s, nodes, weights):
    """Weighted zonal kernel of the degree-s projector on S^{l-1}.

    Row i, column j: dim(l,s)/area * phi_s(<nodes_i, nodes_j>) * weights_j,
    so the matrix maps values at the quadrature nodes to their degree-s
    component at the same nodes.
    """
    if l < 2:
        raise ValueError("need l >= 2")
    kern = _zonal_kernel(l, s, np.clip(nodes @ nodes.T, -1.0, 1.0))
    scale = harmonic_space_dimension(l, s) / sphere_area(l)
    return scale * kern * weights[None, :]


PROJECTOR_EIG_TOL = 1e-8  # eigenvalues of an exact node-to-node projector lie this close to 0 or 1


def zonal_projector_factor(l, s, order):
    """Low-rank factor (A, Bt) of the degree-s node-to-node projector on
    sphere_rule(l, order): zonal_projector(l, s, *sphere_rule(l, order))
    equals A @ Bt, so it applies to nodal values f as A @ (Bt @ f).

    Built once per (l, s, order) and shared; both arrays are read-only,
    A is (nodes, dim) and Bt is (dim, nodes) with dim the dimension of the
    degree-s harmonics.  Raises RuntimeError unless the rule is exact
    enough for the kernel to be a projector of rank dim.
    """
    # a plain function in front of the cache keeps each call visible to
    # per-layer tracing, which wraps only functions
    return _zonal_projector_factor(l, s, order)


@lru_cache(maxsize=32)
def _zonal_projector_factor(l, s, order):
    nodes, weights = _sphere_rule_cached(l, order)
    # an exact rule makes K = kernel * W idempotent, and W^1/2 K W^-1/2 is
    # then a symmetric projector: its unit eigenvectors U give K = A Bt with
    # A = W^-1/2 U and Bt = U^T W^1/2
    root = np.sqrt(weights)
    sym = root[:, None] * zonal_projector(l, s, nodes, weights) / root[None, :]
    vals, vecs = np.linalg.eigh(0.5 * (sym + sym.T))
    unit = np.abs(vals - 1.0) <= PROJECTOR_EIG_TOL
    dim = harmonic_space_dimension(l, s)
    if not np.all(unit | (np.abs(vals) <= PROJECTOR_EIG_TOL)) or unit.sum() != dim:
        off = np.minimum(np.abs(vals), np.abs(vals - 1.0)).max()
        raise RuntimeError(
            f"degree-{s} zonal kernel on the order-{order} rule of S^{l - 1} is not a rank-{dim} "
            f"projector (rank {int(unit.sum())}, eigenvalue {off:.1e} off 0 and 1): raise the order"
        )
    U = vecs[:, unit]
    A = U / root[:, None]
    Bt = np.ascontiguousarray((U * root[:, None]).T)
    A.flags.writeable = False
    Bt.flags.writeable = False
    return A, Bt


ORTHO_TOL = 1e-10  # candidates whose residual norm falls below this are dependent


def orthonormal_complete(rows, candidates):
    """Orthonormal vectors extending the orthonormal `rows`, by Gram-Schmidt
    over `candidates` in order; stops once the rows span the space.

    Returns only the new vectors, as an (m, dim) array.
    """
    dim = len(candidates[0])
    basis = list(rows)
    new = []
    for cand in candidates:
        if len(basis) == dim:
            break
        v = np.array(cand, dtype=float)
        for w in basis:
            v -= (v @ w) * w
        norm = np.linalg.norm(v)
        if norm > ORTHO_TOL:
            v /= norm
            basis.append(v)
            new.append(v)
    return np.array(new).reshape(len(new), dim)


def orthcomplement_basis(theta):
    """Deterministic orthonormal basis of the hyperplane orthogonal to theta."""
    theta = np.asarray(theta, dtype=float)
    return orthonormal_complete([theta / np.linalg.norm(theta)], np.eye(theta.shape[0]))


def gauss_legendre(n, a, b):
    """Gauss-Legendre nodes/weights on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w
