"""Two-step nilpotent metric Lie algebras and groups.

An algebra is stored through the matrices J_alpha = J_{e_alpha} of an
orthonormal Z-basis; the bracket is <[X,Y],Z> = <J_Z(X),Y> and the group
law lives in exponential coordinates (X, Z).
"""

from dataclasses import dataclass

import numpy as np

from .clifford import endomorphism_space
from .quadrature import orthonormal_complete

__all__ = [
    "GroupElement",
    "TwoStepAlgebra",
    "htype_group",
    "from_representation",
    "frame_matrix",
    "charger",
    "volumer",
    "complete_basis",
    "verify_isomorphism",
    "canonical_swap_witness",
    "su_generators",
    "realify",
]


@dataclass
class GroupElement:
    """Point (X, Z) of the group in exponential coordinates."""

    X: np.ndarray
    Z: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.Z = np.asarray(self.Z, dtype=float)


HTYPE_TOL = 1e-10  # largest htype_residual that is_h_type accepts


class TwoStepAlgebra:
    """Metric two-step nilpotent Lie algebra N = X-space + Z-space."""

    def __init__(self, J_basis, space=None):
        J_basis = [np.asarray(J, dtype=float) for J in J_basis]
        k = J_basis[0].shape[0]
        for J in J_basis:
            if J.shape != (k, k):
                raise ValueError("J matrices must share one square shape")
            if np.abs(J + J.T).max() > 1e-12:
                raise ValueError("J matrices must be skew-symmetric")
        self.J_basis = np.stack(J_basis)
        self.k = k
        self.l = len(J_basis)
        self.space = space  # EndomorphismSpace when built from Clifford data

    def J(self, Z):
        Z = np.asarray(Z, dtype=float)
        if Z.shape != (self.l,):
            raise ValueError(f"Z must have length {self.l}")
        return np.tensordot(Z, self.J_basis, axes=1)

    def bracket(self, X, Y):
        """[X, Y] in the Z-space: component alpha is <J_alpha X, Y>."""
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        if X.shape != (self.k,) or Y.shape != (self.k,):
            raise ValueError(f"X, Y must have length {self.k}")
        return np.einsum("aij,j,i->a", self.J_basis, X, Y)

    # -- group structure ---------------------------------------------------

    def identity(self):
        return GroupElement(np.zeros(self.k), np.zeros(self.l))

    def group_multiply(self, p, q):
        """(X,Z)(X',Z') = (X+X', Z+Z' + [X,X']/2)."""
        return GroupElement(
            p.X + q.X, p.Z + q.Z + 0.5 * self.bracket(p.X, q.X)
        )

    def group_inverse(self, p):
        return GroupElement(-p.X, -p.Z)

    # -- H-type verification ----------------------------------------------

    def htype_residual(self, samples=32, seed=0):
        """max ||J_Z^2 + |Z|^2 I|| over the Z-basis and random samples."""
        eye = np.eye(self.k)
        worst = 0.0
        for a in range(self.l):
            J = self.J_basis[a]
            worst = max(worst, np.abs(J @ J + eye).max())
        rng = np.random.default_rng(seed)
        for _ in range(samples):
            Z = rng.standard_normal(self.l)
            J = self.J(Z)
            worst = max(worst, np.abs(J @ J + (Z @ Z) * eye).max())
        return worst

    def is_h_type(self, samples=32, seed=0):
        res = self.htype_residual(samples=samples, seed=seed)
        return res < HTYPE_TOL, res

    def to_json_dict(self):
        if self.space is not None:
            return self.space.to_json_dict()
        return {
            "k": self.k,
            "l": self.l,
            "generators": [J.tolist() for J in self.J_basis],
        }


def htype_group(l, a, b=0):
    """The Heisenberg-type algebra H^(a,b)_l with Euclidean inner products."""
    space = endomorphism_space(l, a, b)
    return TwoStepAlgebra(space.basis_matrices(), space=space)


def from_representation(generators):
    """Two-step algebra from independent skew generators G_1..G_l.

    The abstract Z-space is the span of the generators with the inner
    product <Z, V> = -Tr(J_Z o J_V); the returned algebra carries the
    J-matrices of an orthonormalized Z-basis.  No further rescaling is
    applied, so Clifford generators come back scaled by 1/sqrt(k).
    """
    gens = [np.asarray(G, dtype=float) for G in generators]
    k = gens[0].shape[0]
    for G in gens:
        if G.shape != (k, k):
            raise ValueError("generators must share one square shape")
        if np.abs(G + G.T).max() > 1e-12:
            raise ValueError("generators must be skew-symmetric")
    stack = np.stack(gens)
    gram = -np.einsum("aij,bji->ab", stack, stack)
    # Gram matrix of the -Tr inner product; singular <=> dependent generators
    eigvals = np.linalg.eigvalsh(gram)
    if eigvals[0] < 1e-10 * max(eigvals[-1], 1.0):
        raise ValueError("generators are linearly dependent")
    low = np.linalg.cholesky(gram)
    coeff = np.linalg.inv(low)
    ortho = np.einsum("ab,bij->aij", coeff, stack)
    return TwoStepAlgebra(list(ortho))


# -- frame matrix field, charger and volumer -------------------------------


def frame_matrix(alg, B, Q, Z_u):
    """Matrix A with B_i = sum_j A_ij Q_j for B_R = (B_1.., J_{Z_u}B_1..).

    B holds k/2 independent X-vectors (rows), Q an orthonormal X-basis
    (rows), Z_u a unit Z-vector.  Returns (A, det A); det A = 0 marks the
    singularity set of the basis B.
    """
    B = np.asarray(B, dtype=float)
    Q = np.asarray(Q, dtype=float)
    Z_u = np.asarray(Z_u, dtype=float)
    half = alg.k // 2
    if B.shape != (half, alg.k):
        raise ValueError(f"B must be ({half}, {alg.k})")
    if Q.shape != (alg.k, alg.k):
        raise ValueError("Q must be a full basis")
    if abs(Z_u @ Z_u - 1.0) > 1e-10:
        raise ValueError("Z_u must be a unit vector")
    J = alg.J(Z_u)
    B_real = np.vstack([B, B @ J.T])
    A = B_real @ Q.T
    return A, float(np.linalg.det(A))


def charger(A):
    """Tr(A) - k/2 for a k x k frame matrix."""
    A = np.asarray(A)
    return float(np.trace(A)) - A.shape[0] / 2.0


def volumer(A):
    return float(np.linalg.det(np.asarray(A)))


def complete_basis(B, orientation=+1, rng=None):
    """Extend orthonormal rows B to an orthonormal basis of R^k.

    The completion is deterministic Gram-Schmidt over the standard basis
    unless rng is given (random rotation of the complement).  The sign of
    the last vector is fixed so that det of the full basis equals
    `orientation`.
    """
    B = np.asarray(B, dtype=float)
    k = B.shape[1]
    candidates = np.eye(k) if rng is None else rng.standard_normal((k, k))
    Q = np.vstack([B, orthonormal_complete(B, candidates)])
    if np.linalg.det(Q) * orientation < 0:
        Q[-1] = -Q[-1]
    return Q


def verify_isomorphism(alg1, alg2, A, B, tol=1e-10):
    """Check J'_{B(Z)} = A J_Z A^-1 for all basis Z; returns max residual.

    (A, B) is a user-supplied candidate pair of orthogonal maps on the
    X- resp. Z-spaces.  See canonical_swap_witness for the standard
    H^(a,b) ~ H^(b,a) pair.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != (alg1.k, alg2.k) or B.shape != (alg1.l, alg2.l):
        raise ValueError("map shapes do not match the algebras")
    Ainv = np.linalg.inv(A)
    worst = 0.0
    for a in range(alg1.l):
        Z = np.zeros(alg1.l)
        Z[a] = 1.0
        lhs = alg2.J(B @ Z)
        rhs = A @ alg1.J_basis[a] @ Ainv
        worst = max(worst, np.abs(lhs - rhs).max())
    return worst < tol, worst


def canonical_swap_witness(l, a, b):
    """The (A, B) pair exhibiting H^(a,b)_l ~ H^(b,a)_l.

    B = -id on the Z-space; A permutes the irreducible blocks so that the
    a plus-blocks and b minus-blocks trade places (A = id when a*b = 0,
    where the identification needs no reordering).
    """
    n = endomorphism_space(l, a, b).module.n
    k = (a + b) * n
    A = np.zeros((k, k))
    eye = np.eye(n)
    for i in range(a):  # plus-blocks move behind the b minus-blocks
        A[(b + i) * n : (b + i + 1) * n, i * n : (i + 1) * n] = eye
    for i in range(b):
        A[i * n : (i + 1) * n, (a + i) * n : (a + i + 1) * n] = eye
    return A, -np.eye(l)


# -- su(n) helpers (non-H-type inputs for from_representation) -------------


def su_generators(n):
    """Generalized Gell-Mann basis of su(n) as complex skew-hermitian matrices."""
    mats = []
    for i in range(n):
        for j in range(i + 1, n):
            sym = np.zeros((n, n), dtype=complex)
            sym[i, j] = sym[j, i] = 1.0
            mats.append(1j * sym)
            asym = np.zeros((n, n), dtype=complex)
            asym[i, j] = -1j
            asym[j, i] = 1j
            mats.append(1j * asym)
    for d in range(1, n):
        diag = np.zeros((n, n), dtype=complex)
        for i in range(d):
            diag[i, i] = 1.0
        diag[d, d] = -d
        mats.append(1j * diag * np.sqrt(2.0 / (d * (d + 1))))
    return mats


def realify(mats):
    """Complex skew-hermitian n x n matrices -> real skew 2n x 2n matrices."""
    out = []
    for M in mats:
        M = np.asarray(M, dtype=complex)
        out.append(np.block([[M.real, -M.imag], [M.imag, M.real]]))
    return out
