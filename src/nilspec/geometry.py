"""Invariant frames, connection and curvature on two-step groups, and the
geometry of their solvable extensions (including the expanding metric).

All tensors are evaluated on the invariant frame, i.e. at the Lie-algebra
level; coordinate expressions come from the invariant vector fields.
Vectors of the nilpotent algebra are passed as (X, Z) pairs, vectors of the
solvable extension as (X, Z, t-component) triples.
"""

import numpy as np

__all__ = [
    "invariant_vector_fields",
    "connection",
    "riemann",
    "ricci",
    "ricci_htype",
    "scalar_curvature",
    "metric_components",
    "laplacian_apply",
    "SolvableExtension",
    "hubble_scaling",
    "curvature_report",
]


def _split(alg, U):
    X, Z = U
    X = np.zeros(alg.k) if X is None else np.asarray(X, dtype=float)
    Z = np.zeros(alg.l) if Z is None else np.asarray(Z, dtype=float)
    return X, Z


def invariant_vector_fields(alg, X):
    """Coordinate coefficients of the invariant frame at the point (X, *).

    Row i < k is the field X_i = d_i + (1/2) sum_a <J_a X, E_i> d_a, the
    last l rows are Z_a = d_a.  The matrix is unipotent, so its determinant
    is 1 at every point.
    """
    X = np.asarray(X, dtype=float)
    k, l = alg.k, alg.l
    F = np.eye(k + l)
    JX = np.einsum("aij,j->ai", alg.J_basis, X)  # (l, k): rows J_a X
    F[:k, k:] = 0.5 * JX.T
    return F


def connection(alg, U, V):
    """Levi-Civita connection of invariant fields, as an (X, Z) pair.

    nabla_X X* = [X,X*]/2, nabla_X Z = nabla_Z X = -J_Z(X)/2,
    nabla_Z Z* = 0.
    """
    Xu, Zu = _split(alg, U)
    Xv, Zv = _split(alg, V)
    xpart = -0.5 * alg.J(Zv) @ Xu - 0.5 * alg.J(Zu) @ Xv
    zpart = 0.5 * alg.bracket(Xu, Xv)
    return xpart, zpart


def _jz(J_basis, Z, X):
    """J_Z X over stacks: Z of shape (..., l), X of shape (..., k)."""
    return np.einsum("...a,aij,...j->...i", Z, J_basis, X)


def _bracket(J_basis, X, Y):
    """[X, Y] over stacks: component a is <J_a X, Y>."""
    return np.einsum("aij,...j,...i->...a", J_basis, X, Y)


def _riemann(J_basis, Xu, Zu, Xv, Zv, Xw, Zw):
    """R(U,V)W from the closed curvature forms on stacks of vectors.

    X-parts have shape (..., k), Z-parts (..., l); leading axes broadcast.
    Returns the (X, Z) parts of shape (..., k) and (..., l).
    """
    JwXu = _jz(J_basis, Zw, Xu)
    JwXv = _jz(J_basis, Zw, Xv)
    JuXw = _jz(J_basis, Zu, Xw)
    JvXw = _jz(J_basis, Zv, Xw)
    xpart = (
        # R(X,Y)X* = J_{[X,Y]}(X*)/2 - J_{[Y,X*]}(X)/4 + J_{[X,X*]}(Y)/4
        0.5 * _jz(J_basis, _bracket(J_basis, Xu, Xv), Xw)
        + -0.25 * _jz(J_basis, _bracket(J_basis, Xv, Xw), Xu)
        + 0.25 * _jz(J_basis, _bracket(J_basis, Xu, Xw), Xv)
        # R(X,Z)Z* = -J_Z J_{Z*} (X)/4, both slots
        + -0.25 * _jz(J_basis, Zv, JwXu)
        + 0.25 * _jz(J_basis, Zu, JwXv)
        # R(Z,Z*)X = (J_Z J_{Z*} - J_{Z*} J_Z)(X)/4
        + 0.25 * (_jz(J_basis, Zu, JvXw) - _jz(J_basis, Zv, JuXw))
    )
    zpart = (
        # R(X,Y)Z = -[X, J_Z(Y)]/4 + [Y, J_Z(X)]/4
        -0.25 * _bracket(J_basis, Xu, JwXv)
        + 0.25 * _bracket(J_basis, Xv, JwXu)
        # R(X,Z)Y = -[X, J_Z(Y)]/4, both slots
        + -0.25 * _bracket(J_basis, Xu, JvXw)
        + 0.25 * _bracket(J_basis, Xv, JuXw)
    )
    # R(Z1,Z2)Z3 = 0
    return xpart, zpart


def riemann(alg, U, V, W):
    """R(U,V)W from the closed curvature forms, as an (X, Z) pair."""
    return _riemann(alg.J_basis, *_split(alg, U), *_split(alg, V), *_split(alg, W))


def _ricci(J_basis, Xu, Zu, Xv, Zv):
    """Frame trace of E -> R(E,U)V over the unit frame E = eye(k + l),
    evaluated as one stacked _riemann call; U and V share their leading axes."""
    k, l = Xu.shape[-1], Zu.shape[-1]
    frame = np.eye(k + l).reshape((k + l,) + (1,) * (np.ndim(Xu) - 1) + (k + l,))
    xpart, zpart = _riemann(J_basis, frame[..., :k], frame[..., k:], Xu, Zu, Xv, Zv)
    return np.trace(np.concatenate([xpart, zpart], axis=-1), axis1=0, axis2=-1)


def ricci(alg, U, V):
    """Ric(U,V) as the frame trace of the closed Riemann forms."""
    return float(_ricci(alg.J_basis, *_split(alg, U), *_split(alg, V)))


def _dot(A, B):
    """Inner products along the last axis of two stacks."""
    return np.einsum("...i,...i->...", A, B)


def ricci_htype(alg, U, V):
    """Closed H-type Ricci: -(l/2)<X,X*> + (k/4)<Z,Z*>, mixed terms zero."""
    Xu, Zu = _split(alg, U)
    Xv, Zv = _split(alg, V)
    return -(alg.l / 2.0) * _dot(Xu, Xv) + (alg.k / 4.0) * _dot(Zu, Zv)


def scalar_curvature(alg):
    """Scalar curvature of an H-type group: -k l / 4."""
    return -alg.k * alg.l / 4.0


def metric_components(alg, X):
    """Left-invariant metric g and its inverse at (X, *), in blocks.

    Returns (g, ginv) as (k+l) x (k+l) arrays ordered (x-coords, z-coords):
    g_ij = delta + (1/4) sum_a <J_a X, E_i><J_a X, E_j>,
    g_ia = -<J_a X, E_i>/2, g_ab = delta; the inverse has g^ij = delta,
    g^ia = <J_a X, E_i>/2, g^ab = delta + <J_a X, J_b X>/4.
    """
    X = np.asarray(X, dtype=float)
    k, l = alg.k, alg.l
    JX = np.einsum("aij,j->ia", alg.J_basis, X)  # column a holds J_a X
    g = np.empty((k + l, k + l))
    g[:k, :k] = np.eye(k) + 0.25 * JX @ JX.T
    g[:k, k:] = -0.5 * JX
    g[k:, :k] = -0.5 * JX.T
    g[k:, k:] = np.eye(l)
    ginv = np.empty_like(g)
    ginv[:k, :k] = np.eye(k)
    ginv[:k, k:] = 0.5 * JX
    ginv[k:, :k] = 0.5 * JX.T
    ginv[k:, k:] = np.eye(l) + 0.25 * JX.T @ JX
    return g, ginv


# One step for every finite difference in the package: after one Richardson
# step the truncation error is O(h^4), and at h = 4e-3 it is of the size of
# the rounding error eps / h^2 of a second difference.
_STEP = 4e-3


def _central_difference(g, order):
    """d^order g / ds^order at s = 0 (order 1 or 2) for a scalar function g(s).

    Central differences at steps h = _STEP and h/2, combined by one
    Richardson step (4 D(h/2) - D(h)) / 3: exact for polynomials of degree
    <= 4 (first derivative) or <= 5 (second derivative).
    """
    g0 = g(0.0) if order == 2 else 0.0

    def diff(h):
        if order == 1:
            return (g(h) - g(-h)) / (2.0 * h)
        return (g(h) - 2.0 * g0 + g(-h)) / h**2

    return (4.0 * diff(_STEP / 2.0) - diff(_STEP)) / 3.0


def _laplacian_x(f, X, Z):
    """Delta_X of f(X, Z): second derivatives along the X axes."""
    return sum(_central_difference(lambda s: f(X + s * e, Z), 2) for e in np.eye(len(X)))


def _z_second_order(f, X, Z, C):
    """sum_ab C_ab d2 f / dz_a dz_b for a symmetric C: the second derivatives
    along the eigenvectors of C, weighted by its eigenvalues."""
    lam, V = np.linalg.eigh(C)
    return sum(c * _central_difference(lambda s: f(X, Z + s * v), 2) for c, v in zip(lam, V.T))


def _mixed_term(f, X, Z, JX):
    """sum_a d/dz_a D_a f, D_a the X-derivative along row a of JX (J_a X at
    this X), by polarization: d_u d_v f = (d2_{u+v} f - d2_{u-v} f) / 4."""
    total = 0.0
    for u, e in zip(JX, np.eye(len(Z))):
        total += _central_difference(lambda s: f(X + s * u, Z + s * e), 2)
        total -= _central_difference(lambda s: f(X + s * u, Z - s * e), 2)
    return total / 4.0


def laplacian_apply(alg, f, X, Z):
    """Group Laplacian of a scalar function f(X, Z) by central differences.

    Uses Delta = Delta_X + sum_ab (delta_ab + <J_a X, J_b X>/4) d2/dz_a dz_b
    + sum_a d_a D_a, valid on any two-step group; on H-type groups the
    middle term collapses to (1 + x^2/4) Delta_Z.
    """
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    JX = alg.J_basis @ X  # rows J_a X
    C = np.eye(alg.l) + 0.25 * JX @ JX.T
    return _laplacian_x(f, X, Z) + _z_second_order(f, X, Z, C) + _mixed_term(f, X, Z, JX)


# -- solvable extension -----------------------------------------------------


class SolvableExtension:
    """Solvable extension SN on N x R_+ with scaling factor q > 0.

    The unit timelike direction is T = q t d/dt; the Lie bracket extends
    the nilpotent one by [X, T] = (q/2) X and [Z, T] = q Z, which is the
    sign convention matching the displayed covariant derivatives.  Both
    the t > 0 coordinate and T = ln(t)/q are exposed; reversed time is
    tau = -T.
    """

    def __init__(self, base, q=1.0):
        if q <= 0:
            raise ValueError("q must be positive")
        self.base = base
        self.q = float(q)

    @property
    def k(self):
        return self.base.k

    @property
    def l(self):
        return self.base.l

    def t_of_T(self, T):
        return np.exp(self.q * T)

    def T_of_t(self, t):
        return np.log(t) / self.q

    def _split(self, U):
        X, Z, a = U
        X = np.zeros(self.k) if X is None else np.asarray(X, dtype=float)
        Z = np.zeros(self.l) if Z is None else np.asarray(Z, dtype=float)
        return X, Z, float(a if a is not None else 0.0)

    def inner(self, U, V):
        Xu, Zu, au = self._split(U)
        Xv, Zv, av = self._split(V)
        return Xu @ Xv + Zu @ Zv - au * av

    def bracket(self, U, V):
        Xu, Zu, au = self._split(U)
        Xv, Zv, av = self._split(V)
        q = self.q
        # [X, T] = (q/2) X  =>  [T, X] = -(q/2) X
        xpart = -0.5 * q * au * Xv + 0.5 * q * av * Xu
        zpart = self.base.bracket(Xu, Xv) - q * au * Zv + q * av * Zu
        return xpart, zpart, 0.0

    def connection(self, U, V):
        """nabla on invariant fields of SN, as an (X, Z, T) triple."""
        Xu, Zu, au = self._split(U)
        Xv, Zv, av = self._split(V)
        q = self.q
        nx, nz = connection(self.base, (Xu, Zu), (Xv, Zv))
        xpart = nx + 0.5 * q * av * Xu
        zpart = nz + q * av * Zu
        tpart = -q * (0.5 * (Xu @ Xv) + Zu @ Zv)
        return xpart, zpart, tpart

    def riemann(self, U, V, W):
        """R(U,V)W = nabla_U nabla_V W - nabla_V nabla_U W - nabla_[U,V] W.

        Valid on invariant fields since all connection coefficients are
        constant on the frame.
        """
        a = self.connection(U, self.connection(V, W))
        b = self.connection(V, self.connection(U, W))
        c = self.connection(self.bracket(U, V), W)
        return tuple(x - y - z for x, y, z in zip(a, b, c))

    def ricci(self, U, V):
        """Ric_q(U,V): closed forms Ri_q(X) = Ri(X) - q^2(k/4 + l/2)X,
        Ri_q(Z) = Ri(Z) - q^2(k/2 + l)Z, Ri_q(T) = q^2(k/4 + l)T."""
        Xu, Zu, au = self._split(U)
        Xv, Zv, av = self._split(V)
        k, l, q = self.k, self.l, self.q
        val = 0.0
        val += (-(l / 2.0) - q**2 * (k / 4.0 + l / 2.0)) * (Xu @ Xv)
        val += ((k / 4.0) - q**2 * (k / 2.0 + l)) * (Zu @ Zv)
        val += q**2 * (k / 4.0 + l) * (-au * av)
        return val

    def ricci_trace(self, U, V):
        """Ric as the frame trace of self.riemann.

        The connection block matches the Levi-Civita connection of the
        positive definite version of g_q (the one used in the spectral
        theory), so the trace runs over the full unit frame with +1
        weights and reproduces the closed Ricci forms.
        """
        total = 0.0
        for i in range(self.k):
            E = np.zeros(self.k)
            E[i] = 1.0
            R = self.riemann((E, None, 0.0), U, V)
            total += R[0][i]
        for a in range(self.l):
            e = np.zeros(self.l)
            e[a] = 1.0
            R = self.riemann((None, e, 0.0), U, V)
            total += R[1][a]
        R = self.riemann((None, None, 1.0), U, V)
        total += R[2]
        return total

    def scalar_curvature(self):
        """Plain frame sum of diagonal Ricci values; equals
        -(k/4 + l)(k + l + 1) at q = 1 on H-type bases."""
        k, l = self.k, self.l
        ex = self.ricci((np.eye(self.k)[0], None, 0.0), (np.eye(self.k)[0], None, 0.0))
        ez = self.ricci((None, np.eye(self.l)[0], 0.0), (None, np.eye(self.l)[0], 0.0))
        et = self.ricci((None, None, 1.0), (None, None, 1.0))
        return k * ex + l * ez + et

    def einstein(self, U, V):
        """Ric_q(U,V) - scalar/2 <U,V> with the pinned scalar convention."""
        return self.ricci(U, V) - 0.5 * self.scalar_curvature() * self.inner(U, V)

    def solvable_frame(self, X, Z, t):
        """Coordinate coefficients of the unit frame (Y_i, V_a, T) at (X,Z,t)."""
        F = np.zeros((self.k + self.l + 1, self.k + self.l + 1))
        base = invariant_vector_fields(self.base, X)
        F[: self.k, : self.k + self.l] = np.sqrt(t) * base[: self.k]
        F[self.k : self.k + self.l, : self.k + self.l] = t * base[self.k :]
        F[-1, -1] = self.q * t
        return F

    def metric_components(self, X, Z, t):
        """Coordinate metric g_q and inverse on SN at (X, Z, t)."""
        F = self.solvable_frame(X, Z, t)
        M = np.linalg.inv(F)
        eta = np.diag([1.0] * (self.k + self.l) + [-1.0])
        g = M @ eta @ M.T
        ginv = F.T @ eta @ F
        return g, ginv


CURVATURE_TOL = 1e-12  # each residual of curvature_report is flagged against this


def curvature_report(alg, samples=20, seed=0):
    """Sampled curvature data with symmetry residuals, JSON-ready.

    Evaluates R(U,V)W and Ric on random invariant vectors, records the
    worst pair-symmetry / antisymmetry / first-Bianchi residuals and the
    closed-vs-trace Ricci agreement, and flags each against CURVATURE_TOL.
    """
    k, l = alg.k, alg.l
    # row s holds the X then Z parts of U, V, W, S: the same stream as drawing
    # standard_normal(k), standard_normal(l) per vector, so a seed keeps its samples
    draws = np.random.default_rng(seed).standard_normal((samples, 4, k + l))
    U, V, W, S = [(draws[:, i, :k], draws[:, i, k:]) for i in range(4)]
    Jb = alg.J_basis
    RUVW = _riemann(Jb, *U, *V, *W)
    RVUW = _riemann(Jb, *V, *U, *W)
    RWSU = _riemann(Jb, *W, *S, *U)
    RVWU = _riemann(Jb, *V, *W, *U)
    RWUV = _riemann(Jb, *W, *U, *V)

    def ip(R, A):
        return _dot(R[0], A[0]) + _dot(R[1], A[1])

    def worst_of(values):
        return float(np.max(np.abs(values), initial=0.0))

    bianchi = [x + y + z for x, y, z in zip(RUVW, RVWU, RWUV)]
    worst = {
        "antisymmetry": worst_of(ip(RUVW, S) + ip(RVUW, S)),
        "pair_symmetry": worst_of(ip(RUVW, S) - ip(RWSU, V)),
        "bianchi": max(worst_of(bianchi[0]), worst_of(bianchi[1])),
        "ricci_closed_vs_trace": worst_of(_ricci(Jb, *U, *V) - ricci_htype(alg, U, V)),
    }
    sample_tensor = None
    if samples > 0:
        sample_tensor = {"x_part": RUVW[0][0].tolist(), "z_part": RUVW[1][0].tolist()}
    return {
        "k": alg.k,
        "l": alg.l,
        "ricci_unit_X": -alg.l / 2.0,
        "ricci_unit_Z": alg.k / 4.0,
        "scalar_curvature": scalar_curvature(alg),
        "sample_riemann": sample_tensor,
        "residuals": worst,
        "within_tol": {name: bool(v < CURVATURE_TOL) for name, v in worst.items()},
        "tol": CURVATURE_TOL,
    }


def hubble_scaling(ext, curve_type, length, tau):
    """Length of an X- or Z-integral curve moved by expanding time tau.

    X-curves scale by e^{q tau / 2}, Z-curves by e^{q tau}.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    q = ext.q
    kind = str(curve_type).upper()
    if kind == "X":
        return length * np.exp(q * tau / 2.0)
    if kind == "Z":
        return length * np.exp(q * tau)
    raise ValueError("curve_type must be 'X' or 'Z'")
