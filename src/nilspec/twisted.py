"""Twisted Z-Fourier transforms and the operators acting on them.

Theta twist polynomials, transforms over the full K-space / sphere bundles /
single lattice points, the Z-crystal reduction, boundary-condition
functions on Z-ball bundles, the twisted-to-straight conversion, and the
finite-truncation roulette machinery.

D-convention: direct computation gives D_K Theta_Q = +i|K| Theta_Q; the
recorded sign is SIGMA_DK = +1, and eigenvalue checks assert magnitude and
conjugate pairing (the opposite orbiting convention is equally consistent).
With the e^{+i<Z,K>} kernel this makes the effective magnetic quantum
number of a (p, q) twist m = p - q; conjugating the kernel swaps the
roles of p and q.
"""

import numpy as np

from .geometry import _central_difference, _laplacian_x, _mixed_term, _z_second_order
from .glz import zball_eigenvalues
from .harmonics import (
    HomogeneousPolynomial,
    _monomials,
    laplacian_ladder,
    poly_add,
    poly_diff,
    poly_eval,
    poly_laplacian,
    poly_mul,
    poly_power,
    project_ladder,
    projection_coefficients,
)
from .quadrature import gauss_legendre, orthonormal_complete, sphere_rule, zonal_projector_factor

__all__ = [
    "SIGMA_DK",
    "theta_eval",
    "theta_projected",
    "dk_eigencheck",
    "TwistedFunction",
    "zcrystal_reduce",
    "zcrystal_reduced_apply",
    "boundary_functions",
    "m_operator_apply",
    "m_operator_eigencheck",
    "delta_z_apply",
    "adapted_complex_basis",
    "harmonic_nm_dimension",
    "twisted_to_straight",
    "RouletteState",
    "roulette_one_turn",
    "XKPolynomial",
    "spin_matrix",
]

SIGMA_DK = +1  # D_K Theta_Q = SIGMA_DK * i * |K| * Theta_Q


def theta_eval(alg, Q, X, K_u):
    """Theta_Q(X, K_u) = <Q, X> + i <J_{K_u} Q, X> for unit K_u."""
    Q = np.asarray(Q, dtype=float)
    X = np.asarray(X, dtype=float)
    K_u = np.asarray(K_u, dtype=float)
    if abs(K_u @ K_u - 1.0) > 1e-10:
        raise ValueError("K_u must be a unit vector")
    JQ = alg.J(K_u) @ Q
    return (Q @ X) + 1j * (JQ @ X)


def _theta_batch(alg, Q, X, nodes):
    """Theta_Q(X, node) for an array of unit nodes; X fixed."""
    JQ = np.einsum("aij,j->ai", alg.J_basis, np.asarray(Q, dtype=float))  # (l, k)
    lin = nodes @ (JQ @ np.asarray(X, dtype=float))
    return (np.asarray(Q) @ np.asarray(X)) + 1j * lin


def theta_projected(alg, Q, p, q, X, nodes):
    """Pi_X^(p+q)(Theta_Q^p conj(Theta_Q)^q)(X, node) for an array of nodes.

    Uses the closed form of the X-harmonic projection: the X-Laplacian of
    Theta^p conj(Theta)^q is 4 p q |Q|^2 Theta^{p-1} conj(Theta)^{q-1}, so
    the projection truncates after min(p, q) terms.
    """
    Q = np.asarray(Q, dtype=float)
    X = np.asarray(X, dtype=float)
    n = p + q
    th = _theta_batch(alg, Q, X, nodes)
    thb = np.conj(th)
    if n == 0:
        return np.ones(len(nodes), dtype=complex)
    cs = projection_coefficients(alg.k, n)
    q2 = float(Q @ Q)
    x2 = float(X @ X)
    out = np.zeros(len(nodes), dtype=complex)
    fall_p, fall_q = 1.0, 1.0
    for s in range(min(p, q) + 1):
        if s > 0:
            fall_p *= p - s + 1
            fall_q *= q - s + 1
        coeff = cs[s] * (4.0 * q2) ** s * fall_p * fall_q * x2**s if s > 0 else 1.0
        out += coeff * th ** (p - s) * thb ** (q - s)
    return out


def dk_eigencheck(alg, Q, K, p=1, q=0, X=None, rng=None):
    """Eigenvalue of D_K applied to Theta_Q^p conj(Theta_Q)^q, with residual.

    D_K is the directional derivative along the field X -> J_K(X).  Returns
    (sigma (p-q) i |K|, max residual of the central-difference check),
    sigma = SIGMA_DK.
    """
    K = np.asarray(K, dtype=float)
    kk = np.linalg.norm(K)
    if kk == 0:
        raise ValueError("K must be nonzero")
    K_u = K / kk
    eig = SIGMA_DK * (p - q) * 1j * kk
    rng = rng or np.random.default_rng(11)
    pts = [np.asarray(X, dtype=float)] if X is not None else list(rng.standard_normal((4, alg.k)))
    JK = alg.J(K)

    def twist(x):
        th = theta_eval(alg, Q, x, K_u)
        return th**p * np.conj(th) ** q

    worst = 0.0
    for x in pts:
        deriv = _central_difference(lambda s: twist(x + s * (JK @ x)), 1)
        worst = max(worst, abs(deriv - eig * twist(x)))
    return eig, worst


# -- twisted Z-Fourier transforms --------------------------------------------


class TwistedFunction:
    """A twisted Z-Fourier transform specification, evaluable at (X, Z).

    mode: ("full",), ("sphere", R) with a constant radius R, or
    ("lattice", Z_gamma).  The twist is the one-pole polynomial
    Theta_Q^p conj(Theta_Q)^q, with the optional X-harmonic projection
    Pi_X and K-spherical projection Pi_K^(s).  radial(x, kk) multiplies
    the integrand.
    """

    def __init__(
        self,
        alg,
        mode,
        Q=None,
        p=0,
        q=0,
        radial=None,
        project_x=False,
        project_k=None,
        sphere_order=16,
        radial_rule=(48, 12.0),
    ):
        self.alg = alg
        self.mode = mode
        self.Q = None if Q is None else np.asarray(Q, dtype=float)
        self.p, self.q = int(p), int(q)
        self.radial = radial or (lambda x, kk: 1.0)
        self.project_x = bool(project_x)
        self.project_k = project_k
        self.sphere_order = sphere_order
        self.radial_rule = radial_rule
        kind = mode[0]
        if kind not in ("full", "sphere", "lattice"):
            raise ValueError(f"unknown mode {kind!r}")

    @property
    def n(self):
        return self.p + self.q

    def with_pole(self, Q_new, alg=None):
        """Same spec with the pole (and optionally the algebra) replaced."""
        out = TwistedFunction(
            alg or self.alg,
            self.mode,
            Q=Q_new,
            p=self.p,
            q=self.q,
            radial=self.radial,
            project_x=self.project_x,
            project_k=self.project_k,
            sphere_order=self.sphere_order,
            radial_rule=self.radial_rule,
        )
        return out

    def _twist_values(self, X, nodes):
        """Twist polynomial (projected if requested) at unit nodes."""
        if self.Q is None:
            return np.ones(len(nodes), dtype=complex)
        if self.project_x:
            return theta_projected(self.alg, self.Q, self.p, self.q, X, nodes)
        th = _theta_batch(self.alg, self.Q, X, nodes)
        return th**self.p * np.conj(th) ** self.q

    def __call__(self, X, Z):
        X = np.asarray(X, dtype=float)
        Z = np.asarray(Z, dtype=float)
        alg = self.alg
        x = np.linalg.norm(X)
        kind = self.mode[0]

        if kind == "lattice":
            Zg = np.asarray(self.mode[1], dtype=float)
            zg = np.linalg.norm(Zg)
            phase = np.exp(2j * np.pi * (Zg @ Z))
            if zg == 0:
                return self.radial(x, 0.0) * phase
            node = (Zg / zg)[None, :]
            tw = self._twist_values(X, node)[0]
            return self.radial(x, zg) * tw * phase

        nodes, weights = sphere_rule(alg.l, self.sphere_order)
        if kind == "sphere":
            Rx = float(self.mode[1])
            vals = self._node_integrand(X, nodes)
            phases = np.exp(1j * Rx * (nodes @ Z))
            return (weights @ (vals * phases)) / weights.sum() * self.radial(x, Rx)

        # full space: polar rule, radial Gauss-Legendre x sphere rule
        n_rad, k_max = self.radial_rule
        ks, wk = gauss_legendre(n_rad, 0.0, k_max)
        total = 0.0 + 0.0j
        base = self._node_integrand(X, nodes)
        for kk, wkk in zip(ks, wk):
            phases = np.exp(1j * kk * (nodes @ Z))
            total += wkk * kk ** (alg.l - 1) * self.radial(x, kk) * (weights @ (base * phases))
        return total

    def _node_integrand(self, X, nodes):
        """Twist (x Pi_K projection) at the sphere-rule nodes."""
        tw = self._twist_values(X, nodes)
        if self.project_k is None:
            return tw
        A, Bt = zonal_projector_factor(self.alg.l, int(self.project_k), self.sphere_order)
        return A @ (Bt @ tw)

    def boundary_residual(self, X, bc="dirichlet", n_dir=24, seed=0):
        """Max |value| (Dirichlet) or |radial Z-derivative| (Z-Neumann) at
        the Z-ball boundary |Z| = R_b over n_dir sampled directions d.

        Only for sphere modes; meaningful for those built by
        boundary_functions, where the K-sphere radius R equals
        sqrt(lambda_i^(s)) and the boundary radius R_b is stored alongside
        (mode[2], 1 when absent).  The value is the finite sum
        sum_j c_j e^{i R <n_j, Z>} over the sphere-rule nodes n_j, so its
        radial derivative is exact: each term gains i R <n_j, d>."""
        if self.mode[0] != "sphere":
            raise ValueError(f"boundary_residual needs a sphere mode, got {self.mode[0]!r}")
        X = np.asarray(X, dtype=float)
        x = np.linalg.norm(X)
        Rx = float(self.mode[1])
        Rb = float(self.mode[2]) if len(self.mode) > 2 else 1.0
        nodes, weights = sphere_rule(self.alg.l, self.sphere_order)
        terms = weights * self._node_integrand(X, nodes) / weights.sum() * self.radial(x, Rx)
        dirs = np.random.default_rng(seed).standard_normal((n_dir, self.alg.l))
        cos = (dirs / np.linalg.norm(dirs, axis=1, keepdims=True)) @ nodes.T  # <d, n_j>
        planes = np.exp(1j * Rx * Rb * cos)  # each term's plane wave at Z = R_b d
        if str(bc).lower() != "dirichlet":
            planes = 1j * Rx * cos * planes
        return float(np.max(np.abs(planes @ terms), initial=0.0))


# -- Z-crystal reduction ------------------------------------------------------


def zcrystal_reduce(alg, Z_gamma):
    """Reduction of the group Laplacian on the lattice mode e^{2 pi i <Z_g, Z>}.

    Returns (mu, apply) with mu = pi |Z_gamma| and apply(psi, X) the
    reduced operator Delta_X psi + 2 pi i D_{Z_gamma} psi
    - 4 mu^2 (1 + x^2/4) psi evaluated by central differences.
    """
    Z_gamma = np.asarray(Z_gamma, dtype=float)
    zg = np.linalg.norm(Z_gamma)
    mu = np.pi * zg
    JZg = alg.J(Z_gamma) if zg > 0 else np.zeros((alg.k, alg.k))

    def apply(psi, X):
        return zcrystal_reduced_apply(psi, X, JZg, mu)

    return mu, apply


def zcrystal_reduced_apply(psi, X, JZg, mu):
    X = np.asarray(X, dtype=float)
    lap = _laplacian_x(lambda Xv, _: psi(Xv), X, None)
    ddir = _central_difference(lambda s: psi(X + s * (JZg @ X)), 1)
    return lap + 2j * np.pi * ddir - 4.0 * mu**2 * (1.0 + 0.25 * (X @ X)) * psi(X)


# -- boundary-condition functions on Z-ball bundles ---------------------------


def boundary_functions(alg, s, i, bc, p, q, Q, R=1.0, sphere_order=16):
    """Twisted transform satisfying the Dirichlet or Z-Neumann condition.

    Built over the K-sphere of radius sqrt(lambda_i^(s)) of the Z-ball
    B_R, with Pi_X^(n) applied to the twist and Pi_K^(s) applied to the
    K_u-dependence.  Strata excluded by the parity window project to the
    zero function.
    """
    lam = zball_eigenvalues(alg.l, s, R, bc=bc, count=i)[i - 1]
    if lam == 0.0:
        raise ValueError("the lambda = 0 Neumann stratum gives a Z-constant; pick i >= 2")
    return TwistedFunction(
        alg,
        ("sphere", np.sqrt(lam), R),
        Q=Q,
        p=p,
        q=q,
        project_x=True,
        project_k=s,
        sphere_order=sphere_order,
    )


# -- unpolarized operators applied numerically --------------------------------


def m_operator_apply(alg, F, X, Z):
    """M = sum_a d/dz_a D_a applied to F(X, Z) by central differences."""
    X = np.asarray(X, dtype=float)
    return _mixed_term(F, X, np.asarray(Z, dtype=float), alg.J_basis @ X)


def m_operator_eigencheck(alg, tf, X, Z):
    """(eigenvalue, residual) of M on a sphere-bundle twisted function.

    With the recorded sign convention the eigenvalue is
    SIGMA_DK * (q - p) * R; the residual compares the nested
    finite-difference application against eigenvalue * tf(X, Z).
    """
    eig = SIGMA_DK * (tf.q - tf.p) * float(tf.mode[1])
    val = tf(X, Z)
    got = m_operator_apply(alg, tf, X, Z)
    return eig, abs(got - eig * val)


def delta_z_apply(F, X, Z, l):
    """Z-Laplacian of F(X, Z) by central differences."""
    return _z_second_order(F, X, np.asarray(Z, dtype=float), np.eye(l))


# -- adapted complex bases and the rank oracle --------------------------------


def adapted_complex_basis(alg, Z_u):
    """Orthonormal rows B_1..B_{k/2} with (B, J_{Z_u}B) an orthonormal basis."""
    J = alg.J(np.asarray(Z_u, dtype=float) / np.linalg.norm(Z_u))
    rows = []
    taken = []
    for cand in np.eye(alg.k):
        for v in orthonormal_complete(taken, [cand]):
            rows.append(v)
            taken.extend([v, J @ v])
        if len(rows) == alg.k // 2:
            break
    return np.vstack(rows)


RANK_TOL = 1e-8  # singular values below this fraction of the largest count as zero


def harmonic_nm_dimension(alg, n, m):
    """Brute-force rank of the space of projected twist polynomials H^(n,m).

    Spans Pi_X of the monomials z^{p_i} conj(z)^{q_i} with sum p = (n+m)/2,
    sum q = (n-m)/2 in the complex basis adapted to the first Z-axis,
    evaluates on random X samples and returns the numerical rank.
    """
    if (n + m) % 2 or abs(m) > n:
        return 0
    Z_u = np.eye(alg.l)[0]
    p, q = (n + m) // 2, (n - m) // 2
    B = adapted_complex_basis(alg, Z_u)
    kappa = alg.k // 2
    expos = [(pe, qe) for pe in _monomials(kappa, p) for qe in _monomials(kappa, q)]
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((4 * len(expos) + 40, alg.k))
    vals = []
    for pe, qe in expos:
        straight = twisted_to_straight(alg, B, [(j, pe[j], qe[j]) for j in range(kappa)], Z_u)
        vals.append(poly_eval(project_ladder(laplacian_ladder(straight, alg.k), alg.k, n), pts))
    svals = np.linalg.svd(np.array(vals), compute_uv=False)
    if svals.size == 0:
        return 0
    return int(np.sum(svals > RANK_TOL * svals[0]))


# -- twisted-to-straight conversion -------------------------------------------


def twisted_to_straight(alg, B, pq_list, K_u):
    """Monomial dict {x-exponent: coeff} of prod z_j^{p_j} conj(z_j)^{q_j}.

    z_j(X) = <B_j + i J_{K_u} B_j, X>; the result is the straight (plain
    polynomial) representation at this K_u.  Exact coordinate change.
    """
    K_u = np.asarray(K_u, dtype=float)
    J = alg.J(K_u / np.linalg.norm(K_u))
    out = {(0,) * alg.k: 1.0 + 0.0j}
    for (j, p, q) in pq_list:
        a = np.asarray(B[j], dtype=float) + 1j * (J @ np.asarray(B[j], dtype=float))
        zpol = HomogeneousPolynomial.linear_form(a).coeffs
        zbar = HomogeneousPolynomial.linear_form(np.conj(a)).coeffs
        out = poly_mul(out, poly_power(zpol, p, alg.k))
        out = poly_mul(out, poly_power(zbar, q, alg.k))
    return out


# -- roulette operators --------------------------------------------------------


class RouletteState:
    """Indexed family of K-radial functions f_alpha, with truncation depth."""

    def __init__(self, indices, functions, depth=1):
        self.indices = list(indices)
        self.functions = dict(functions)
        if set(self.indices) != set(self.functions):
            raise ValueError("functions must cover exactly the index set")
        self.depth = int(depth)
        if self.depth < 1:
            raise ValueError("depth must be >= 1")

    def __getitem__(self, alpha):
        return self.functions[alpha]


def roulette_one_turn(state, p, q, S):
    """One turn of the roulette operator on a tuple of K-radial functions.

    output_alpha(x, kk) = -(p - q) i (kk f_alpha + d/dkk sum_beta
    S[alpha, beta] f_beta); S couples the compound indices.  Missing
    S entries are an error; p = q returns the zero family.
    """
    S = np.asarray(S)
    n = len(state.indices)
    if S.shape != (n, n):
        raise ValueError("S matrix shape does not match the index set")
    pref = -(p - q) * 1j

    def make(alpha_pos):
        def out(x, kk):
            findex = state.indices
            fa = state.functions[findex[alpha_pos]](x, kk)

            def mix(s):
                return sum(S[alpha_pos, bpos] * state.functions[findex[bpos]](x, kk + s) for bpos in range(n))

            return pref * (kk * fa + _central_difference(mix, 1))

        return out

    funcs = {alpha: make(pos) for pos, alpha in enumerate(state.indices)}
    return RouletteState(state.indices, funcs, depth=state.depth + 1)


# -- joint (X, K) polynomials and the spin matrix ------------------------------


class XKPolynomial:
    """Polynomial in (X, K) jointly, built from {(x-expo, k-expo): coeff}.

    Stored as an engine polynomial on the k + l variables (X first, keys
    x-expo + k-expo); the X-Laplacian and Pi_X act on the first k.
    """

    def __init__(self, k, l, coeffs=None):
        self.k = int(k)
        self.l = int(l)
        self.coeffs = {tuple(xe) + tuple(ke): c for (xe, ke), c in (coeffs or {}).items()}

    @classmethod
    def _flat(cls, k, l, coeffs):
        out = cls(k, l)
        out.coeffs = coeffs
        return out

    def copy(self):
        return XKPolynomial._flat(self.k, self.l, dict(self.coeffs))

    @classmethod
    def x_linear(cls, k, l, vec):
        """<vec, X> as a (X-degree 1, K-degree 0) polynomial."""
        form = HomogeneousPolynomial.linear_form(np.concatenate([np.asarray(vec), np.zeros(l)]))
        return cls._flat(k, l, form.coeffs)

    @classmethod
    def jk_form(cls, alg, Q):
        """<J_K(Q), X>: bilinear in (X, K), K unnormalized."""
        JQ = np.einsum("aij,j->ai", alg.J_basis, np.asarray(Q, dtype=float))  # row a: J_a Q
        out = cls(alg.k, alg.l)
        for a, K_a in enumerate(np.eye(alg.l)):
            out = out + cls.k_linear(alg.k, alg.l, K_a) * cls.x_linear(alg.k, alg.l, JQ[a])
        return out

    @classmethod
    def theta_factor(cls, alg, Q, conj=False):
        """<Q, X> + i <J_K Q, X> (K unnormalized; restrict to |K| = 1)."""
        sign = -1j if conj else 1j
        return cls.x_linear(alg.k, alg.l, np.asarray(Q, dtype=float)) + sign * cls.jk_form(alg, Q)

    @classmethod
    def k_linear(cls, k, l, W):
        form = HomogeneousPolynomial.linear_form(np.concatenate([np.zeros(k), np.asarray(W)]))
        return cls._flat(k, l, form.coeffs)

    def __add__(self, other):
        return XKPolynomial._flat(self.k, self.l, poly_add(self.coeffs, other.coeffs))

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, scalar):
        coeffs = {key: scalar * c for key, c in self.coeffs.items()}
        return XKPolynomial._flat(self.k, self.l, coeffs)

    def __mul__(self, other):
        if not isinstance(other, XKPolynomial):
            return self.__rmul__(other)
        return XKPolynomial._flat(self.k, self.l, poly_mul(self.coeffs, other.coeffs))

    def power(self, m):
        return XKPolynomial._flat(self.k, self.l, poly_power(self.coeffs, m, self.k + self.l))

    def dx(self, i):
        return XKPolynomial._flat(self.k, self.l, poly_diff(self.coeffs, i))

    def dk(self, a):
        return XKPolynomial._flat(self.k, self.l, poly_diff(self.coeffs, self.k + a))

    def directional_x(self, alg, field_matrix):
        """sum_i (field_matrix X)_i d/dx_i as polynomial output."""
        out = XKPolynomial(self.k, self.l)
        for i in range(self.k):
            out = out + XKPolynomial.x_linear(self.k, self.l, field_matrix[i]) * self.dx(i)
        return out

    def D_K(self, alg):
        """Directional X-derivative along J_K(X); raises K-degree by one."""
        out = XKPolynomial(self.k, self.l)
        for a, K_a in enumerate(np.eye(self.l)):
            K_factor = XKPolynomial.k_linear(self.k, self.l, K_a)
            out = out + K_factor * self.directional_x(alg, alg.J_basis[a])
        return out

    def x_laplacian(self):
        return XKPolynomial._flat(self.k, self.l, poly_laplacian(self.coeffs, self.k))

    def x_degree(self):
        return max((sum(expo[: self.k]) for expo in self.coeffs), default=0)

    def project_x(self):
        """X-harmonic projection (input must be X-homogeneous)."""
        ladder = laplacian_ladder(self.coeffs, self.k)
        return XKPolynomial._flat(self.k, self.l, project_ladder(ladder, self.k, self.x_degree()))

    def evaluate(self, X, Knodes):
        """Values at fixed X over an array of K nodes."""
        Knodes = np.atleast_2d(np.asarray(Knodes, dtype=float))
        X = np.broadcast_to(np.asarray(X, dtype=float), (len(Knodes), self.k))
        return poly_eval(self.coeffs, np.hstack([X, Knodes]))


def m_perp_values(alg, F, X, nodes):
    """M_{K_u^perp} F at (X, node): tangential part of sum_m d_{K_m} D_{e_m}.

    Frame-free form: sum_m <grad_K H_m, e_m> - <grad_K H_m, K_u> K_{u,m},
    H_m = D_{e_m} F.
    """
    l = alg.l
    total = np.zeros(len(nodes), dtype=complex)
    radial = np.zeros((len(nodes), l), dtype=complex)
    for m in range(l):
        Hm = F.directional_x(alg, alg.J_basis[m])
        for b in range(l):
            dHb = Hm.dk(b).evaluate(X, nodes)
            if b == m:
                total += dHb
            radial[:, m] += dHb * nodes[:, b]
    total -= np.einsum("na,na->n", radial, nodes)
    return total


SPIN_SPHERE_ORDER = 14  # sphere-rule order of the spin-matrix fit


def spin_matrix(alg, test_functions, s_from, s_to_list):
    """Least-squares S with [D_K, Pi^(s_from)] F = sum_s S[s] Pi^(s) M_perp F.

    test_functions: XKPolynomials, X-homogeneous, K-homogeneous (evaluated
    on the unit K-sphere), sampled at six seeded random X.  Returns (S
    coefficients indexed by s_to_list, relative residual of the
    decomposition).
    """
    X_samples = np.random.default_rng(5).standard_normal((6, alg.k))
    nodes, _ = sphere_rule(alg.l, SPIN_SPHERE_ORDER)
    A_from, Bt_from = zonal_projector_factor(alg.l, s_from, SPIN_SPHERE_ORDER)
    projs_to = [zonal_projector_factor(alg.l, s, SPIN_SPHERE_ORDER) for s in s_to_list]

    lhs_rows = []
    cand_rows = [[] for _ in s_to_list]
    for F in test_functions:
        DF = F.D_K(alg)
        for X in X_samples:
            # D_K(Pi F) at outer node j: the projected value combines F at
            # inner nodes m, so the X-derivative along J_{theta_j} X passes
            # onto each inner evaluation
            gmat = np.array([F.dx(i).evaluate(X, nodes) for i in range(alg.k)])  # (k, n)
            JX = np.einsum("aij,j->ai", alg.J_basis, X)  # (l, k): rows J_a X
            field = nodes @ JX  # (n, k): row j holds J_{theta_j} X
            # term1[j] = sum_m Pi[j, m] grad F(X, v_m) . J_{theta_j} X with
            # Pi = A_from Bt_from, contracting the inner nodes m first
            term1 = np.einsum("jr,jr->j", A_from, field @ (gmat @ Bt_from.T))
            term2 = A_from @ (Bt_from @ DF.evaluate(X, nodes))
            lhs_rows.append(term1 - term2)
            mp = m_perp_values(alg, F, X, nodes)
            for idx, (A_to, Bt_to) in enumerate(projs_to):
                cand_rows[idx].append(A_to @ (Bt_to @ mp))

    b = np.concatenate(lhs_rows)
    A = np.column_stack([np.concatenate(rows) for rows in cand_rows])
    coef, *_ = np.linalg.lstsq(A, b, rcond=None)
    resid = np.linalg.norm(A @ coef - b) / max(np.linalg.norm(b), 1e-300)
    return coef, resid
