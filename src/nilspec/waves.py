"""Static and expanding wave-operator decompositions.

Operators are kept as atom -> coefficient tables over the building blocks
{1, d_T, d2_TT, Delta_Z, Delta_X, x^2 Delta_Z, sum_a d_a D_a}, so splitting
identities can be checked exactly at the coefficient level; applications
to concrete waves use exact phase differentiation where possible and
central differences otherwise.
"""

import numpy as np

from .geometry import _central_difference, _laplacian_x, _mixed_term, _z_second_order

__all__ = [
    "PhysicalConstants",
    "ATOMS",
    "operator_atoms",
    "atom_apply",
    "apply_operator",
    "relativistic_dispersion",
    "relativistic_residual",
    "nonrelativistic_link",
    "static_split_residual",
    "solvable_split_residual",
    "second_time_derivative_profile",
    "zcrystal_wave_residual",
    "ShrinkingWave",
    "meson_phase_residual",
    "expanding_packet_residual",
]

ATOMS = ("id", "dT", "d2T", "lapZ", "lapX", "x2lapZ", "mix")


class PhysicalConstants:
    """hbar, c, m (natural-unit defaults hbar = c = 1, m = 1; m = 0 allowed)."""

    def __init__(self, hbar=1.0, c=1.0, m=1.0):
        if hbar <= 0 or c <= 0 or m < 0:
            raise ValueError("need hbar, c > 0 and m >= 0")
        self.hbar = float(hbar)
        self.c = float(c)
        self.m = float(m)


def operator_atoms(kind, constants, k=None, l=None, q=1.0):
    """Coefficient table of a named operator; values are callables of T.

    Static kinds (time = t, the model N x R with q = 1/c):
    full_static, neutrino, schrodinger, total_schrodinger.
    Expanding kinds (time = T at q = 1): full_solvable, meson,
    shrinking_neutrino, expanding_schrodinger, tractor.
    """
    cc = constants
    mass_rate = 2j * cc.m / cc.hbar

    def const(v):
        return lambda T: v

    kind = kind.lower()
    if kind == "full_static":
        return {
            "lapZ": const(1.0),
            "x2lapZ": const(0.25),
            "lapX": const(1.0),
            "mix": const(1.0),
            "d2T": const(-1.0 / cc.c**2),
        }
    if kind == "neutrino":
        return {"lapZ": const(1.0), "dT": const(mass_rate), "d2T": const(-1.0 / cc.c**2)}
    if kind == "schrodinger":
        return {
            "lapX": const(1.0),
            "x2lapZ": const(0.25),
            "mix": const(1.0),
            "dT": const(-mass_rate),
        }
    if kind == "total_schrodinger":
        return {
            "lapX": const(1.0),
            "lapZ": const(1.0),
            "x2lapZ": const(0.25),
            "mix": const(1.0),
            "dT": const(-mass_rate),
        }
    if kind == "full_solvable":
        if k is None or l is None:
            raise ValueError("full_solvable needs the group dimensions")
        return {
            "lapZ": lambda T: np.exp(2.0 * q * T),
            "d2T": const(-1.0),
            "lapX": lambda T: np.exp(q * T),
            "x2lapZ": lambda T: 0.25 * np.exp(q * T),
            "mix": lambda T: np.exp(q * T),
            "dT": const(q * (k / 2.0 + l)),
        }
    if kind == "meson":
        return {"lapZ": lambda T: np.exp(2.0 * T), "dT": const(1.0), "d2T": const(-1.0)}
    if kind == "shrinking_neutrino":
        return {
            "lapZ": lambda T: np.exp(2.0 * T),
            "dT": lambda T: 1.0 + mass_rate * np.exp(T),
            "d2T": const(-1.0),
        }
    if kind == "expanding_schrodinger":
        return {
            "lapX": lambda T: np.exp(T),
            "x2lapZ": lambda T: 0.25 * np.exp(T),
            "mix": lambda T: np.exp(T),
            "dT": lambda T: -mass_rate * np.exp(T),
        }
    if kind == "tractor":
        if k is None or l is None:
            raise ValueError("tractor needs the group dimensions")
        return {"dT": const(k / 2.0 + l - 1.0)}
    raise ValueError(f"unknown operator kind {kind!r}")


def atom_apply(atom, f, alg, X, Z, T):
    """One atom applied to f(X, Z, T) by central differences."""
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if atom == "id":
        return f(X, Z, T)
    if atom in ("dT", "d2T"):
        return _central_difference(lambda s: f(X, Z, T + s), 1 if atom == "dT" else 2)

    def f_T(Xv, Zv):
        return f(Xv, Zv, T)

    if atom == "lapZ":
        return _z_second_order(f_T, X, Z, np.eye(alg.l))
    if atom == "x2lapZ":
        return (X @ X) * _z_second_order(f_T, X, Z, np.eye(alg.l))
    if atom == "lapX":
        return _laplacian_x(f_T, X, Z)
    if atom == "mix":
        return _mixed_term(f_T, X, Z, alg.J_basis @ X)
    raise ValueError(f"unknown atom {atom!r}")


def apply_operator(op, f, alg, X, Z, T):
    """Apply an atom table to f at (X, Z, T).

    If f implements atom_response(atom, X, Z, T), exact responses are used
    instead of finite differences.
    """
    total = 0.0 + 0.0j
    exact = hasattr(f, "atom_response")
    for atom, coeff in op.items():
        c = coeff(T)
        if c == 0:
            continue
        val = f.atom_response(atom, X, Z, T) if exact else atom_apply(atom, f, alg, X, Z, T)
        total += c * val
    return total


# -- scalar wave checks (Z-space plane waves) ---------------------------------


def relativistic_dispersion(K, constants):
    """omega = c sqrt(k^2 + m^2 c^2 / hbar^2)."""
    kk = np.linalg.norm(np.atleast_1d(np.asarray(K, dtype=float)))
    return constants.c * np.sqrt(kk**2 + constants.m**2 * constants.c**2 / constants.hbar**2)


def relativistic_residual(K, constants):
    """Coefficient residual of the scalar wave equation on the plane wave.

    (nabla^2 - c^{-2} d2_tt - m^2 c^2/hbar^2) e^{i(<K,Z> - omega t)} with
    omega from the dispersion relation; identically zero.
    """
    kk = np.linalg.norm(np.atleast_1d(np.asarray(K, dtype=float)))
    omega = relativistic_dispersion(K, constants)
    return abs(-(kk**2) + omega**2 / constants.c**2 - constants.m**2 * constants.c**2 / constants.hbar**2)


def nonrelativistic_link(K, constants):
    """Residual pair for the slow-phase factorization of the plane wave.

    psi = e^{-i m c^2 t / hbar} psi~ with the shifted frequency
    omega~ = omega - m c^2 / hbar:  (a) the substituted relativistic
    identity for psi~ and (b) the first-order wave equation without the
    c^{-2} d2_tt term, whose defect is the next Taylor order
    omega~^2 / c^2.  Both (a) and the full equation for psi~ vanish
    identically; the tuple is (identity residual, first-order defect).
    """
    cc = constants
    kk = np.linalg.norm(np.atleast_1d(np.asarray(K, dtype=float)))
    omega = relativistic_dispersion(K, cc)
    omega_t = omega - cc.m * cc.c**2 / cc.hbar
    # -k^2 + 2 m omega~/hbar + omega~^2/c^2 = 0 exactly
    identity = abs(-(kk**2) + 2.0 * cc.m * omega_t / cc.hbar + omega_t**2 / cc.c**2)
    first_order_defect = abs(omega_t**2 / cc.c**2)
    return identity, first_order_defect


# -- exact splitting identities ------------------------------------------------


def _table_residual(left, rights):
    worst = 0.0
    for atom in ATOMS:
        for T in (-0.7, 0.0, 0.4, 1.3):
            lv = left.get(atom, lambda T: 0.0)(T)
            rv = sum(r.get(atom, lambda T: 0.0)(T) for r in rights)
            worst = max(worst, abs(lv - rv))
    return worst


def static_split_residual(constants):
    """Coefficient residual of full_static = neutrino + schrodinger (exact 0)."""
    full = operator_atoms("full_static", constants)
    n = operator_atoms("neutrino", constants)
    s = operator_atoms("schrodinger", constants)
    return _table_residual(full, [n, s])


def solvable_split_residual(constants, k, l):
    """Coefficient residual of the q = 1 expanding split (exact 0):
    full_solvable = shrinking_neutrino + expanding_schrodinger + tractor."""
    full = operator_atoms("full_solvable", constants, k=k, l=l, q=1.0)
    parts = [
        operator_atoms("shrinking_neutrino", constants),
        operator_atoms("expanding_schrodinger", constants),
        operator_atoms("tractor", constants, k=k, l=l),
    ]
    return _table_residual(full, parts)


def second_time_derivative_profile(constants, k, l):
    """Map kind -> d2T coefficient at T=0; nonzero only for neutrino kinds
    and the operators containing them."""
    out = {}
    for kind in (
        "full_static",
        "neutrino",
        "schrodinger",
        "total_schrodinger",
        "full_solvable",
        "meson",
        "shrinking_neutrino",
        "expanding_schrodinger",
        "tractor",
    ):
        table = operator_atoms(kind, constants, k=k, l=l)
        out[kind] = table.get("d2T", lambda T: 0.0)(0.0)
    return out


# -- concrete wave applications -------------------------------------------------


def zcrystal_wave_residual(alg, K_tilde, p, q, r, constants=None, kind="schrodinger"):
    """Residual of the static (total) Schrodinger operator on the anti wave.

    psi~ = e^{i<Z, K~>} e^{i (hbar/2m) omega~ t} f_mu(x^2) Pi_X(Theta^p
    conj(Theta)^q), mu = |K~|/2, with omega~ = (4r + 4 p_index + k) mu for
    the plain Schrodinger operator and + 4 mu^2 for the total one, at a
    seeded random (X, Z) and t = 0.3.
    Under the recorded D-sign convention the effective magnetic number of
    the (p, q) twist is m = p - q, so p_index = p.  A stratum with no
    X-harmonic twist (p, q >= 1 on k = 2) is refused: its wave is zero.
    """
    from .glz import scaled_eigenfunction
    from .twisted import harmonic_nm_dimension, theta_projected

    constants = constants or PhysicalConstants()
    K_tilde = np.asarray(K_tilde, dtype=float)
    kt = np.linalg.norm(K_tilde)
    mu = kt / 2.0
    n = p + q
    if n and harmonic_nm_dimension(alg, n, p - q) == 0:
        raise ValueError(f"the (p, q) = ({p}, {q}) stratum is empty on k = {alg.k}: Pi_X(Theta^p conj(Theta)^q) = 0")
    p_index = p  # the (p, q) twist carries m = p - q under SIGMA_DK = +1
    omega_t = (4.0 * r + 4.0 * p_index + alg.k) * mu
    if kind == "total_schrodinger":
        omega_t += 4.0 * mu**2
    elif kind != "schrodinger":
        raise ValueError("kind must be schrodinger or total_schrodinger")
    f_mu = scaled_eigenfunction(mu, r, n, alg.k)
    node = (K_tilde / kt)[None, :]
    Q = np.eye(alg.k)[0]
    rate = constants.hbar / (2.0 * constants.m) * omega_t

    def wave(Xv, Zv, tv):
        tw = theta_projected(alg, Q, p, q, Xv, node)[0] if n else 1.0
        return np.exp(1j * (K_tilde @ Zv)) * np.exp(1j * rate * tv) * f_mu(Xv @ Xv) * tw

    rng = np.random.default_rng(2)
    X = rng.standard_normal(alg.k) * 0.6
    Z = rng.standard_normal(alg.l) * 0.5
    t = 0.3
    op = operator_atoms(kind, constants)
    val = apply_operator(op, wave, alg, X, Z, t)
    scale = max(abs(wave(X, Z, t)), 1e-12)
    return abs(val) / scale


class ShrinkingWave:
    """Psi = e^{i(<Z,K> - omega e^T)}, constant in X, with exact atom responses."""

    def __init__(self, K, omega):
        self.K = np.asarray(K, dtype=float)
        self.omega = float(omega)

    def __call__(self, X, Z, T):
        return np.exp(1j * (self.K @ np.asarray(Z, dtype=float) - self.omega * np.exp(T)))

    def atom_response(self, atom, X, Z, T):
        base = self(X, Z, T)
        if atom == "id":
            return base
        if atom == "dT":
            return -1j * self.omega * np.exp(T) * base
        if atom == "d2T":
            return (-(self.omega**2) * np.exp(2.0 * T) - 1j * self.omega * np.exp(T)) * base
        if atom == "lapZ":
            return -(self.K @ self.K) * base
        if atom == "x2lapZ":
            X = np.asarray(X, dtype=float)
            return -(X @ X) * (self.K @ self.K) * base
        if atom in ("lapX", "mix"):
            return 0.0
        raise ValueError(atom)


def meson_phase_residual(K, constants, T=0.0):
    """Coefficient residual of the meson operator on the shrinking wave:
    e^{2T}(omega^2 - k^2), zero exactly when m = 0 (omega = |K|)."""
    kk = np.linalg.norm(np.atleast_1d(np.asarray(K, dtype=float)))
    omega = relativistic_dispersion(K, constants)
    return abs(np.exp(2.0 * T) * (omega**2 - kk**2))


def expanding_packet_residual(ext, kind, packet, constants=None):
    """Residual field of a named operator on a packet over a (Z, T) grid.

    packet: a ShrinkingWave (exact responses) or any callable f(X, Z, T).
    The grid is X = 0, Z in {0, 0.3 (1, ..., 1)}, T in {-0.5, 0, 0.5}.
    For the shrinking neutrino the hat-relation is evaluated by applying
    the operator to the hat wave e^{+i m c^2 e^T / hbar} Psi.  Returns the
    list of (point, residual magnitude).
    """
    constants = constants or PhysicalConstants()
    Ts = np.linspace(-0.5, 0.5, 3)
    Zs = [np.zeros(ext.l), 0.3 * np.ones(ext.l)]
    grid = [(np.zeros(ext.k), Z, T) for Z in Zs for T in Ts]
    op = operator_atoms(kind, constants, k=ext.k, l=ext.l, q=ext.q)
    out = []
    for X, Z, T in grid:
        val = apply_operator(op, packet, ext.base, X, Z, T)
        out.append(((X, Z, T), abs(val)))
    return out
