"""Independent references for every benchmark operation.

`Checker.check(op, output)` returns None when the program's output is
right and a one-line reason when it is wrong.  References come from
Bessel zeros (scipy.special, mpmath), closed forms, min-max bounds and
direct recomputation with numpy, never from nilspec itself.  Tolerances
are the ones pinned in tests/test_acceptance.py.
"""

import json
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq
from scipy.special import jn_zeros, jv, jvp

TOL_SPECTRUM = 1e-6  # criterion 3: collocation vs exact, relative
TOL_ZBALL = 1e-10  # criterion 8
TOL_HTYPE = 1e-12  # criterion 2
TOL_CURVATURE = 1e-12  # criterion 7
TOL_HARMONIC = 1e-10  # criterion 5, harmonicity
TOL_ROUND_TRIP = 1e-12  # criterion 5, decomposition round trip
TOL_BOUNDARY = 1e-8  # criterion 9, Dirichlet boundary residuals
# Z-Neumann residuals are central differences with h = 1e-4, whose O(h^2)
# truncation error reaches 1e-8; a function that misses the condition has
# a radial derivative of the size of its values (1e-4 and up)
TOL_NEUMANN = 1e-6
TOL_TWISTED = 1e-6  # criterion 11, twisted-transform values
TOL_WAVES = {  # criterion 10 and the verify suite
    "relativistic_plane_wave": 1e-12,
    "static_split": 0.0,
    "solvable_split": 1e-15,
    "zcrystal_schrodinger": 1e-6,
    "massless_meson": 1e-12,
}


def irreducible_dimension(l):
    """n_l of the Clifford period-8 table (criterion 1)."""
    base = {0: 1, 1: 2, 2: 4, 3: 4, 4: 8, 5: 8, 6: 8, 7: 8}
    return 16 ** (l // 8) * base[l % 8]


# -- radial spectra -----------------------------------------------------------


def _roots(fun, count, step=0.01):
    """First `count` positive roots of fun, bracketed on a fine grid."""
    roots, x0 = [], 1e-6
    while len(roots) < count:
        x = np.arange(x0, x0 + 50.0, step)
        v = fun(x)
        for i in np.nonzero(np.sign(v[:-1]) * np.sign(v[1:]) < 0)[0]:
            roots.append(brentq(fun, x[i], x[i + 1], xtol=1e-14, rtol=1e-15))
        x0 = x[-1]
    return np.array(roots[:count])


def zero_mu_spectrum(a, bc, R, count, robin=None):
    """Exact mu = 0 spectrum of 4t f'' + 4(a+1) f' on [0, R^2], descending.

    With t = r^2 the operator is the radial Laplacian in dimension
    2a + 2, with regular solutions r^-a J_a(kappa r) and eigenvalue
    -kappa^2.  Dirichlet: J_a(kappa R) = 0.  Neumann: 0 and
    J_{a+1}(kappa R) = 0.  Robin A f'(t) + B f = 0: B J_a(x) -
    A x J_{a+1}(x) / (2 R^2) = 0 with x = kappa R.
    """
    if bc == "dirichlet":
        x = jn_zeros(a, count)
    elif bc == "neumann":
        x = np.concatenate([[0.0], jn_zeros(a + 1, count - 1)]) if count > 1 else np.zeros(1)
    else:
        A, B = robin
        x = _roots(lambda z: B * jv(a, z) - A * z * jv(a + 1, z) / (2.0 * R * R), count)
    return -((x / R) ** 2)


def check_compact(p, values):
    """(reason or None, number of values that pass).

    mu = 0: the values must equal the Bessel spectrum.  mu > 0: the
    potential V(t) = 2 m mu + 4 mu^2 (1 + t/4) lies in [Vmin, Vmax] on
    [0, R^2], so by min-max each value lies in [nu_i - Vmax, nu_i - Vmin]
    with nu_i the mu = 0 value; in particular every value is <= -Vmin,
    which rules out spurious positive eigenvalues.
    """
    a = p["k"] // 2 + p["n"] - 1
    mu, R, m = p["mu"], p["R"], p["m"]
    values = np.asarray(values, dtype=float)
    nu = zero_mu_spectrum(a, p["bc"], R, p["count"], p.get("robin"))
    vmin = 2.0 * m * mu + 4.0 * mu * mu
    vmax = vmin + mu * mu * R * R
    scale = max(1.0, abs(nu[-1]) + abs(vmax))
    n = min(len(values), len(nu))
    v, ref = values[:n], nu[:n]
    ok = np.isfinite(v) & (v <= -vmin + TOL_SPECTRUM * scale)
    if mu == 0.0:
        ok &= np.abs(v - ref) <= TOL_SPECTRUM * np.maximum(1.0, np.abs(ref))
    else:
        ok &= (v >= ref - vmax - TOL_SPECTRUM * scale) & (v <= ref - vmin + TOL_SPECTRUM * scale)
    good = int(ok.sum())
    if len(values) != p["count"]:
        return f"returned {len(values)} eigenvalues, asked for {p['count']}", good
    if not ok.all():
        i = int(np.argmin(ok))
        return f"eigenvalue {i} = {v[i]:.6g} outside its reference ({ref[i]:.6g}, bound {-vmin:.6g})", good
    return None, good


def check_fullspace(p, values):
    """Closed form -((4r + 4p + k) mu + 4 mu^2), p = (m + n)/2."""
    k, mu, pp = p["k"], p["mu"], (p["m"] + p["n"]) // 2
    ref = np.array([-((4.0 * r + 4.0 * pp + k) * mu + 4.0 * mu * mu) for r in range(p["count"])])
    values = np.asarray(values, dtype=float)
    n = min(len(values), len(ref))
    ok = np.abs(values[:n] - ref[:n]) <= TOL_SPECTRUM * np.abs(ref[:n])
    good = int(ok.sum())
    if len(values) != p["count"]:
        return f"returned {len(values)} eigenvalues, asked for {p['count']}", good
    if not ok.all():
        i = int(np.argmin(ok))
        return f"eigenvalue {i} = {values[i]:.10g}, exact {ref[i]:.10g}", good
    return None, good


@lru_cache(maxsize=256)
def _bessel_zeros(order, count):
    import mpmath

    return np.array([float(mpmath.besseljzero(order, i)) for i in range(1, count + 1)])


def check_zball(p, values):
    """Dirichlet: squared Bessel zeros (mpmath).  Neumann: roots of
    x J'_nu(x) + (1 - l/2) J_nu(x), with 0 first for s = 0."""
    l, s, R, count = p["l"], p["s"], p["R"], p["count"]
    order = s + l / 2.0 - 1.0
    if p["bc"] == "dirichlet":
        x = _bessel_zeros(order, count)
    else:
        fun = lambda z: z * jvp(order, z) + (1.0 - l / 2.0) * jv(order, z)  # noqa: E731
        x = _roots(fun, count - 1 if s == 0 else count, step=0.005)
        if s == 0:
            x = np.concatenate([[0.0], x])
    ref = (x / R) ** 2
    values = np.asarray(values, dtype=float)
    if len(values) != count:
        return f"returned {len(values)} eigenvalues, asked for {count}"
    err = np.abs(values - ref) / np.maximum(1.0, ref)
    if not err.max() <= TOL_ZBALL:
        return f"relative error {err.max():.3g} against Bessel zeros"
    return None


# -- exact algebra ------------------------------------------------------------


def clifford_defect(J):
    """max |J_a J_b + J_b J_a + 2 delta_ab I| over a generator stack."""
    eye = np.eye(J.shape[1])
    anti = np.einsum("aij,bjk->abik", J, J)
    anti = anti + anti.transpose(1, 0, 2, 3)
    anti[np.arange(len(J)), np.arange(len(J))] += 2.0 * eye
    return np.abs(anti).max()


def check_htype(p, out):
    J = np.asarray(out["J"], dtype=float)
    l, k = p["l"], (p["a"] + p["b"]) * irreducible_dimension(p["l"])
    if J.shape != (l, k, k):
        return f"generator stack has shape {J.shape}, expected {(l, k, k)}"
    if not clifford_defect(J) <= TOL_HTYPE:
        return "generators do not satisfy J_a J_b + J_b J_a = -2 delta_ab I"
    eye = np.eye(k)
    Z = np.random.default_rng(p["seed"] + 1).standard_normal((16, l))
    JZ = np.tensordot(Z, J, axes=(1, 0))
    sq = JZ @ JZ + np.sum(Z * Z, axis=1)[:, None, None] * eye
    worst = np.abs(sq).max()
    if not worst < TOL_HTYPE:
        return f"J_Z^2 + |Z|^2 I = {worst:.3g}"
    if not 0.0 <= out["residual"] < TOL_HTYPE:
        return f"reported H-type residual {out['residual']:.3g}"
    return None


def check_curvature(p, report):
    l, k = p["l"], (p["a"] + p["b"]) * irreducible_dimension(p["l"])
    if report["k"] != k or report["l"] != l:
        return f"dimensions ({report['k']}, {report['l']}), expected ({k}, {l})"
    worst = max(report["residuals"].values())
    if not worst < TOL_CURVATURE or not all(report["within_tol"].values()):
        return f"curvature residual {worst:.3g}"
    # H-type: Ric = -l/2 on X, k/4 on Z, scalar curvature -k l / 4
    expect = {"ricci_unit_X": -l / 2.0, "ricci_unit_Z": k / 4.0, "scalar_curvature": -k * l / 4.0}
    for key, value in expect.items():
        if not abs(report[key] - value) < TOL_CURVATURE:
            return f"{key} = {report[key]}, expected {value}"
    return None


def _laplacian(coeffs):
    out = {}
    for expo, c in coeffs.items():
        for i, e in enumerate(expo):
            if e >= 2:
                key = expo[:i] + (e - 2,) + expo[i + 1 :]
                out[key] = out.get(key, 0.0) + c * e * (e - 1)
    return out


def _times_r2(coeffs):
    out = {}
    for expo, c in coeffs.items():
        for i in range(len(expo)):
            key = expo[:i] + (expo[i] + 2,) + expo[i + 1 :]
            out[key] = out.get(key, 0.0) + c
    return out


def _r2_remainder(coeffs):
    """Remainder of long division by x_1^2 + ... + x_d^2 in the variable x_1."""
    rest = dict(coeffs)
    for expo in sorted(rest, key=lambda e: -e[0]):
        c = rest.get(expo, 0.0)
        if expo[0] < 2 or c == 0.0:
            continue
        base = (expo[0] - 2,) + expo[1:]
        rest[expo] = 0.0
        for i in range(1, len(expo)):
            key = base[:i] + (base[i] + 2,) + base[i + 1 :]
            rest[key] = rest.get(key, 0.0) - c
    return rest


def _max_abs(coeffs):
    return max((abs(c) for c in coeffs.values()), default=0.0)


def check_projection(p, data, coeffs):
    """H harmonic (own Laplacian), and P - H divisible by |x|^2."""
    P = data["coeffs"]
    scale = max(1.0, _max_abs(P))
    if any(sum(e) != p["degree"] or len(e) != p["d"] for e in coeffs):
        return "projection changed the degree or dimension"
    lap = _max_abs(_laplacian(coeffs)) / scale
    if not lap < TOL_HARMONIC:
        return f"projection not harmonic: |Delta H| = {lap:.3g}"
    diff = dict(P)
    for e, c in coeffs.items():
        diff[e] = diff.get(e, 0.0) - c
    rem = _max_abs(_r2_remainder(diff)) / scale
    if not rem < TOL_HARMONIC:
        return f"P - H not divisible by |x|^2: remainder {rem:.3g}"
    return None


def check_decomposition(p, data, parts):
    """Each part harmonic of degree n - 2i; sum |x|^{2i} H_i == P."""
    P = data["coeffs"]
    scale = max(1.0, _max_abs(P))
    total = {}
    for i, degree, coeffs in parts:
        if degree != p["degree"] - 2 * i:
            return f"part {i} has degree {degree}"
        lap = _max_abs(_laplacian(coeffs)) / scale
        if not lap < TOL_HARMONIC:
            return f"part {i} not harmonic: |Delta H| = {lap:.3g}"
        term = coeffs
        for _ in range(i):
            term = _times_r2(term)
        for e, c in term.items():
            total[e] = total.get(e, 0.0) + c
    for e, c in P.items():
        total[e] = total.get(e, 0.0) - c
    err = _max_abs(total) / scale
    if not err < TOL_ROUND_TRIP:
        return f"round trip error {err:.3g}"
    return None


# -- twisted transforms -------------------------------------------------------


def check_boundary(p, out):
    res = out["residual"]
    if not (np.isfinite(res) and res < (TOL_BOUNDARY if p["bc"] == "dirichlet" else TOL_NEUMANN)):
        return f"{p['bc']} boundary residual {res:.3g}"
    # a zero function meets every boundary condition; the stratum s <= p + q
    # is not excluded by parity, so the function must not vanish inside
    if not abs(out["interior"]) > 1e-12:
        return f"function vanishes inside the ball ({abs(out['interior']):.3g})"
    return None


def _sphere_points(l):
    """Product rule on S^{l-1}, l <= 3, independent of nilspec.quadrature."""
    if l == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    phi = 2.0 * np.pi * np.arange(96) / 96
    if l == 2:
        return np.column_stack([np.cos(phi), np.sin(phi)]), np.full(96, 2.0 * np.pi / 96)
    c, wc = np.polynomial.legendre.leggauss(48)
    s = np.sqrt(1.0 - c * c)
    pts = np.column_stack(
        [np.outer(s, np.cos(phi)).ravel(), np.outer(s, np.sin(phi)).ravel(), np.repeat(c, 96)]
    )
    return pts, np.repeat(wc, 96) * (2.0 * np.pi / 96)


def twisted_full_reference(p, J):
    """Integral over K in R^l of exp(-|K|^2/2 - |X|^2/4) Theta^p conj(Theta)^q
    exp(i <K, Z>), Theta = <Q, X> + i <J_{K/|K|} Q, X>, in polar form."""
    Q, X, Z = (np.asarray(p[key], dtype=float) for key in ("Q", "X", "Z"))
    l = p["l"]
    u, wu = _sphere_points(l)
    theta = Q @ X + 1j * (u @ (np.asarray(J) @ Q @ X))
    twist = theta ** p["p"] * np.conj(theta) ** p["q"]
    r, wr = np.polynomial.legendre.leggauss(96)
    r, wr = 7.0 * (r + 1.0), 7.0 * wr
    radial = wr * r ** (l - 1) * np.exp(-0.5 * r * r - 0.25 * (X @ X))
    phase = np.exp(1j * np.outer(r, u @ Z))
    return radial @ (phase @ (wu * twist))


def check_twisted_full(p, out):
    J = np.asarray(out["J"], dtype=float)
    k = irreducible_dimension(p["l"])
    if J.shape != (p["l"], k, k) or not clifford_defect(J) <= TOL_HTYPE:
        return "generators of the group are not a Clifford family"
    ref = twisted_full_reference(p, J)
    err = abs(out["value"] - ref) / max(1.0, abs(ref))
    if not err < TOL_TWISTED:
        return f"full-mode transform {out['value']:.10g}, reference {ref:.10g}"
    return None


# -- the run's checker, and the command line ----------------------------------


IN_PROCESS = {
    "zball": check_zball,
    "htype": check_htype,
    "curvature": check_curvature,
    "boundary": check_boundary,
    "intertwine": check_boundary,
    "twisted_full": check_twisted_full,
}


class Checker:
    """Stateful checker: remembers the first bytes each CLI config produced
    (shared with `first` so traced and untraced runs are compared), and
    counts requested and passing eigenvalues."""

    def __init__(self, first=None):
        self.first = {} if first is None else first
        self.values_requested = 0
        self.values_good = 0

    def check(self, op, out):
        p = op.params
        if "command" in p:
            return self.check_cli(op, out)
        if op.kind in ("compact", "fullspace"):
            self.values_requested += p["count"]
            if out is None:
                return None
            reason, good = (check_compact if op.kind == "compact" else check_fullspace)(p, out)
            self.values_good += good
            return reason
        if out is None:
            return None
        if op.kind in IN_PROCESS:
            return IN_PROCESS[op.kind](p, out)
        if op.kind == "projection":
            return check_projection(p, op.data, out)
        return check_decomposition(p, op.data, out)

    def check_cli(self, op, out):
        p = op.params
        if out["exit"] != 0:
            last = out["log"].strip().splitlines()[-1:] or [""]
            return f"exit {out['exit']}: {last[0][:160]}"
        if out["bytes"] is None:
            return "no result file"
        try:
            doc = json.loads(out["bytes"])
        except ValueError as exc:
            return f"invalid JSON: {exc}"
        key = (p["command"], json.dumps(p["config"], sort_keys=True), p["seed"])
        first = self.first.setdefault(key, out["bytes"])
        if first != out["bytes"]:
            return "bytes differ from the first run of the same config"
        return getattr(self, "cli_" + p["command"].replace("-", "_"))(p["config"], doc)

    def cli_spectrum(self, cfg, doc):
        op_cfg, dom = cfg["operator"], cfg["domain"]
        k = cfg["group"]["a"] * irreducible_dimension(cfg["group"]["l"])
        if doc.get("k") != k:
            return f"k = {doc.get('k')}, expected {k}"
        strata = op_cfg.get("strata") if op_cfg["mode"] == "compact" else [[op_cfg["n"], op_cfg["m"]]]
        if len(doc.get("strata", [])) != len(strata):
            return "wrong number of strata"
        for (n, m), got in zip(strata, doc["strata"]):
            p = {"k": k, "n": n, "m": m, "mu": op_cfg["mu"], "count": dom["count"]}
            self.values_requested += p["count"]
            if op_cfg["mode"] == "compact":
                p.update(R=float(np.sqrt(dom["R2"])), bc=dom["bc"])
                reason, good = check_compact(p, got["values"])
            else:
                reason, good = check_fullspace(p, got["values"])
            self.values_good += good
            if reason:
                return f"stratum ({n}, {m}): {reason}"
        return None

    def cli_verify(self, cfg, doc):
        bad = [c["check"] for checks in doc["results"].values() for c in checks if not c["ok"]]
        return f"failed checks {bad}" if bad or doc["failed"] else None

    def cli_isospec(self, cfg, doc):
        n_max = cfg["operator"]["n_max"]
        expected = 2 * sum(n + 1 for n in range(n_max + 1))
        if len(doc["pairs"]) != expected:
            return f"{len(doc['pairs'])} strata compared, expected {expected}"
        for pair in doc["pairs"]:
            rep = pair["report"]
            if not rep["isospectral"] or rep["matched"] != cfg["domain"]["count"]:
                return f"stratum {pair['bc']} ({pair['n']}, {pair['m']}) not matched"
        return None if doc["isospectral"] else "verdict false"

    def cli_curvature(self, cfg, doc):
        g = cfg["group"]
        reason = check_curvature(g, doc)
        if reason:
            return reason
        k, l = doc["k"], doc["l"]
        expect = -(k / 4.0 + l) * (k + l + 1.0)
        if not abs(doc["solvable_scalar"] - expect) < TOL_CURVATURE * max(1.0, abs(expect)):
            return f"solvable scalar {doc['solvable_scalar']}, closed form {expect}"
        return None

    def cli_waves(self, cfg, doc):
        norms = doc["residual_norms"]
        for name, tol in TOL_WAVES.items():
            if not norms[name] <= tol:
                return f"{name} residual {norms[name]:.3g} above {tol:g}"
        return None

    def cli_build_group(self, cfg, doc):
        g = cfg["group"]
        k = (g["a"] + g["b"]) * irreducible_dimension(g["l"])
        if (doc["k"], doc["l"]) != (k, g["l"]):
            return f"dimensions ({doc['k']}, {doc['l']}), expected ({k}, {g['l']})"
        if not (doc["h_type"] and doc["h_type_residual"] < 1e-10):
            return f"H-type residual {doc['h_type_residual']:.3g}"
        return None
