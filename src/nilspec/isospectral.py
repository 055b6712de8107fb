"""Intertwining operators, spectral isotropy and isospectrality checks.

Spectral isotropy: the reduced radial operator of a one-pole invariant
subspace does not depend on the pole, so spectra agree across poles.
Isospectrality of H^(a,b)_l families: reduced one-pole spectra coincide
because both sides reduce to the same radial operator; the J -> -J
intertwiner realizes the particle/antiparticle exchange.
"""

from dataclasses import dataclass

import numpy as np

from .glz import RadialGLZOperator, compact_spectrum, zball_eigenvalues
from .quadrature import orthonormal_complete
from .twisted import SIGMA_DK, dk_eigencheck

__all__ = [
    "IntertwineSpec",
    "intertwine",
    "point_transformation",
    "spectra_compare",
    "isotropy_sweep",
    "reduced_operator_for_pole",
]


@dataclass
class IntertwineSpec:
    """Source/target data of an intertwining operator.

    Pole change: target_Q on the same algebra.  Structure flip: target_alg
    built from the sign-reversed endomorphisms (H^(a,b) <-> H^(b,a)).
    """

    source_Q: np.ndarray
    target_Q: np.ndarray = None
    target_alg: object = None

    def __post_init__(self):
        self.source_Q = np.asarray(self.source_Q, dtype=float)
        if self.target_Q is not None:
            self.target_Q = np.asarray(self.target_Q, dtype=float)
            if abs(np.linalg.norm(self.target_Q) - np.linalg.norm(self.source_Q)) > 1e-12:
                raise ValueError("poles must have equal length")


def intertwine(spec, tf):
    """Image of a twisted function: same radial data, rebuilt twist.

    The polynomial factor is rebuilt with Theta_{Q~} (pole change) or with
    the primed complex structures (algebra flip); radial profile, exponents,
    domain and projections are carried over, so Hankel strata are preserved.
    """
    if tf.Q is None or not np.allclose(tf.Q, spec.source_Q):
        raise ValueError("twisted function does not live in the source one-pole space")
    Q_new = spec.target_Q if spec.target_Q is not None else tf.Q
    alg_new = spec.target_alg
    return tf.with_pole(Q_new, alg=alg_new)


def point_transformation(alg, Q, Q_tilde):
    """Orthogonal X-map O with (O, id_Z) inducing the pole change by pullback.

    O maps span{Q~, J_{Z_u} Q~} onto span{Q, J_{Z_u} Q}: Q~ -> Q and
    J_a Q~ -> J_a Q for every basis direction (well defined on H-type
    groups with |Q| = |Q~|); the orthogonal complement is completed by
    deterministic Gram-Schmidt.  Returns (O, orthogonality residual).
    """
    Q = np.asarray(Q, dtype=float)
    Q_tilde = np.asarray(Q_tilde, dtype=float)
    if abs(np.linalg.norm(Q) - np.linalg.norm(Q_tilde)) > 1e-12:
        raise ValueError("poles must have equal length")
    norm = np.linalg.norm(Q)
    src = [Q_tilde / norm] + [alg.J_basis[a] @ Q_tilde / norm for a in range(alg.l)]
    dst = [Q / norm] + [alg.J_basis[a] @ Q / norm for a in range(alg.l)]
    src = orthonormal_complete([], src)
    dst = orthonormal_complete([], dst)
    if len(src) != len(dst):
        raise ValueError("degenerate pole spans")
    comp_src = orthonormal_complete(src, np.eye(alg.k))
    comp_dst = orthonormal_complete(dst, np.eye(alg.k))
    # O sends the source frame to the target frame
    frame_src = np.vstack([src, comp_src])
    frame_dst = np.vstack([dst, comp_dst])
    O = frame_dst.T @ frame_src
    resid = np.abs(O @ O.T - np.eye(alg.k)).max()
    return O, resid


def spectra_compare(left, right, tol=1e-8):
    """Pair two spectrum records; returns a report dict.

    Values are expanded by multiplicity, sorted, and matched within tol;
    mismatches and a length defect are reported rather than raised.
    """
    lv = _expanded(left)
    rv = _expanded(right)
    n = min(len(lv), len(rv))
    mismatches = []
    for i in range(n):
        if abs(lv[i] - rv[i]) > tol * max(1.0, abs(lv[i])):
            mismatches.append({"index": i, "left": float(lv[i]), "right": float(rv[i])})
    report = {
        "left": {"operator": left.operator, "bc": left.bc, "provenance": left.provenance},
        "right": {"operator": right.operator, "bc": right.bc, "provenance": right.provenance},
        "tol": tol,
        "matched": n - len(mismatches),
        "compared": n,
        "length_defect": abs(len(lv) - len(rv)),
        "mismatches": mismatches,
        "isospectral": not mismatches and len(lv) == len(rv),
    }
    return report


def _expanded(record):
    vals = []
    for e in record.eigenvalues:
        vals.extend([e["value"]] * int(e.get("multiplicity", 1)))
    return np.sort(np.asarray(vals))[::-1]


def reduced_operator_for_pole(alg, Q, n, m, mu):
    """Radial operator parameters for the one-pole stratum (n, m) at pole Q.

    The reduction constants are recomputed from the pole: the twist
    exponents (p, q) with p - q = m, p + q = n are verified against the
    pole's D-eigenvalue, and the operator (k, n, m, mu) is returned.  The
    parameters are pole-independent, which is the content of spectral
    isotropy.
    """
    p, q = (n + m) // 2, (n - m) // 2
    if n > 0:
        K = np.eye(alg.l)[0]
        eig, resid = dk_eigencheck(alg, Q, K, p=p, q=q)
        expected = SIGMA_DK * (p - q) * 1j
        if abs(eig - expected) > 1e-9 or resid > 1e-6:
            raise RuntimeError("pole reduction misbehaved; D-eigencheck failed")
    return RadialGLZOperator(k=alg.k, n=n, m=m, mu=mu)


def isotropy_sweep(alg, R, bc, poles, strata, mu=None, count=6, N=220):
    """Reduced one-pole spectra across poles; identical parameters per pole.

    mu defaults to sqrt(lambda_1^(0))/2 of the unit Z-ball (the exterior
    reduction constant).  Returns {"operators": per-pole parameter tuples,
    "reports": pairwise comparisons against the first pole, "isotropic":
    verdict}.
    """
    if mu is None:
        mu = np.sqrt(zball_eigenvalues(alg.l, 0, 1.0, "dirichlet", 1)[0]) / 2.0
    ops = {}
    spectra = {}
    for idx, Q in enumerate(poles):
        key = f"pole{idx}"
        per = []
        recs = []
        for (n, m) in strata:
            op = reduced_operator_for_pole(alg, Q, n, m, mu)
            per.append((op.k, op.n, op.m, float(op.mu)))
            recs.append(compact_spectrum(op, R, bc, count=count, N=N))
        ops[key] = per
        spectra[key] = recs
    reports = {}
    base = spectra["pole0"]
    isotropic = True
    for key, recs in spectra.items():
        if key == "pole0":
            continue
        reps = [spectra_compare(a, b, tol=1e-9) for a, b in zip(base, recs)]
        reports[key] = reps
        isotropic = isotropic and all(r["isospectral"] for r in reps)
    same_params = all(ops[k] == ops["pole0"] for k in ops)
    return {"operators": ops, "reports": reports, "isotropic": isotropic and same_params}
