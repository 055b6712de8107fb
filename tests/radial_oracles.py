"""Reference values for the radial GLZ operator, independent of its solvers.

radial_apply applies the operator pointwise.  kummer_chi is the exact
characteristic function of the compact problem on [0, R^2] and
kummer_eigenvalues its roots, both in mpmath (NIST DLMF 13.2-13.3).
"""

import mpmath

from nilspec.geometry import _central_difference

# relative scan step of kummer_eigenvalues; the low eigenvalues the tests
# use lie more than 20% of their size apart
_SCAN_STEP = 0.05


def radial_apply(op, f, t, df=None, d2f=None):
    """Apply the radial operator to f at t.

    Derivatives are taken from df/d2f when given (or from f.derivative /
    f.second_derivative), otherwise by central differences.
    """
    if df is None and hasattr(f, "derivative"):
        df = f.derivative
    if d2f is None and hasattr(f, "second_derivative"):
        d2f = f.second_derivative
    f0 = f(t)
    d1 = df(t) if df is not None else _central_difference(lambda s: f(t + s), 1)
    d2 = d2f(t) if d2f is not None else _central_difference(lambda s: f(t + s), 2)
    a2, a1, a0 = op.coeffs(t)
    return a2 * d2 + a1 * d1 + a0 * f0


def kummer_chi(op, R, bc, lam):
    """The boundary functional at t = R^2 of the solution regular at t = 0.

    With b = k/2 + n and s = mu t, the regular solution of op f = lam f is
    f = e^{-s/2} M(a, b, s), a = (k + 2n + 2m)/4 + mu + lam/(4 mu), for
    mu > 0, and f = 0F1(; b; lam t/4) for mu = 0.  Returns f, df/dt or
    A df/dt + B f for "dirichlet", "neumann" or ("robin", A, B); its zeros
    in lam are the eigenvalues.
    """
    t = mpmath.mpf(R) ** 2
    b = mpmath.mpf(op.k) / 2 + op.n
    lam = mpmath.mpf(lam)
    if op.mu > 0:
        mu = mpmath.mpf(op.mu)
        a = mpmath.mpf(op.k + 2 * op.n + 2 * op.m) / 4 + mu + lam / (4 * mu)
        s = mu * t
        M = mpmath.hyp1f1(a, b, s)
        f = mpmath.exp(-s / 2) * M
        df = mu * mpmath.exp(-s / 2) * (a / b * mpmath.hyp1f1(a + 1, b + 1, s) - M / 2)
    else:
        f = mpmath.hyp0f1(b, lam * t / 4)
        df = lam / (4 * b) * mpmath.hyp0f1(b + 1, lam * t / 4)
    if bc == "dirichlet":
        return f
    if bc == "neumann":
        return df
    _, A, B = bc
    return A * df + B * f


def kummer_eigenvalues(op, R, bc, count):
    """The `count` largest zeros of kummer_chi, descending, at 30 digits.

    For Dirichlet, Neumann and Robin with A B >= 0, whose eigenvalues lie
    below the min-max bound -(2 m mu + 4 mu^2).  Scans down from one above
    that bound in relative steps and refines each sign change by the
    Anderson-Bjorck bracketing method; raises when fewer than `count` zeros
    lie above -1e6.
    """
    roots = []
    with mpmath.workdps(30):
        def chi(lam):
            return kummer_chi(op, R, bc, lam)

        hi = 1.0 - (2.0 * op.m * op.mu + 4.0 * op.mu**2)
        chi_hi = chi(hi)
        while len(roots) < count:
            if hi < -1e6:
                raise RuntimeError(f"only {len(roots)} of {count} zeros above -1e6")
            lo = hi - _SCAN_STEP * max(1.0, abs(hi))
            chi_lo = chi(lo)
            if chi_lo == 0:
                roots.append(lo)
            elif chi_lo * chi_hi < 0:
                roots.append(float(mpmath.findroot(chi, (lo, hi), solver="anderson")))
            hi, chi_hi = lo, chi_lo
    return roots
