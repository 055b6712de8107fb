"""Negative controls for the finite-difference checks of `verify`.

Each control perturbs one input of a check by a small relative amount:
small enough that the check passes at the tolerance it had before the
differences were Richardson-extrapolated, large enough that it fails at
today's tolerance.
"""

import numpy as np
import pytest

from nilspec import glz, twisted, verify


def _scaled_sphere_radius(factor):
    class Scaled(twisted.TwistedFunction):
        def __init__(self, alg, mode, **kwargs):
            super().__init__(alg, (mode[0], factor * mode[1], *mode[2:]), **kwargs)

    return Scaled


def _scaled_k(factor):
    dk_eigencheck = twisted.dk_eigencheck
    return lambda alg, Q, K, **kwargs: dk_eigencheck(alg, Q, factor * np.asarray(K), **kwargs)


def _scaled_mu(factor):
    scaled_eigenfunction = glz.scaled_eigenfunction
    return lambda mu, r, n, k: scaled_eigenfunction(factor * mu, r, n, k)


# (suite, check, tolerance before, patched attribute, perturbed replacement).
# |K| = 2 and the Z-crystal residual moves by 2e-6 and 1.8e-6 under a 1e-6
# relative change, above the earlier tolerance of 1e-6, so those two
# controls move their input by 1e-7
CONTROLS = [
    ("angular", "D_K eigenvalue magnitude", 1e-6, (twisted, "dk_eigencheck"), lambda: _scaled_k(1 + 1e-7)),
    ("angular", "M eigenvalue (p-q)R", 1e-5, (twisted, "TwistedFunction"), lambda: _scaled_sphere_radius(1 + 1e-6)),
    ("angular", "Delta_Z eigenvalue -R^2", 1e-5, (twisted, "TwistedFunction"),
     lambda: _scaled_sphere_radius(np.sqrt(1 + 1e-6))),  # R^2 by 1e-6
    ("waves", "Z-crystal Schrodinger annihilation", 1e-6, (glz, "scaled_eigenfunction"), lambda: _scaled_mu(1 + 1e-7)),
]


@pytest.mark.parametrize("suite, check, tol_before, target, perturbed", CONTROLS, ids=[c[1] for c in CONTROLS])
def test_small_perturbation_fails_tightened_check(monkeypatch, suite, check, tol_before, target, perturbed):
    rows = {name: (ok, detail) for name, ok, detail in verify.run_suite(suite)}
    assert rows[check][0]
    monkeypatch.setattr(*target, perturbed())
    rows = {name: (ok, detail) for name, ok, detail in verify.run_suite(suite)}
    ok, detail = rows[check]
    assert not ok
    assert detail < tol_before
