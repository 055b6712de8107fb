import copy

import numpy as np
import pytest

from nilspec.algebra import htype_group
from nilspec.geometry import laplacian_apply
from nilspec.glz import RadialGLZOperator, compact_spectrum
from nilspec.isospectral import (
    IntertwineSpec,
    intertwine,
    isotropy_sweep,
    point_transformation,
    reduced_operator_for_pole,
    spectra_compare,
)
from nilspec.twisted import TwistedFunction, boundary_functions, theta_eval

H10 = htype_group(3, 1, 0)
H20 = htype_group(3, 2, 0)
H11 = htype_group(3, 1, 1)
Q0 = np.array([1.0, 0.0, 0.0, 0.0])


def test_point_transformation_identity():
    O, resid = point_transformation(H10, Q0, Q0)
    assert resid < 1e-12
    assert np.abs(O - np.eye(4)).max() < 1e-12


def test_point_transformation_heisenberg_rotation():
    heis = htype_group(1, 1)
    O, resid = point_transformation(heis, np.array([1.0, 0.0]), np.array([0.6, 0.8]))
    assert resid < 1e-12
    assert np.allclose(O @ np.array([0.6, 0.8]), [1.0, 0.0])
    assert abs(np.linalg.det(O) - 1.0) < 1e-12


def test_point_transformation_quaternionic_pullback():
    # Q-span is the whole X-space on H^(1,0)_3
    Qt = np.array([0.0, 0.6, 0.8, 0.0])
    O, resid = point_transformation(H10, Q0, Qt)
    assert resid < 1e-12
    rng = np.random.default_rng(0)
    for _ in range(6):
        X = rng.standard_normal(4)
        Ku = rng.standard_normal(3)
        Ku /= np.linalg.norm(Ku)
        lhs = theta_eval(H10, Q0, O @ X, Ku)
        rhs = theta_eval(H10, Qt, X, Ku)
        assert abs(lhs - rhs) < 1e-12


def test_intertwine_identity_and_even_flip():
    tf = TwistedFunction(H10, ("sphere", 2.0), Q=Q0, p=1, q=1, project_x=True, sphere_order=12)
    same = intertwine(IntertwineSpec(source_Q=Q0, target_Q=Q0), tf)
    rng = np.random.default_rng(1)
    X, Z = rng.standard_normal(4), rng.standard_normal(3)
    assert same(X, Z) == pytest.approx(tf(X, Z))
    flipped = intertwine(IntertwineSpec(source_Q=Q0, target_Q=-Q0), tf)
    assert flipped(X, Z) == pytest.approx(tf(X, Z))  # even polynomial


def test_intertwine_validates_source():
    tf = TwistedFunction(H10, ("sphere", 2.0), Q=Q0, p=1, q=0)
    with pytest.raises(ValueError):
        intertwine(IntertwineSpec(source_Q=np.array([0.0, 1.0, 0.0, 0.0])), tf)
    with pytest.raises(ValueError):
        IntertwineSpec(source_Q=Q0, target_Q=2.0 * Q0)


def test_intertwine_structure_flip_matches_direct():
    # Omega: rebuild with the sign-flipped second block (H^(2,0) -> H^(1,1))
    tf = TwistedFunction(H20, ("sphere", 2.0), Q=np.eye(8)[0], p=1, q=0, sphere_order=12)
    out = intertwine(IntertwineSpec(source_Q=np.eye(8)[0], target_alg=H11), tf)
    direct = TwistedFunction(H11, ("sphere", 2.0), Q=np.eye(8)[0], p=1, q=0, sphere_order=12)
    rng = np.random.default_rng(2)
    X, Z = rng.standard_normal(8), rng.standard_normal(3)
    assert out(X, Z) == pytest.approx(direct(X, Z))


def test_intertwine_commutes_with_laplacian():
    # pullback by the point transformation intertwines the Laplacian action
    Qt = np.array([0.0, 0.6, 0.8, 0.0])
    O, _ = point_transformation(H10, Q0, Qt)
    tf_src = TwistedFunction(
        H10, ("sphere", 2.0), Q=Q0, p=1, q=0, project_x=True,
        radial=lambda x, kk: np.exp(-x * x / 2.0), sphere_order=12,
    )
    tf_tgt = intertwine(IntertwineSpec(source_Q=Q0, target_Q=Qt), tf_src)
    rng = np.random.default_rng(3)
    X, Z = 0.5 * rng.standard_normal(4), 0.4 * rng.standard_normal(3)
    lhs = laplacian_apply(H10, lambda Xv, Zv: tf_src(O @ Xv, Zv), X, Z)
    rhs = laplacian_apply(H10, tf_tgt, X, Z)
    scale = max(abs(tf_tgt(X, Z)), 1e-6)
    assert abs(lhs - rhs) / scale < 1e-6


def test_spectra_compare_identical_and_perturbed():
    rec1 = compact_spectrum(RadialGLZOperator(4, 0, 0, 1.0), 3.0, "dirichlet", count=5, N=120)
    rec2 = compact_spectrum(RadialGLZOperator(4, 0, 0, 1.0), 3.0, "dirichlet", count=5, N=120)
    assert spectra_compare(rec1, rec2, tol=1e-10)["isospectral"]
    rec3 = copy.deepcopy(rec2)
    rec3.eigenvalues[2]["value"] += 1e-3
    rep = spectra_compare(rec1, rec3, tol=1e-6)
    assert not rep["isospectral"]
    assert rep["mismatches"][0]["index"] == 2


def test_spectra_compare_length_defect():
    rec1 = compact_spectrum(RadialGLZOperator(4, 0, 0, 1.0), 3.0, "dirichlet", count=4, N=120)
    rec2 = compact_spectrum(RadialGLZOperator(4, 0, 0, 1.0), 3.0, "dirichlet", count=6, N=120)
    rep = spectra_compare(rec1, rec2, tol=1e-8)
    assert rep["length_defect"] == 2
    assert not rep["isospectral"]


def test_reduced_operator_pole_independent():
    poles = [np.eye(8)[0], np.ones(8) / np.sqrt(8.0)]
    params = []
    for Q in poles:
        op = reduced_operator_for_pole(H11, Q, n=2, m=0, mu=1.0)
        params.append((op.k, op.n, op.m, op.mu))
    assert params[0] == params[1]


def test_isotropy_sweep():
    poles = [np.eye(8)[0], np.ones(8) / np.sqrt(8.0)]
    out = isotropy_sweep(H11, R=4.0, bc="dirichlet", poles=poles, strata=[(0, 0), (1, 1)], count=4, N=120)
    assert out["isotropic"]
    assert out["operators"]["pole0"] == out["operators"]["pole1"]


def test_isotropy_single_pole_trivial():
    out = isotropy_sweep(H10, R=4.0, bc="dirichlet", poles=[Q0], strata=[(0, 0)], count=3, N=120)
    assert out["isotropic"]


def test_c_symmetry_reduced_spectra():
    # H^(a,b) and H^(b,a) share the reduced operator: spectra identical lists
    mu = 1.0
    for (n, m) in [(0, 0), (1, 1), (1, -1)]:
        ra = compact_spectrum(RadialGLZOperator(H20.k, n, m, mu), 3.0, "dirichlet", count=4, N=120)
        rb = compact_spectrum(RadialGLZOperator(htype_group(3, 0, 2).k, n, m, mu), 3.0, "dirichlet", count=4, N=120)
        assert np.abs(ra.values() - rb.values()).max() == 0.0


def test_intertwined_boundary_residuals_preserved():
    src = boundary_functions(H20, s=0, i=1, bc="dirichlet", p=1, q=0, Q=np.eye(8)[0], R=1.0, sphere_order=14)
    out = intertwine(IntertwineSpec(source_Q=np.eye(8)[0], target_alg=H11), src)
    X0 = 0.3 * np.ones(8)
    res_src = src.boundary_residual(X0, "dirichlet", n_dir=6)
    res_out = out.boundary_residual(X0, "dirichlet", n_dir=6)
    assert res_src < 1e-8 and res_out < 1e-8
    assert abs(res_src - res_out) < 1e-8
