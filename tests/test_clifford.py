import numpy as np
import pytest
from mutants import Edit, mutant

from nilspec import clifford
from nilspec.clifford import (
    CliffordModule,
    SizeCapExceeded,
    build_generators,
    endomorphism_space,
    irreducible_dimension,
)


def test_dimension_table_low():
    assert irreducible_dimension(3) == 4
    assert irreducible_dimension(7) == 8
    assert irreducible_dimension(9) == 32


def test_dimension_table_mod8():
    base = [2, 4, 4, 8, 8, 8, 8, 16]
    for p in range(3):
        for r in range(8):
            l = 8 * p + r
            if l == 0:
                continue
            assert irreducible_dimension(l) == base[r - 1] * 16**p if r else 16**p


def test_l1_generator_is_standard_rotation():
    mod = build_generators(1)
    assert mod.generators[0].tolist() == [[0, -1], [1, 0]]


def test_l3_quaternion_left_multiplication():
    # j_1 on the basis (1, i, j, k): 1 -> i, i -> -1, j -> k, k -> -j
    j1 = build_generators(3).generators[0]
    e = np.eye(4)
    assert np.array_equal(j1 @ e[0], e[1])
    assert np.array_equal(j1 @ e[1], -e[0])
    assert np.array_equal(j1 @ e[2], e[3])
    assert np.array_equal(j1 @ e[3], -e[2])


def test_l2_anticommutation():
    mod = build_generators(2)
    j1, j2 = mod.generators
    assert np.array_equal(j1 @ j2, -(j2 @ j1))
    assert mod.anticommutation_residual() == 0


@pytest.mark.parametrize("l", range(1, 10))
def test_generators_exact_relations(l):
    mod = build_generators(l)
    assert mod.n == irreducible_dimension(l)
    assert mod.anticommutation_residual() == 0


def test_size_cap():
    with pytest.raises(SizeCapExceeded):
        build_generators(25)


def test_build_generators_deterministic():
    a = build_generators(5)
    b = build_generators(5)
    for ga, gb in zip(a.generators, b.generators):
        assert np.array_equal(ga, gb)


def test_build_generators_cached_and_read_only(monkeypatch):
    mod = build_generators(5)
    assert build_generators(5) is mod
    with pytest.raises(ValueError):
        mod.generators[0][0, 0] = 7
    # the size cap is read at each call, before the cache is consulted
    monkeypatch.setattr(clifford, "DEFAULT_SIZE_CAP", 4)
    with pytest.raises(SizeCapExceeded, match="exceeds size cap 4"):
        build_generators(5)


def test_module_keeps_its_checked_generators():
    gens = [g.copy() for g in build_generators(2).generators]
    mod = CliffordModule(l=2, n=4, generators=gens)
    gens[0][:] = 0  # mutating the caller's arrays leaves the module intact
    assert mod.anticommutation_residual() == 0
    with pytest.raises(ValueError):
        mod.generators[1][:] = 0


def test_build_J_block_signs():
    space = endomorphism_space(1, 1, 1)
    J = space.J([1.0])
    assert np.allclose(J[:2, :2], [[0, -1], [1, 0]])
    assert np.allclose(J[2:, 2:], [[0, 1], [-1, 0]])


def test_build_J_one_block():
    space = endomorphism_space(1, 1, 0)
    assert np.allclose(space.J([1.0]), [[0, -1], [1, 0]])


def test_J_squared_random_unit_Z():
    rng = np.random.default_rng(0)
    space = endomorphism_space(3, 1, 0)
    Z = rng.standard_normal(3)
    Z /= np.linalg.norm(Z)
    J = space.J(Z)
    assert np.abs(J @ J + np.eye(4)).max() < 1e-14


@pytest.mark.parametrize("l", [1, 2, 3, 5, 7, 9])
def test_htype_and_polarization_properties(l):
    rng = np.random.default_rng(l)
    space = endomorphism_space(l, 1, 1 if l == 3 else 0)
    eye = np.eye(space.k)
    for _ in range(10):
        Z = rng.standard_normal(l)
        J = space.J(Z)
        assert np.abs(J @ J + (Z @ Z) * eye).max() < 1e-12
        Z2 = rng.standard_normal(l)
        Z2 -= Z * (Z @ Z2) / (Z @ Z)
        J2 = space.J(Z2)
        assert np.abs(J @ J2 + J2 @ J).max() < 1e-12


def test_J_linear_in_Z():
    space = endomorphism_space(3, 2, 1)
    rng = np.random.default_rng(1)
    Z, V = rng.standard_normal(3), rng.standard_normal(3)
    a, b = 2.0, -0.75
    assert np.array_equal(space.J(a * Z + b * V), a * space.J(Z) + b * space.J(V))


def test_invalid_module_rejected():
    good = build_generators(2)
    bad = [good.generators[0], good.generators[0]]
    with pytest.raises(ValueError):
        CliffordModule(l=2, n=4, generators=bad)


@pytest.mark.parametrize("owner, attr, edit", [
    pytest.param(clifford, "irreducible_dimension", Edit("_RESIDUE_EXPONENT[r]", "_RESIDUE_EXPONENT[r - 1]"),
                 id="period-8 table read one residue early"),
    pytest.param(CliffordModule, "anticommutation_residual", Edit("-2 * eye if a == b", "-1 * eye if a == b"),
                 id="anticommutation target -I for -2I"),
])
def test_mutated_table_or_relations_refuse_the_build(monkeypatch, owner, attr, edit):
    # construction checks each module against the period-8 table and the
    # Clifford relations, so a mutation of either builds no module
    monkeypatch.setattr(owner, attr, mutant(getattr(owner, attr), edit))
    clifford._irreducible_module.cache_clear()
    try:
        with pytest.raises(ValueError):
            for l in range(1, 10):
                build_generators(l)
    finally:
        clifford._irreducible_module.cache_clear()


def test_json_export_roundtrip():
    mod = build_generators(3)
    d = mod.to_json_dict()
    assert d["l"] == 3 and d["n"] == 4
    mats = [np.asarray(g) for g in d["generators"]]
    assert all(np.array_equal(a, b) for a, b in zip(mats, mod.generators))
