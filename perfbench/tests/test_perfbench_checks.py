"""Negative controls of the benchmark checker: a right output passes and a
perturbed one fails, for every kind of operation.  Also checks that
BENCHMARK.json names exactly the metrics run.py reports."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import jn_zeros

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import Op, cycle, monomials  # noqa: E402


def _check(kind, params, out, data=None):
    return checks.Checker().check(Op(kind, params, data or {}), out)


def test_compact_zero_mu_matches_bessel_and_perturbation_fails():
    p = {"k": 4, "n": 1, "m": 1, "mu": 0.0, "R": 2.0, "bc": "dirichlet", "count": 5, "N": 100}
    exact = -((jn_zeros(2, 5) / 2.0) ** 2)
    assert _check("compact", p, exact) is None
    wrong = exact.copy()
    wrong[3] *= 1 + 1e-4
    assert _check("compact", p, wrong) is not None
    assert _check("compact", p, exact[:4]) is not None


def test_compact_bound_rejects_spurious_positive_value():
    from nilspec import glz

    p = {"k": 2, "n": 0, "m": 0, "mu": 0.9, "R": 2.5, "bc": "neumann", "count": 4, "N": 100}
    values = glz.compact_spectrum(glz.RadialGLZOperator(2, 0, 0, 0.9), 2.5, "neumann", count=4, N=100).values()
    assert _check("compact", p, values) is None
    assert _check("compact", p, np.concatenate([[1.38e6], values[:-1]])) is not None
    assert _check("compact", p, values - (0.9 * 2.5) ** 2 - 1.0) is not None  # below the min-max bracket


def test_compact_robin_reference_matches_program():
    from nilspec import glz

    p = {"k": 4, "n": 0, "m": 0, "mu": 0.0, "R": 1.7, "bc": "robin", "robin": [0.6, 0.8], "count": 5, "N": 200}
    values = glz.compact_spectrum(glz.RadialGLZOperator(4, 0, 0, 0.0), 1.7, ("robin", 0.6, 0.8), count=5, N=200).values()
    assert _check("compact", p, values) is None
    assert _check("compact", {**p, "robin": [0.6, 0.7]}, values) is not None


def test_fullspace_closed_form():
    p = {"k": 4, "n": 2, "m": 0, "mu": 1.3, "count": 4, "N": 100}
    exact = [-((4.0 * r + 4.0 + 4) * 1.3 + 4.0 * 1.3**2) for r in range(4)]
    assert _check("fullspace", p, exact) is None
    assert _check("fullspace", p, [v * (1 + 1e-5) for v in exact]) is not None


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_zball_reference(bc):
    from nilspec import glz

    p = {"l": 3, "s": 0, "R": 1.3, "bc": bc, "count": 5}
    values = glz.zball_eigenvalues(3, 0, 1.3, bc=bc, count=5)
    assert _check("zball", p, values) is None
    values[2] += 1e-6
    assert _check("zball", p, values) is not None


def test_htype_generators_perturbed():
    from workloads import run_htype

    p = {"l": 3, "a": 1, "b": 1, "samples": 4, "seed": 5}
    out = run_htype(p, {})
    assert _check("htype", p, out) is None
    J = np.array(out["J"])
    J[1, 0, 3] += 1e-9
    assert _check("htype", p, {**out, "J": J}) is not None
    assert _check("htype", {**p, "b": 0}, out) is not None


def test_harmonic_projection_and_decomposition_perturbed():
    from workloads import run_decomposition, run_projection

    rng = np.random.default_rng(3)
    mons = monomials(4, 5)
    data = {"coeffs": {e: complex(x, y) for e, x, y in zip(mons, rng.standard_normal(len(mons)), rng.standard_normal(len(mons)))}}
    p = {"d": 4, "degree": 5}
    H = run_projection(p, data)
    assert _check("projection", p, H, data) is None
    assert _check("projection", p, {}, data) is not None  # harmonic, but not the projection
    bent = dict(H)
    bent[(5, 0, 0, 0)] = bent.get((5, 0, 0, 0), 0.0) + 1e-6
    assert _check("projection", p, bent, data) is not None
    parts = run_decomposition(p, data)
    assert _check("decomposition", p, parts, data) is None
    i, degree, coeffs = parts[-1]
    key = next(iter(coeffs))
    assert _check("decomposition", p, parts[:-1] + [(i, degree, {**coeffs, key: coeffs[key] + 1e-9})], data) is not None


def test_boundary_residual_and_vanishing_function():
    p = {"bc": "dirichlet"}
    assert _check("boundary", p, {"residual": 1e-12, "interior": 0.3}) is None
    assert _check("boundary", p, {"residual": 1e-6, "interior": 0.3}) is not None
    assert _check("boundary", p, {"residual": 0.0, "interior": 0.0}) is not None
    assert _check("boundary", {"bc": "neumann"}, {"residual": 1e-4, "interior": 0.3}) is not None


def test_twisted_full_against_polar_quadrature():
    from workloads import run_twisted_full

    ops = [op for op in cycle("structures", 4, 0) if op.kind == "twisted_full"]
    for op in ops:
        out = run_twisted_full(op.params, {})
        assert _check("twisted_full", op.params, out) is None
        assert _check("twisted_full", op.params, {**out, "value": out["value"] * (1 + 1e-5)}) is not None


def test_cli_outputs():
    checker = checks.Checker()
    cfg = {
        "group": {"l": 1, "a": 1, "b": 0},
        "operator": {"mode": "compact", "mu": 0.0, "strata": [[0, 0]]},
        "domain": {"R2": 4.0, "bc": "dirichlet", "count": 3, "N": 100},
    }
    op = Op("spectrum_cold", {"command": "spectrum", "config": cfg, "env": {}, "out": "c0", "seed": 0})
    good = {"k": 2, "strata": [{"n": 0, "m": 0, "values": list(-((jn_zeros(0, 3) / 2.0) ** 2))}]}
    out = {"exit": 0, "bytes": json.dumps(good).encode(), "log": ""}
    assert checker.check(op, out) is None
    assert checker.check(op, {**out, "bytes": out["bytes"] + b" "}) is not None  # not the first run's bytes
    assert checker.check(op, {**out, "exit": 3, "log": "numerical failure"}) is not None
    other = Op("spectrum_cold", {**op.params, "seed": 1})
    assert checker.check(other, {**out, "bytes": b"{nan"}) is not None
    bad = {"k": 2, "strata": [{"n": 0, "m": 0, "values": [5.0] + good["strata"][0]["values"][1:]}]}
    third = Op("spectrum_cold", {**op.params, "seed": 2})
    assert checker.check(third, {**out, "bytes": json.dumps(bad).encode()}) is not None


def test_benchmark_json_names_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    for m in bench["per_layer"]:
        stat = m["name"].rpartition(".")[2]
        assert stat in spans.STATS or m["name"] in run.TRACE_EXTRA, m["name"]
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert {name: units.get(name) for name in run.TRACE_EXTRA} == run.TRACE_EXTRA


def test_run_refuses_a_tree_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    dest = tmp_path / "perfbench"
    dest.mkdir()
    for src in BENCH.glob("*.py"):
        (dest / src.name).write_text(src.read_text())
    argv = [sys.executable, "perfbench/run.py", "--workload", "radial", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
