import json

import numpy as np
import pytest

from nilspec import cli, geometry, glz
from nilspec.cli import ConfigError, ResultCache, canonical_json, main, parse_config
from nilspec.glz import SpectrumRecord


def run_cli(args):
    return main(args)


def test_canonical_json_deterministic_floats():
    text = canonical_json({"a": 1.0 / 3.0, "b": [1, 2.5]})
    assert "0.33333333333333331" in text
    assert canonical_json({"a": 1.0 / 3.0, "b": [1, 2.5]}) == text


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -np.inf, np.float64("nan")])
def test_canonical_json_rejects_non_finite(bad):
    with pytest.raises(FloatingPointError):
        canonical_json({"a": bad})
    with pytest.raises(FloatingPointError):
        canonical_json({"a": [1.0, {"b": bad}]})


def test_canonical_json_finite_bytes_unchanged():
    text = canonical_json({"b": [1, -2.5e-300, np.float64(0.1)], "a": 1e300, "c": None})
    assert text == (
        '{\n  "a": 1.0000000000000001e+300,\n  "b": [\n    1,\n    -2.5e-300,\n'
        '    0.10000000000000001\n  ],\n  "c": null\n}'
    )


def test_non_finite_result_is_numerical_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "explicit_eigenvalue", lambda mu, r, p, k: float("nan"))
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps({"group": {"l": 1}, "operator": {"mode": "explicit", "r_max": 0, "p_max": 0}}))
    out = tmp_path / "out"
    assert run_cli(["spectrum", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("numerical failure:")
    assert not (out / "spectrum.json").exists()
    assert not list((out / "cache").iterdir())


@pytest.mark.parametrize("command, config", [
    ("spectrum", {"group": {"l": 1}, "operator": {"mode": "compact"}, "domain": {"bc": "wrong", "N": 40}}),
    ("spectrum", {"group": {"l": 1}, "operator": {"mode": "compact"}, "domain": {"bc": ["robin", "a", 1]}}),
    ("spectrum", {"group": {"l": 1}, "operator": {"mode": "compact"}, "domain": {"bc": ["robin", 0, 0]}}),
    ("isospec", {"pair": {"l": 1}, "operator": {"n_max": 0}, "domain": {"bc": ["robin", 0.0, -0.0]}}),
    ("isospec", {"pair": {"l": 1}, "operator": {"n_max": 0}, "domain": {"bc": "wrong", "N": 40}}),
])
def test_unknown_boundary_condition_is_config_error(tmp_path, capsys, command, config):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    assert run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("config error: domain.bc")
    assert "Traceback" not in err


_BAD_GROUPS = [
    {"l": 0},
    {"l": -2},
    {"l": "x"},
    {"l": 2.5},
    {"l": True},
    {"l": 3, "a": 0, "b": 0},
    {"l": 3, "a": -1},
    {"l": 3, "a": 1, "b": -1},
    {"l": 3, "a": "1"},
]


_G1 = {"group": {"l": 1}}
_MALFORMED = [
    ("isospec", {"pair": {"l": 0}}),
    ("isospec", {"pair": {"l": "x"}}),
    ("isospec", {"operator": {"n_max": -1}}),
    ("build-group", {"group": {"l": 40}}),  # above the Clifford size cap
    ("build-group", {"group": {"generator_file": "no-such-generators.json"}}),
    ("build-group", {"group": 3}),
    ("spectrum", {**_G1, "operator": {"mode": "compact"}, "domain": {"count": "abc"}}),
    ("spectrum", {**_G1, "operator": {"mode": "compact"}, "domain": {"count": 0}}),
    ("spectrum", {**_G1, "operator": {"mode": "compact"}, "domain": {"R2": -1}}),
    ("spectrum", {**_G1, "operator": {"mode": "compact", "mu": "x"}}),
    ("spectrum", {**_G1, "operator": {"mode": "compact", "strata": [[0]]}}),
    ("spectrum", {**_G1, "operator": {"mode": "compact", "strata": [[1, 0]]}}),
    ("spectrum", {**_G1, "operator": {"mode": "fullspace", "n": -1}}),
    # fullspace_spectrum's range of T: a larger T would size its quadrature rule
    *[("spectrum", {**_G1, "operator": {"mode": "fullspace", "n": 0}, "domain": {"T": T}})
      for T in (0, -1.0, 700.5, 1e300)],
    # the solvers' range of N: a larger N would size the basis and the pencil
    *[(cmd, {**_G1, "operator": {"mode": mode}, "domain": {"N": N}})
      for cmd, mode in (("spectrum", "compact"), ("spectrum", "fullspace"), ("isospec", "compact"))
      for N in (0, 2049, 10**12)],
    ("spectrum", {**_G1, "operator": {"mode": "explicit", "r_max": "a"}}),
    # mu < 0 has no meaning; at mu = 0 the full-space operator has no L^2 eigenvalues
    ("spectrum", {**_G1, "operator": {"mode": "fullspace", "mu": -1, "n": 1, "m": 1}}),
    ("spectrum", {**_G1, "operator": {"mode": "explicit", "mu": -1}}),
    ("spectrum", {**_G1, "operator": {"mode": "fullspace", "mu": 0, "n": 1, "m": 1}}),
    ("spectrum", {**_G1, "operator": {"mode": "explicit", "mu": 0}}),
    ("spectrum", {**_G1, "operator": {"mode": "wrong"}}),
    ("waves", {"hbar": -1}),
    ("waves", {"c": "fast"}),
    ("verify", {"perturb": True}),  # the key is gone: a mutation table replaces it
    ("report", {"ensure": "spectrum"}),
]


@pytest.mark.parametrize("command, config", [
    *[(cmd, {"group": g}) for cmd in ("build-group", "spectrum", "curvature") for g in _BAD_GROUPS],
    ("build-group", {"group": {"a": 1}}),
    *[("curvature", {"group": {"l": 1}, "q": q})
      for q in (-1, 0, "x", "1.5", None, True, float("nan"), float("inf"))],
    *_MALFORMED,
], ids=lambda v: v if isinstance(v, str) else json.dumps(v))
def test_bad_group_or_q_is_config_error(tmp_path, capsys, command, config):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run_cli([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("config error:")
    assert "Traceback" not in err
    assert not out.exists() or not [p for p in out.rglob("*") if p.is_file()]


@pytest.mark.parametrize("command, config, message", [
    ("spectrum", {"group": {"l": 1}, "operator": {"mode": "explicit", "rmax": 0}}, "unknown key operator.rmax;"),
    ("spectrum", {"group": {"l": 1}, "domian": {"N": 40}}, "unknown section or key 'domian'"),
    ("waves", {"hbar": 1.0, "mass": 0.5}, "unknown section or key 'mass'"),
])
def test_unknown_config_name_is_config_error(tmp_path, capsys, command, config, message):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run_cli([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("config error: " + message)
    assert not out.exists()


def test_parse_config_sections(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[group]\nl = 3\na = 1\nb = 0\n\n[domain]\nbc = \"dirichlet\"\nR2 = 16.0\n")
    parsed = parse_config(cfg)
    assert parsed["group"] == {"l": 3, "a": 1, "b": 0}
    assert parsed["domain"]["bc"] == "dirichlet"


def test_parse_config_json(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"group": {"l": 1, "a": 2, "b": 0}}))
    assert parse_config(cfg)["group"]["a"] == 2


def test_parse_config_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[group]\nthis line has no equals\n")
    with pytest.raises(ConfigError):
        parse_config(cfg)


def test_build_group_command(tmp_path):
    cfg = tmp_path / "g.cfg"
    cfg.write_text("[group]\nl = 3\na = 1\nb = 0\n")
    out = tmp_path / "out"
    assert run_cli(["build-group", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "group.json").read_text())
    assert payload["k"] == 4 and payload["l"] == 3 and payload["h_type"]


def test_build_group_heisenberg(tmp_path):
    cfg = tmp_path / "g.cfg"
    cfg.write_text("[group]\nl = 1\na = 1\nb = 0\n")
    out = tmp_path / "out"
    assert run_cli(["build-group", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "group.json").read_text())["k"] == 2


def test_build_group_rejects_non_skew(tmp_path):
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps([[[0.0, 1.0], [1.0, 0.0]]]))  # symmetric, invalid
    cfg = tmp_path / "g.json"
    cfg.write_text(json.dumps({"group": {"generator_file": str(gen)}}))
    code = run_cli(["build-group", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2


def test_missing_config_is_config_error(tmp_path):
    code = run_cli(["build-group", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
    assert code == 2


def test_spectrum_explicit_and_cache(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(
        "[group]\nl = 1\na = 1\nb = 0\n[operator]\nmode = \"explicit\"\nmu = 1.0\nr_max = 3\np_max = 2\n"
    )
    out = tmp_path / "out"
    assert run_cli(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    first = (out / "spectrum.json").read_bytes()
    payload = json.loads(first)
    assert len(payload["rows"]) == 12
    values = {(row["r"], row["p"]): row["value"] for row in payload["rows"]}
    assert values[(0, 0)] == -6.0 and values[(1, 0)] == -10.0
    # repeated run hits the cache and reproduces identical bytes
    assert run_cli(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "spectrum.json").read_bytes() == first


def test_spectrum_compact_mode(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(
        "[group]\nl = 1\na = 1\nb = 0\n"
        "[operator]\nmode = \"compact\"\nmu = 1.0\nstrata = [[0, 0]]\n"
        "[domain]\nR2 = 40.0\nbc = \"dirichlet\"\ncount = 3\nN = 150\n"
    )
    out = tmp_path / "out"
    assert run_cli(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "spectrum.json").read_text())
    assert payload["provenance"] == "discretized"
    vals = payload["strata"][0]["values"]
    assert abs(vals[0] + 6.0) < 1e-5
    assert (out / "spectrum.csv").exists()


def test_cache_keyed_on_code_digest(tmp_path, monkeypatch):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(
        "[group]\nl = 1\na = 1\nb = 0\n"
        "[operator]\nmode = \"compact\"\nmu = 0.5\nstrata = [[0, 0]]\n"
        "[domain]\nR2 = 9.0\nbc = \"neumann\"\ncount = 2\nN = 60\n"
    )
    out = tmp_path / "out"
    calls = []
    real = cli.compact_spectrum
    monkeypatch.setattr(cli, "compact_spectrum", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    assert run_cli(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    first = (out / "spectrum.json").read_bytes()
    assert run_cli(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    assert calls == [1] and (out / "spectrum.json").read_bytes() == first
    assert not list((out / "cache").glob("*.tmp"))
    # other code, other key: the entry written by this code is not served
    cache = ResultCache(out / "cache")
    payload = {"probe": 1}
    cache.put(payload, b"old")
    assert cache.get(payload) == b"old"
    monkeypatch.setattr(cli, "_code_digest", lambda: "0" * 64)
    assert cache.get(payload) is None
    assert run_cli(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    assert calls == [1, 1]


def test_spectrum_above_minmax_bound_is_numerical_failure(tmp_path, monkeypatch):
    def spurious(op, R, bc, count, N):
        values = [1.0e4] + [-10.0 - i for i in range(count - 1)]
        return SpectrumRecord([{"value": v} for v in values], bc=bc, provenance="discretized")

    monkeypatch.setattr(cli, "compact_spectrum", spurious)
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps({
        "group": {"l": 1, "a": 1, "b": 0},
        "operator": {"mode": "compact", "mu": 1.0, "strata": [[0, 0]]},
        "domain": {"R2": 9.0, "bc": "dirichlet", "count": 3, "N": 60},
    }))
    assert run_cli(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 3
    assert not (tmp_path / "s" / "spectrum.json").exists()
    cfg = tmp_path / "i.json"
    cfg.write_text(json.dumps({"domain": {"R2": 9.0, "count": 3, "N": 60}, "operator": {"mu": 1.0, "n_max": 0}}))
    assert run_cli(["isospec", "--config", str(cfg), "--out", str(tmp_path / "i")]) == 3


@pytest.mark.filterwarnings("error::RuntimeWarning")  # no warning line besides the message
@pytest.mark.parametrize("group, bc", [
    ({"l": 1}, "dirichlet"),  # a weight of the pencil overflows (numpy)
    ({"l": 1, "a": 4}, ["robin", 1.0, 1.0]),  # the Robin term overflows (Python float)
])
def test_overflow_is_numerical_failure(tmp_path, capsys, group, bc):
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps({"group": group, "operator": {"mode": "compact"},
                               "domain": {"R2": 1e300, "bc": bc, "count": 3, "N": 40}}))
    out = tmp_path / "s"
    assert run_cli(["spectrum", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("numerical failure:")
    assert not (out / "spectrum.json").exists()


def test_default_isospec_names_the_failing_stratum(tmp_path, capsys):
    # the default pair reaches the (n=1, m=-1) Dirichlet stratum, whose
    # numerically singular mass matrix gives a spurious positive eigenvalue
    assert run_cli(["isospec", "--out", str(tmp_path / "i")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: stratum (n=1, m=-1, bc=dirichlet): eigenvalue 5578.61 "
                          "above the min-max bound -2")
    assert not (tmp_path / "i" / "isospec.json").exists()


@pytest.mark.parametrize("operator, domain, message", [
    ({"mode": "compact", "mu": 1.0, "strata": [[0, 0]]}, {"R2": 9.0, "bc": "dirichlet", "count": 50, "N": 30},
     "stratum (n=0, m=0, bc=dirichlet): only 30 of 50 eigenvalues at N=30"),
    ({"mode": "fullspace", "mu": 1.0, "n": 0}, {"count": 5, "N": 2}, "of 5 eigenvalues at N=2"),
])
def test_too_few_eigenvalues_is_numerical_failure(tmp_path, capsys, operator, domain, message):
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps({"group": {"l": 1, "a": 1, "b": 0}, "operator": operator, "domain": domain}))
    out = tmp_path / "s"
    assert run_cli(["spectrum", "--config", str(cfg), "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not (out / "spectrum.json").exists()


def test_curvature_command(tmp_path):
    cfg = tmp_path / "g.cfg"
    cfg.write_text("[group]\nl = 3\na = 1\nb = 0\n")
    out = tmp_path / "out"
    assert run_cli(["curvature", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "curvature.json").read_text())
    assert payload["solvable_scalar"] == -32.0
    assert payload["residuals"]["ricci_closed_vs_trace"] < 1e-12
    assert all(payload["within_tol"].values())


def test_verify_command_and_only(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["verify", "--only", "clifford", "--out", str(out)]) == 0
    payload = json.loads((out / "verify.json").read_text())
    assert payload["failed"] == 0


def test_verify_unknown_suite(tmp_path):
    assert run_cli(["verify", "--only", "nope", "--out", str(tmp_path)]) == 2


def test_verify_mutated_library_fails(tmp_path, monkeypatch, capsys):
    # the closed H-type Ricci form with -(l/4) in place of -(l/2): both trace
    # rows of the curvature suite read FAIL, and the others still PASS
    def halved_x_term(alg, U, V):
        (Xu, Zu), (Xv, Zv) = U, V
        return -(alg.l / 4.0) * geometry._dot(Xu, Xv) + (alg.k / 4.0) * geometry._dot(Zu, Zv)

    monkeypatch.setattr(geometry, "ricci_htype", halved_x_term)
    out = tmp_path / "o"
    assert run_cli(["verify", "--only", "curvature", "--out", str(out)]) == 1
    payload = json.loads((out / "verify.json").read_text())
    failed = sorted(row["check"] for row in payload["results"]["curvature"] if not row["ok"])
    assert failed == ["H^(1,0)_3 ricci trace vs closed", "H^(1,1)_3 ricci trace vs closed"]
    assert payload["failed"] == 2
    assert "FAIL  [curvature] H^(1,0)_3 ricci trace vs closed" in capsys.readouterr().out


def test_removed_tol_flag_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["waves", "--tol", "1e-6", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["build-group", "curvature", "verify", "spectrum", "isospec", "waves"])
def test_negative_seed_is_config_error(tmp_path, capsys, command):
    cfg = tmp_path / "g.json"
    cfg.write_text(json.dumps({"group": {"l": 1}}))
    args = [command, "--seed", "-1", "--out", str(tmp_path / "o")]
    if command in ("build-group", "curvature", "spectrum"):
        args += ["--config", str(cfg)]
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert err == "config error: --seed must be >= 0, got -1\n"
    assert not (tmp_path / "o").exists()


def test_verify_check_that_raises_fails_only_its_row(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("Bessel zeros unavailable")

    monkeypatch.setattr(glz, "zball_eigenvalues", broken)
    out = tmp_path / "out"
    assert run_cli(["verify", "--only", "glz", "--out", str(out)]) == 1
    payload = json.loads((out / "verify.json").read_text())
    rows = {row["check"]: row for row in payload["results"]["glz"]}
    assert {name: row["ok"] for name, row in rows.items()} == {
        "collocation vs explicit (subset)": True,
        "Laguerre orthogonality": True,
        "Z-ball l=3 Dirichlet": False,
    }
    assert rows["Z-ball l=3 Dirichlet"]["detail"].startswith("RuntimeError: Bessel zeros unavailable (")
    assert payload["failed"] == 1
    assert "FAIL  [glz] Z-ball l=3 Dirichlet  (RuntimeError:" in capsys.readouterr().out


def test_waves_command(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["waves", "--out", str(out)]) == 0
    payload = json.loads((out / "waves.json").read_text())
    assert payload["residual_norms"]["static_split"] == 0.0


def test_isospec_command(tmp_path):
    cfg = tmp_path / "i.json"
    cfg.write_text(json.dumps({
        "pair": {"l": 3, "a_left": 2, "b_left": 0, "a_right": 1, "b_right": 1},
        "domain": {"R2": 9.0, "count": 3, "N": 100},
        "operator": {"mu": 1.0, "n_max": 1},
    }))
    out = tmp_path / "out"
    assert run_cli(["isospec", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "isospec.json").read_text())
    assert payload["isospectral"]


def test_report_command(tmp_path):
    cfg = tmp_path / "g.cfg"
    cfg.write_text("[group]\nl = 1\na = 1\nb = 0\n")
    out = tmp_path / "out"
    run_cli(["build-group", "--config", str(cfg), "--out", str(out)])
    run_cli(["waves", "--out", str(out)])
    assert run_cli(["report", "--out", str(out)]) == 0
    text = (out / "report.md").read_text()
    assert "## group" in text and "## waves" in text


def test_report_recomputes_missing_sections(tmp_path):
    cfg = tmp_path / "r.json"
    cfg.write_text(json.dumps({"group": {"l": 1, "a": 1, "b": 0}, "ensure": ["waves", "curvature"]}))
    out = tmp_path / "out"
    assert run_cli(["report", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "waves.json").exists() and (out / "curvature.json").exists()
    text = (out / "report.md").read_text()
    assert "## waves" in text and "## curvature" in text


def test_env_output_dir(tmp_path, monkeypatch):
    cfg = tmp_path / "g.cfg"
    cfg.write_text("[group]\nl = 1\na = 1\nb = 0\n")
    target = tmp_path / "env-out"
    monkeypatch.setenv("NILSPEC_OUT", str(target))
    assert run_cli(["build-group", "--config", str(cfg)]) == 0
    assert (target / "group.json").exists()


def test_determinism_same_seed_same_bytes(tmp_path):
    cfg = tmp_path / "g.cfg"
    cfg.write_text("[group]\nl = 3\na = 1\nb = 0\n")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    run_cli(["build-group", "--config", str(cfg), "--out", str(out1), "--seed", "7"])
    run_cli(["build-group", "--config", str(cfg), "--out", str(out2), "--seed", "7"])
    assert (out1 / "group.json").read_bytes() == (out2 / "group.json").read_bytes()
    assert run_cli(["verify", "--out", str(out1), "--seed", "7"]) == 0
    assert run_cli(["verify", "--out", str(out2), "--seed", "7"]) == 0
    assert (out1 / "verify.json").read_bytes() == (out2 / "verify.json").read_bytes()
