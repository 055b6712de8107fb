"""Command-line orchestration: reproducible runs, result cache, reports.

Subcommands: build-group, spectrum, curvature, verify, isospec, waves,
report.  Configs are JSON or [section]-structured key = value text; output
JSON is canonical (sorted keys, 17-significant-digit floats), so identical
config + seed reproduces identical bytes.  Exit codes: 0 success, 1
verification failure, 2 config error, 3 numerical failure.
"""

import argparse
import functools
import hashlib
import json
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .algebra import htype_group, TwoStepAlgebra
from .geometry import SolvableExtension, curvature_report
from .glz import (
    RadialGLZOperator,
    compact_spectrum,
    compact_upper_bound,
    explicit_eigenvalue,
    fullspace_spectrum,
)
from .isospectral import spectra_compare
from .verify import SUITES, run_all
from .waves import (
    PhysicalConstants,
    meson_phase_residual,
    relativistic_residual,
    solvable_split_residual,
    static_split_residual,
    zcrystal_wave_residual,
)


class ConfigError(ValueError):
    pass


def canonical_json(obj, indent=0):
    """Deterministic JSON text: sorted keys, floats at 17 significant digits.

    JSON has no NaN or infinity, so a non-finite float raises
    FloatingPointError (a numerical failure) instead of writing invalid text.
    """
    pad = " " * indent
    if isinstance(obj, dict):
        items = [
            f'{pad}  "{key}": {canonical_json(obj[key], indent + 2).lstrip()}'
            for key in sorted(obj)
        ]
        return pad + "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        items = [canonical_json(v, indent + 2) for v in obj]
        return pad + "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return pad + ("true" if obj else "false")
    if obj is None:
        return pad + "null"
    if isinstance(obj, (int, np.integer)):
        return pad + str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not np.isfinite(obj):
            raise FloatingPointError(f"cannot write the non-finite value {float(obj)} as JSON")
        return pad + format(float(obj), ".17g")
    if isinstance(obj, str):
        return pad + json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


def parse_config(path):
    """JSON if the file starts with '{', otherwise [section] key = value."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc
    config = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            config.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        target = config if section is None else config[section]
        target[key] = parsed
    return config


@functools.lru_cache(maxsize=None)
def _code_digest():
    """sha256 of the package sources, so code changes invalidate the cache."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class ResultCache:
    """Content-addressed store keyed by the hash of (payload, version, code)."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def key(self, payload):
        text = canonical_json({"payload": payload, "version": __version__, "code": _code_digest()})
        return hashlib.sha256(text.encode()).hexdigest()[:24]

    def get(self, payload):
        path = self.root / (self.key(payload) + ".json")
        if path.exists():
            return path.read_bytes()
        return None

    def put(self, payload, data):
        path = self.root / (self.key(payload) + ".json")
        # write-then-rename, so a reader never sees a partial entry
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
        return path


def _load_group(config):
    group = config.get("group", {})
    if "generator_file" in group:
        mats = json.loads(Path(group["generator_file"]).read_text())
        arrays = [np.asarray(m, dtype=float) for m in mats]
        for idx, m in enumerate(arrays):
            if np.abs(m + m.T).max() > 1e-12:
                raise ConfigError(f"generator {idx} in {group['generator_file']} is not skew-symmetric")
        return TwoStepAlgebra(arrays)
    l = _integer("group.l", group.get("l"), 1)
    a = _integer("group.a", group.get("a", 1), 0)
    b = _integer("group.b", group.get("b", 0), 0)
    if a + b == 0:
        raise ConfigError("group.a + group.b must be at least 1")
    return htype_group(l, a, b)


def _integer(name, value, low):
    """A config entry that must be an integer >= low."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")
    return value


_BOUNDARY_CONDITIONS = ("dirichlet", "neumann")


def _boundary_condition(bc):
    """A domain.bc entry: "dirichlet", "neumann" or ["robin", A, B]."""
    if isinstance(bc, str) and bc.lower() in _BOUNDARY_CONDITIONS:
        return bc
    if (
        isinstance(bc, list)
        and len(bc) == 3
        and str(bc[0]).lower() == "robin"
        and all(isinstance(c, (int, float)) for c in bc[1:])
    ):
        return bc
    raise ConfigError(f'domain.bc must be "dirichlet", "neumann" or ["robin", A, B], got {bc!r}')


def _write(out_dir, name, text):
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(text)
    return path


def cmd_build_group(config, out_dir, seed, tol, jobs):
    alg = _load_group(config)
    ok, residual = alg.is_h_type(samples=100, seed=seed, tol=tol or 1e-10)
    summary = {
        "kind": "build-group",
        "k": alg.k,
        "l": alg.l,
        "group": alg.to_json_dict() if alg.space is not None else {"k": alg.k, "l": alg.l},
        "h_type": bool(ok),
        "h_type_residual": float(residual),
    }
    text = canonical_json(summary) + "\n"
    path = _write(out_dir, "group.json", text)
    print(f"k={alg.k} l={alg.l} h-type={ok} residual={residual:.3e} -> {path}")
    return 0


def _one_compact(args):
    k, n, m, mu, R, bc, count, N = args
    rec = compact_spectrum(RadialGLZOperator(k, n, m, mu), R, bc, count=count, N=N)
    return rec


def _check_upper_bound(rec, op, bc):
    """Numerical failure when a compact spectrum breaks its min-max bound."""
    vals = rec.values()
    bound = compact_upper_bound(op, bc)
    if vals.max() > bound + 1e-8 * max(1.0, np.abs(vals).max()):
        raise RuntimeError(
            f"stratum (n={op.n}, m={op.m}, bc={rec.bc}): eigenvalue {vals.max():.6g} "
            f"above the min-max bound {bound:.6g}; the grid does not resolve it"
        )


def cmd_spectrum(config, out_dir, seed, tol, jobs):
    alg = _load_group(config)
    op_cfg = config.get("operator", {})
    dom = config.get("domain", {})
    mode = op_cfg.get("mode", "explicit")
    mu = float(op_cfg.get("mu", 1.0))
    cache = ResultCache(out_dir / "cache")
    payload = {"cmd": "spectrum", "config": {"group": {"k": alg.k, "l": alg.l}, "operator": op_cfg, "domain": dom, "seed": seed}}
    hit = cache.get(payload)
    if hit is not None:
        (out_dir / "spectrum.json").write_bytes(hit)
        print(f"cache hit -> {out_dir / 'spectrum.json'}")
        return 0
    if mode == "explicit":
        r_max = int(op_cfg.get("r_max", 3))
        p_max = int(op_cfg.get("p_max", 2))
        rows = []
        for r in range(r_max + 1):
            for p in range(p_max + 1):
                rows.append({"r": r, "p": p, "value": explicit_eigenvalue(mu, r, p, alg.k)})
        result = {"kind": "spectrum", "mode": "explicit", "mu": mu, "k": alg.k, "rows": rows,
                  "provenance": "explicit"}
        rec_csv = "r,p,value\n" + "\n".join(
            f"{row['r']},{row['p']},{format(row['value'], '.17g')}" for row in rows
        )
    elif mode == "fullspace":
        n = int(op_cfg.get("n", 0))
        m = int(op_cfg.get("m", n))
        count = int(dom.get("count", 5))
        N = int(dom.get("N", 300))
        rec = fullspace_spectrum(RadialGLZOperator(alg.k, n, m, mu), T=float(dom.get("T", 60.0)), N=N, count=count)
        result = {
            "kind": "spectrum", "mode": "fullspace", "mu": mu, "k": alg.k,
            "strata": [{"n": n, "m": m, "values": [float(v) for v in rec.values()]}],
            "provenance": "discretized",
        }
        rec_csv = "n,m,r,value\n" + "\n".join(
            f"{n},{m},{i},{format(v, '.17g')}" for i, v in enumerate(rec.values())
        )
    elif mode == "compact":
        R = float(np.sqrt(dom.get("R2", 40.0)))
        bc = _boundary_condition(dom.get("bc", "dirichlet"))
        count = int(dom.get("count", 5))
        N = int(dom.get("N", 300))
        strata = op_cfg.get("strata", [[0, 0]])
        tasks = [(alg.k, int(n), int(m), mu, R, bc, count, N) for (n, m) in strata]
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                recs = list(pool.map(_one_compact, tasks))
        else:
            recs = [_one_compact(t) for t in tasks]
        for (k, n, m, *_), rec in zip(tasks, recs):
            _check_upper_bound(rec, RadialGLZOperator(k, n, m, mu), bc)
        result = {
            "kind": "spectrum",
            "mode": "compact",
            "mu": mu,
            "k": alg.k,
            "bc": bc,
            "R2": R**2,
            "strata": [
                {"n": t[1], "m": t[2], "values": [float(v) for v in rec.values()]}
                for t, rec in zip(tasks, recs)
            ],
            "provenance": "discretized",
        }
        rec_csv = "n,m,r,value\n" + "\n".join(
            f"{s['n']},{s['m']},{i},{format(v, '.17g')}"
            for s in result["strata"]
            for i, v in enumerate(s["values"])
        )
    else:
        raise ConfigError(f"unknown spectrum mode {mode!r}")
    text = canonical_json(result) + "\n"
    cache.put(payload, text.encode())
    _write(out_dir, "spectrum.json", text)
    _write(out_dir, "spectrum.csv", rec_csv + "\n")
    print(f"{mode} spectrum written -> {out_dir / 'spectrum.json'}")
    return 0


def cmd_curvature(config, out_dir, seed, tol, jobs):
    alg = _load_group(config)
    report = curvature_report(alg, seed=seed, tol=tol or 1e-12)
    q = config.get("q", 1.0)
    if isinstance(q, bool) or not isinstance(q, (int, float)) or not np.isfinite(q) or q <= 0:
        raise ConfigError(f"q must be a finite number > 0, got {q!r}")
    ext = SolvableExtension(alg, q=float(q))
    scalar = ext.scalar_curvature()
    expect = -(alg.k / 4.0 + alg.l) * (alg.k + alg.l + 1.0) if ext.q == 1.0 else None
    result = {"kind": "curvature", "solvable_scalar": float(scalar),
              "solvable_scalar_closed_form": expect, **report}
    text = canonical_json(result) + "\n"
    path = _write(out_dir, "curvature.json", text)
    worst = report["residuals"]["ricci_closed_vs_trace"]
    print(f"Ric(X)= {report['ricci_unit_X']}  Ric(Z)= {report['ricci_unit_Z']}  trace residual {worst:.2e}")
    print(f"solvable scalar {scalar}  closed form {expect} -> {path}")
    return 0


def cmd_verify(config, out_dir, seed, tol, jobs, only=None):
    perturb = bool(config.get("perturb", False))
    results = run_all(only=only, seed=seed, perturb=perturb)
    failed = 0
    lines = []
    for suite, checks in results.items():
        for name, ok, detail in checks:
            flag = "PASS" if ok else "FAIL"
            failed += 0 if ok else 1
            lines.append(f"{flag}  [{suite}] {name}  ({detail:.3e})")
    print("\n".join(lines))
    payload = {
        "kind": "verify",
        "failed": failed,
        "results": {
            suite: [{"check": n, "ok": ok, "detail": d} for n, ok, d in checks]
            for suite, checks in results.items()
        },
    }
    _write(out_dir, "verify.json", canonical_json(payload) + "\n")
    return 0 if failed == 0 else 1


def cmd_isospec(config, out_dir, seed, tol, jobs):
    pair = config.get("pair", {})
    l = int(pair.get("l", 3))
    left = htype_group(l, int(pair.get("a_left", 2)), int(pair.get("b_left", 0)))
    right = htype_group(l, int(pair.get("a_right", 1)), int(pair.get("b_right", 1)))
    if left.k != right.k:
        raise ConfigError("isospectral comparison needs matching X-dimensions")
    dom = config.get("domain", {})
    if "bc" in dom:
        # isospec compares both conditions, but a domain section shared
        # with spectrum (as report configs do) must still be valid
        _boundary_condition(dom["bc"])
    R = float(np.sqrt(dom.get("R2", 16.0)))
    count = int(dom.get("count", 5))
    N = int(dom.get("N", 220))
    mu = float(config.get("operator", {}).get("mu", 1.0))
    n_max = int(config.get("operator", {}).get("n_max", 2))
    reports = []
    ok = True
    for bc in _BOUNDARY_CONDITIONS:
        for n in range(n_max + 1):
            for m in range(-n, n + 1, 2):
                op_l = RadialGLZOperator(left.k, n, m, mu)
                op_r = RadialGLZOperator(right.k, n, m, mu)
                rl = compact_spectrum(op_l, R, bc, count=count, N=N)
                rr = compact_spectrum(op_r, R, bc, count=count, N=N)
                _check_upper_bound(rl, op_l, bc)
                _check_upper_bound(rr, op_r, bc)
                rep = spectra_compare(rl, rr, tol=tol or 1e-6)
                ok = ok and rep["isospectral"]
                reports.append({"bc": bc, "n": n, "m": m, "report": rep})
    result = {"kind": "isospec", "pairs": reports, "isospectral": ok}
    path = _write(out_dir, "isospec.json", canonical_json(result) + "\n")
    print(f"isospectral verdict: {ok} -> {path}")
    return 0 if ok else 1


def cmd_waves(config, out_dir, seed, tol, jobs):
    cc = PhysicalConstants(
        hbar=float(config.get("hbar", 1.0)),
        c=float(config.get("c", 1.0)),
        m=float(config.get("m", 1.0)),
    )
    alg = _load_group(config) if "group" in config else htype_group(1, 1, 0)
    norms = {
        "relativistic_plane_wave": relativistic_residual([1.0, 0.0, 0.0], cc),
        "static_split": static_split_residual(cc),
        "solvable_split": solvable_split_residual(cc, alg.k, alg.l),
        "zcrystal_schrodinger": zcrystal_wave_residual(alg, 2.0 * np.eye(alg.l)[0], 0, 0, 0, cc, "schrodinger"),
        "massless_meson": meson_phase_residual(np.ones(3), PhysicalConstants(m=0.0)),
    }
    for name, val in norms.items():
        print(f"{name}: {val:.3e}")
    result = {"kind": "waves", "residual_norms": {k: float(v) for k, v in norms.items()}}
    _write(out_dir, "waves.json", canonical_json(result) + "\n")
    bad = [k for k, v in norms.items() if v > (tol or 1e-5)]
    return 0 if not bad else 1


_REPORT_SOURCES = {
    "group": "build-group",
    "spectrum": "spectrum",
    "curvature": "curvature",
    "verify": "verify",
    "isospec": "isospec",
    "waves": "waves",
}


def cmd_report(config, out_dir, seed, tol, jobs):
    # recompute any section named in `ensure` whose result file is missing
    for name in config.get("ensure", []):
        if name not in _REPORT_SOURCES:
            raise ConfigError(f"unknown report section {name!r}")
        if not (out_dir / f"{name}.json").exists():
            command = _REPORT_SOURCES[name]
            if command == "verify":
                cmd_verify(config, out_dir, seed, tol, jobs)
            else:
                COMMANDS[command](config, out_dir, seed, tol, jobs)
    pieces = {}
    for name in _REPORT_SOURCES:
        path = out_dir / f"{name}.json"
        if path.exists():
            pieces[name] = json.loads(path.read_text())
    lines = ["# nilspec run report", ""]
    for name, payload in sorted(pieces.items()):
        lines.append(f"## {name}")
        lines.append("```json")
        lines.append(canonical_json(payload))
        lines.append("```")
        lines.append("")
    text = "\n".join(lines)
    _write(out_dir, "report.md", text)
    _write(out_dir, "report.json", canonical_json({"sections": sorted(pieces)}) + "\n")
    print(f"report over {len(pieces)} sections -> {out_dir / 'report.md'}")
    return 0


COMMANDS = {
    "build-group": cmd_build_group,
    "spectrum": cmd_spectrum,
    "curvature": cmd_curvature,
    "verify": cmd_verify,
    "isospec": cmd_isospec,
    "waves": cmd_waves,
    "report": cmd_report,
}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="nilspec", description=__doc__)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="JSON or key=value config file")
    parser.add_argument("--out", default=None, help="output directory (env NILSPEC_OUT)")
    parser.add_argument("--jobs", type=int, default=None, help="worker count (env NILSPEC_JOBS)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--only", default=None, help="restrict verify to one suite")
    args = parser.parse_args(argv)

    out_dir = Path(args.out or os.environ.get("NILSPEC_OUT", "nilspec-out"))
    jobs = args.jobs if args.jobs is not None else int(os.environ.get("NILSPEC_JOBS", "1"))

    config = {}
    if args.config:
        try:
            config = parse_config(args.config)
        except (ConfigError, FileNotFoundError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    if args.only and args.only not in SUITES:
        print(f"config error: unknown suite {args.only!r}", file=sys.stderr)
        return 2

    try:
        if args.command == "verify":
            return cmd_verify(config, out_dir, args.seed, args.tol, jobs, only=args.only)
        return COMMANDS[args.command](config, out_dir, args.seed, args.tol, jobs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (np.linalg.LinAlgError, FloatingPointError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
