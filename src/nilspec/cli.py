"""Command-line orchestration: reproducible runs, result cache, reports.

Subcommands: build-group, spectrum, curvature, verify, isospec, waves,
report.  Configs are JSON or [section]-structured key = value text; every
key is read through one table, and a malformed key is a config error
before any computation.  Output JSON is canonical (sorted keys,
17-significant-digit floats), so identical config + seed reproduces
identical bytes.  Exit codes: 0 success, 1 verification failure, 2 config
error, 3 numerical failure.
"""

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .algebra import htype_group, TwoStepAlgebra
from .clifford import SizeCapExceeded
from .geometry import SolvableExtension, curvature_report
from .glz import (
    _N_MAX,
    _T_MAX,
    RadialGLZOperator,
    compact_spectrum,
    compact_upper_bound,
    explicit_eigenvalue,
    fullspace_spectrum,
)
from .isospectral import spectra_compare
from .verify import CHECKS, SUITES, run_all
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
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(str(exc)) from exc
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


# report section: the command that writes it
_REPORT_SOURCES = {"group": "build-group", "spectrum": "spectrum", "curvature": "curvature",
                   "verify": "verify", "isospec": "isospec", "waves": "waves"}


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _is_bc(v):
    if isinstance(v, str):
        return v.lower() in ("dirichlet", "neumann")
    return (isinstance(v, list) and len(v) == 3 and isinstance(v[0], str) and v[0].lower() == "robin"
            and all(_is_number(c) for c in v[1:]) and (v[1], v[2]) != (0, 0))


_KINDS = {  # kind: (test, description)
    "int": (_is_int, "an integer"),
    "number": (_is_number, "a finite number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "mode": (lambda v: v in ("explicit", "fullspace", "compact"), 'one of "explicit", "fullspace", "compact"'),
    "bc": (_is_bc, '"dirichlet", "neumann" or ["robin", A, B], A and B not both 0'),
    "strata": (lambda v: isinstance(v, list) and len(v) > 0 and all(
        isinstance(s, list) and len(s) == 2 and all(map(_is_int, s)) for s in v
    ), "a non-empty list of [n, m] integer pairs"),
    "sections": (lambda v: isinstance(v, list) and all(isinstance(s, str) and s in _REPORT_SOURCES for s in v),
                 f"a list of report sections out of {sorted(_REPORT_SOURCES)}"),
}

# the ranges of the two solvers' own limits on N and T
_N_RANGE = f">= 1 and <= {_N_MAX}"
_T_RANGE = f"> 0 and <= {_T_MAX:g}"

# Every config key: (kind, default, range), the range a key of _RANGES or None.
# The library objects built from the values (groups, radial operators,
# solvable extensions, physical constants) make their own checks, which
# _build turns into config errors.
_KEYS = {
    "group.generator_file": ("str", None, None),
    "group.l": ("int", None, None),
    "group.a": ("int", 1, None),
    "group.b": ("int", 0, None),
    "pair.l": ("int", 3, None),
    "pair.a_left": ("int", 2, None),
    "pair.b_left": ("int", 0, None),
    "pair.a_right": ("int", 1, None),
    "pair.b_right": ("int", 1, None),
    "operator.mode": ("mode", "explicit", None),
    "operator.mu": ("number", 1.0, ">= 0"),
    "operator.r_max": ("int", 3, ">= 0"),
    "operator.p_max": ("int", 2, ">= 0"),
    "operator.n": ("int", 0, None),
    "operator.m": ("int", None, None),  # defaults to operator.n
    "operator.strata": ("strata", [[0, 0]], None),
    "operator.n_max": ("int", 2, ">= 0"),
    "domain.R2": ("number", 40.0, "> 0"),
    "domain.bc": ("bc", "dirichlet", None),
    "domain.count": ("int", 5, "> 0"),
    "domain.N": ("int", 300, _N_RANGE),
    "domain.T": ("number", 60.0, _T_RANGE),
    "q": ("number", 1.0, None),
    "ensure": ("sections", [], None),
    "hbar": ("number", 1.0, None),
    "c": ("number", 1.0, None),
    "m": ("number", 1.0, None),
}

_RANGES = {"> 0": lambda v: v > 0, ">= 0": lambda v: v >= 0, _N_RANGE: lambda v: 1 <= v <= _N_MAX,
           _T_RANGE: lambda v: 0 < v <= _T_MAX}

_SECTIONS = {key.partition(".")[0] for key in _KEYS if "." in key}


def _check_names(config):
    """Reject every section and key that _KEYS does not name, so a
    misspelled key is an error instead of a silent default."""
    for name, value in config.items():
        if name in _SECTIONS:
            known = sorted(key.partition(".")[2] for key in _KEYS if key.startswith(name + "."))
            for key in value:
                if key not in known:
                    raise ConfigError(f"unknown key {name}.{key}; [{name}] takes {', '.join(known)}")
        elif name not in _KEYS:
            raise ConfigError(f"unknown section or key {name!r}")


def _setting(config, key, default=None):
    """The checked value of `key`, "section.name" or a top-level name.

    A missing key reads as `default` when given, else as the table's default.
    """
    kind, table_default, bound = _KEYS[key]
    section, _, name = key.rpartition(".")
    scope = config.get(section, {}) if section else config
    if not isinstance(scope, dict):
        raise ConfigError(f"[{section}] must be a section of key = value entries, got {scope!r}")
    if name not in scope:
        return table_default if default is None else default
    value = scope[name]
    test, description = _KINDS[kind]
    if not test(value):
        raise ConfigError(f"{key} must be {description}, got {value!r}")
    if bound is not None and not _RANGES[bound](value):
        raise ConfigError(f"{key} must be {bound}, got {value!r}")
    return float(value) if kind == "number" else value


def _build(what, factory, *args):
    """factory(*args) for a library object the config names; its own checks
    (ValueError, the Clifford size cap, an unreadable file) are config errors."""
    try:
        return factory(*args)
    except (OSError, ValueError, SizeCapExceeded) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _read_generators(path):
    mats = json.loads(Path(path).read_text())
    if not isinstance(mats, list) or not mats:
        raise ValueError("expected a non-empty JSON list of matrices")
    return TwoStepAlgebra([np.asarray(m, dtype=float) for m in mats])


def _load_group(config):
    path = _setting(config, "group.generator_file")
    if path is not None:
        return _build("group.generator_file", _read_generators, path)
    l = _setting(config, "group.l")
    if l is None:
        raise ConfigError("group.l or group.generator_file is required")
    return _build("group", htype_group, l, _setting(config, "group.a"), _setting(config, "group.b"))


def _write(out_dir, name, text):
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(text)
    return path


def _compact(op, R, bc, count, N):
    """compact_spectrum; a numerical failure, naming the stratum, when the
    solve fails or breaks its min-max bound."""
    try:
        rec = compact_spectrum(op, R, bc, count=count, N=N)
    except RuntimeError as exc:
        raise RuntimeError(f"stratum (n={op.n}, m={op.m}, bc={bc}): {exc}") from exc
    vals = rec.values()
    bound = compact_upper_bound(op, bc)
    if vals.max() > bound + 1e-8 * max(1.0, np.abs(vals).max()):
        raise RuntimeError(f"stratum (n={op.n}, m={op.m}, bc={rec.bc}): eigenvalue {vals.max():.6g} "
                           f"above the min-max bound {bound:.6g}; the grid does not resolve it")
    return rec


def cmd_build_group(config, opts):
    alg = _load_group(config)
    ok, residual = alg.is_h_type(samples=100, seed=opts.seed)
    summary = {
        "kind": "build-group",
        "k": alg.k,
        "l": alg.l,
        "group": alg.to_json_dict() if alg.space is not None else {"k": alg.k, "l": alg.l},
        "h_type": bool(ok),
        "h_type_residual": float(residual),
    }
    path = _write(opts.out, "group.json", canonical_json(summary) + "\n")
    print(f"k={alg.k} l={alg.l} h-type={ok} residual={residual:.3e} -> {path}")
    return 0


def cmd_spectrum(config, opts):
    alg = _load_group(config)
    mode = _setting(config, "operator.mode")
    mu = _setting(config, "operator.mu")
    count = _setting(config, "domain.count")
    N = _setting(config, "domain.N")
    if mu == 0 and mode != "compact":
        raise ConfigError(f"operator.mu must be > 0 in mode {mode!r}: at mu = 0 the full-space operator "
                          "has no L^2 eigenvalues")
    if mode == "fullspace":
        n = _setting(config, "operator.n")
        strata = [[n, _setting(config, "operator.m", default=n)]]
    else:
        strata = _setting(config, "operator.strata") if mode == "compact" else []
    ops = [_build(f"operator (n={n}, m={m})", RadialGLZOperator, alg.k, n, m, mu) for n, m in strata]
    out_dir = opts.out
    cache = ResultCache(out_dir / "cache")
    payload = {"cmd": "spectrum", "config": {"group": {"k": alg.k, "l": alg.l}, "operator": config.get("operator", {}),
                                             "domain": config.get("domain", {}), "seed": opts.seed}}
    hit = cache.get(payload)
    if hit is not None:
        (out_dir / "spectrum.json").write_bytes(hit)
        print(f"cache hit -> {out_dir / 'spectrum.json'}")
        return 0
    if mode == "explicit":
        rows = [
            {"r": r, "p": p, "value": explicit_eigenvalue(mu, r, p, alg.k)}
            for r in range(_setting(config, "operator.r_max") + 1)
            for p in range(_setting(config, "operator.p_max") + 1)
        ]
        result = {"kind": "spectrum", "mode": "explicit", "mu": mu, "k": alg.k, "rows": rows,
                  "provenance": "explicit"}
        rec_csv = "r,p,value\n" + "\n".join(
            f"{row['r']},{row['p']},{format(row['value'], '.17g')}" for row in rows
        )
    else:
        result = {"kind": "spectrum", "mode": mode, "mu": mu, "k": alg.k, "provenance": "discretized"}
        if mode == "compact":
            R = float(np.sqrt(_setting(config, "domain.R2")))
            bc = _setting(config, "domain.bc")
            result.update(bc=bc, R2=R**2)
            solve = lambda op: _compact(op, R, bc, count, N)
        else:
            T = _setting(config, "domain.T")
            solve = lambda op: fullspace_spectrum(op, T=T, N=N, count=count)
        result["strata"] = [
            {"n": op.n, "m": op.m, "values": [float(v) for v in solve(op).values()]} for op in ops
        ]
        rec_csv = "n,m,r,value\n" + "\n".join(
            f"{s['n']},{s['m']},{i},{format(v, '.17g')}" for s in result["strata"] for i, v in enumerate(s["values"])
        )
    text = canonical_json(result) + "\n"
    cache.put(payload, text.encode())
    _write(out_dir, "spectrum.json", text)
    _write(out_dir, "spectrum.csv", rec_csv + "\n")
    print(f"{mode} spectrum written -> {out_dir / 'spectrum.json'}")
    return 0


def cmd_curvature(config, opts):
    alg = _load_group(config)
    ext = _build("q", SolvableExtension, alg, _setting(config, "q"))
    report = curvature_report(alg, seed=opts.seed)
    scalar = ext.scalar_curvature()
    expect = -(alg.k / 4.0 + alg.l) * (alg.k + alg.l + 1.0) if ext.q == 1.0 else None
    result = {"kind": "curvature", "solvable_scalar": float(scalar),
              "solvable_scalar_closed_form": expect, **report}
    path = _write(opts.out, "curvature.json", canonical_json(result) + "\n")
    worst = report["residuals"]["ricci_closed_vs_trace"]
    print(f"Ric(X)= {report['ricci_unit_X']}  Ric(Z)= {report['ricci_unit_Z']}  trace residual {worst:.2e}")
    print(f"solvable scalar {scalar}  closed form {expect} -> {path}")
    return 0


def cmd_verify(config, opts):
    results = run_all(only=opts.only, seed=opts.seed)
    tols = {(suite, name): tol for suite, name, tol, _ in CHECKS}
    for suite, checks in results.items():
        for name, ok, detail in checks:
            text = f"{detail:.3e}" if isinstance(detail, float) else detail
            print(f"{'PASS' if ok else 'FAIL'}  [{suite}] {name}  ({text}; tol {tols[suite, name]:g})")
    failed = sum(not ok for checks in results.values() for _, ok, _ in checks)
    payload = {
        "kind": "verify",
        "failed": failed,
        "results": {
            suite: [{"check": n, "ok": ok, "detail": d, "tol": tols[suite, n]} for n, ok, d in checks]
            for suite, checks in results.items()
        },
    }
    _write(opts.out, "verify.json", canonical_json(payload) + "\n")
    return 0 if failed == 0 else 1


ISOSPEC_TOL = 1e-6  # relative tolerance of each matched eigenvalue pair


def cmd_isospec(config, opts):
    l = _setting(config, "pair.l")
    left = _build("pair", htype_group, l, _setting(config, "pair.a_left"), _setting(config, "pair.b_left"))
    right = _build("pair", htype_group, l, _setting(config, "pair.a_right"), _setting(config, "pair.b_right"))
    if left.k != right.k:
        raise ConfigError("isospectral comparison needs matching X-dimensions")
    R = float(np.sqrt(_setting(config, "domain.R2", default=16.0)))
    count = _setting(config, "domain.count")
    N = _setting(config, "domain.N", default=220)
    mu = _setting(config, "operator.mu")
    n_max = _setting(config, "operator.n_max")
    pairs = [
        (RadialGLZOperator(left.k, n, m, mu), RadialGLZOperator(right.k, n, m, mu))
        for n in range(n_max + 1)
        for m in range(-n, n + 1, 2)
    ]
    reports = []
    for bc in ("dirichlet", "neumann"):
        for op_l, op_r in pairs:
            rl = _compact(op_l, R, bc, count, N)
            rr = _compact(op_r, R, bc, count, N)
            rep = spectra_compare(rl, rr, tol=ISOSPEC_TOL)
            reports.append({"bc": bc, "n": op_l.n, "m": op_l.m, "report": rep})
    ok = all(r["report"]["isospectral"] for r in reports)
    result = {"kind": "isospec", "pairs": reports, "isospectral": ok}
    path = _write(opts.out, "isospec.json", canonical_json(result) + "\n")
    print(f"isospectral verdict: {ok} -> {path}")
    return 0 if ok else 1


WAVES_TOL = 1e-5  # largest residual norm a waves check passes with


def cmd_waves(config, opts):
    cc = _build("hbar, c, m", PhysicalConstants, _setting(config, "hbar"), _setting(config, "c"), _setting(config, "m"))
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
    _write(opts.out, "waves.json", canonical_json(result) + "\n")
    bad = [k for k, v in norms.items() if v > WAVES_TOL]
    return 0 if not bad else 1


def cmd_report(config, opts):
    # recompute any section named in `ensure` whose result file is missing
    for name in _setting(config, "ensure"):
        if not (opts.out / f"{name}.json").exists():
            COMMANDS[_REPORT_SOURCES[name]](config, opts)
    pieces = {}
    for name in _REPORT_SOURCES:
        path = opts.out / f"{name}.json"
        if path.exists():
            pieces[name] = json.loads(path.read_text())
    lines = ["# nilspec run report", ""]
    for name, payload in sorted(pieces.items()):
        lines += [f"## {name}", "```json", canonical_json(payload), "```", ""]
    text = "\n".join(lines)
    _write(opts.out, "report.md", text)
    _write(opts.out, "report.json", canonical_json({"sections": sorted(pieces)}) + "\n")
    print(f"report over {len(pieces)} sections -> {opts.out / 'report.md'}")
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
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--only", default=None, help="restrict verify to one suite")
    opts = parser.parse_args(argv)
    opts.out = Path(opts.out or os.environ.get("NILSPEC_OUT", "nilspec-out"))

    try:
        config = parse_config(opts.config) if opts.config else {}
        for key in _KEYS:  # every key present is checked before any computation
            _setting(config, key)
        _check_names(config)  # after the loop, which checks that each section is a dict
        if opts.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {opts.seed}")
        if opts.only and opts.only not in SUITES:
            raise ConfigError(f"unknown suite {opts.only!r}")
        return COMMANDS[opts.command](config, opts)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    # ArithmeticError covers OverflowError and FloatingPointError
    except (np.linalg.LinAlgError, ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
