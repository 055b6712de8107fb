"""Seeded inputs and program calls of the nilspec benchmark workloads.

Every workload is a closed loop: one process issues one operation at a
time and issues the next as soon as it returns, with no extra threads.
BLAS keeps its default threads.  Inputs are generated from the seed only,
cycle by cycle; the cost-relevant shape of a cycle (sizes, boundary
conditions, degrees) is fixed and the seed draws the values, so runs with
different seeds measure the same mix.

Why each workload exists:

radial      Seeded `glz.compact_spectrum` solves (Dirichlet, Neumann and
            Robin) at N = 100, 200, 400 and 800, plus `fullspace_spectrum`
            and `zball_eigenvalues`.  Nearly all time is in glz; small N
            is dominated by Galerkin assembly and large N by `eigh`, so
            the trace shows which of the two a change moved.
structures  The exact-algebra and quadrature layers with no eigensolve:
            Clifford/H-type builds over the acceptance-criterion-2 block
            family, curvature reports, harmonic projection and
            decomposition, twisted boundary functions, full-mode twisted
            transforms and intertwining.  It bypasses every glz change and
            exercises the Cayley-Dickson build, the polynomial engine and
            the zonal projector.

The CLI is not a measured workload: each of its operations is a ~1 s
interpreter start whose speed drifts between runs on a shared machine
by more than any bound allows.  Every traced run instead sweeps the CLI
commands once untraced and once traced (`cli_sweep`), which measures the
cli, verify and waves layers, cache reads beside cache writes, and
`NILSPEC_JOBS=2`.

Inputs on which the program fails today are not in the workloads; they
are the probes (`probes`), run and counted by every traced run and listed
in known_failures.json.
"""

import importlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, product
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("radial", "structures")

# modules each workload's process imports; a fresh interpreter importing
# these and generating inputs is the measured set-up
MODULES = {
    "radial": ("nilspec.glz",),
    "structures": (
        "nilspec.clifford",
        "nilspec.algebra",
        "nilspec.geometry",
        "nilspec.harmonics",
        "nilspec.quadrature",
        "nilspec.twisted",
        "nilspec.isospectral",
    ),
}
SETUP_CYCLES = {"radial": 16, "structures": 40}

RADIAL_N = (100, 200, 400, 800)
RADIAL_KN = tuple((k, n) for k in (2, 4, 6, 8, 16) for n in (0, 1, 2))
BCS = ("dirichlet", "neumann", "robin")
IRREDUCIBLE = {1: 2, 2: 4, 3: 4, 4: 8, 5: 8, 6: 8, 7: 8, 8: 16, 9: 32, 10: 64, 11: 64}
CURVATURE_GROUPS = ((1, 1, 0), (2, 1, 0), (3, 1, 0), (3, 1, 1), (5, 1, 0), (7, 1, 0))
CLI_OUTPUT = {
    "spectrum": "spectrum.json",
    "verify": "verify.json",
    "isospec": "isospec.json",
    "curvature": "curvature.json",
    "waves": "waves.json",
    "build-group": "group.json",
}


@dataclass
class Op:
    """One operation: `params` is plain JSON and names the input; `data`
    holds generated arrays too large to list (rebuilt from params)."""

    kind: str
    params: dict
    data: dict = field(default_factory=dict, repr=False)


def alpha(k, n):
    """Weight exponent a = k/2 + n - 1 of the radial operator."""
    return k // 2 + n - 1


def compact_passes_today(k, n, N):
    """Cells of the radial grid where compact_spectrum is right for every
    seeded mu, R and boundary condition.  Outside them it raises (Cholesky
    of the mass matrix fails) or returns spurious positive eigenvalues."""
    a = alpha(k, n)
    return a <= 2 or (a == 3 and N <= 400)


def fullspace_passes_today(k, n):
    """fullspace_spectrum meets the 1e-6 relative tolerance up to a = 4,
    for the lowest five eigenvalues; higher ones feel the truncation at T."""
    return alpha(k, n) <= 4


def monomials(d, degree):
    out = []
    for combo in combinations_with_replacement(range(d), degree):
        expo = [0] * d
        for i in combo:
            expo[i] += 1
        out.append(tuple(expo))
    return out


def unit(rng, dim):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


# -- input generation -----------------------------------------------------


def cycle(workload, seed, j):
    """Operations of cycle j; the same (workload, seed, j) gives the same ops."""
    rng = np.random.default_rng([seed, j, WORKLOADS.index(workload)])
    return {"radial": radial_cycle, "structures": structures_cycle}[workload](rng, j)


# operations per N in a radial cycle: with two Z-ball solves first, the six
# solves at N <= 200 sit below the median, N = 400 holds it and N = 800
# holds the 90th percentile, so p50 follows assembly and p90 the eigensolve
RADIAL_COMPACT = {100: 1, 200: 1, 400: 5, 800: 5}


def radial_cycle(rng, j):
    ops = []
    for bc in ("dirichlet", "neumann"):
        ops.append(
            Op(
                "zball",
                {
                    "l": int(rng.integers(2, 8)),
                    "s": int(rng.integers(0, 4)),
                    "R": float(rng.uniform(0.5, 2.0)),
                    "bc": bc,
                    "count": int(rng.integers(4, 9)),
                },
            )
        )
    # ascending N, as in a resolution sweep: a small solve right after a
    # large one often waits ~50 ms more (BLAS threads, freed pages)
    for N in RADIAL_N:
        cells = [(k, n) for k, n in RADIAL_KN if compact_passes_today(k, n, N)]
        for i in range(RADIAL_COMPACT[N]):
            k, n = cells[rng.integers(len(cells))]
            bc = BCS[(i + j) % 3]
            p = {
                "k": int(k),
                "n": int(n),
                "m": int(rng.choice(np.arange(-n, n + 1, 2))),
                # half the solves at mu = 0, where Bessel zeros give the exact spectrum
                "mu": 0.0 if (i + j + N // 100) % 2 == 0 else float(rng.uniform(0.2, 2.0)),
                "R": float(np.sqrt(rng.uniform(2.0, 16.0))),
                "bc": bc,
                "count": int(rng.integers(4, 9)),
                "N": N,
            }
            if bc == "robin":
                # A f' + B f = 0 with A, B > 0 keeps the min-max bracket valid
                p["robin"] = [float(rng.uniform(0.3, 1.0)), float(rng.uniform(0.1, 1.0))]
            ops.append(Op("compact", p))
        cells = [(k, n) for k, n in RADIAL_KN if fullspace_passes_today(k, n)]
        k, n = cells[rng.integers(len(cells))]
        ops.append(
            Op(
                "fullspace",
                {
                    "k": int(k),
                    "n": int(n),
                    "m": int(rng.choice(np.arange(-n, n + 1, 2))),
                    "mu": float(rng.uniform(0.2, 2.0)),
                    "count": int(rng.integers(3, 6)),
                    "N": N,
                },
            )
        )
    return ops


def structures_cycle(rng, j):
    ops = []
    for l in range(1, 12):
        total = int(rng.integers(1, 64 // IRREDUCIBLE[l] + 1))
        a = int(rng.integers(0, total + 1))
        ops.append(Op("htype", {"l": l, "a": a, "b": total - a, "samples": 8, "seed": int(rng.integers(1 << 30))}))
    for g in rng.choice(len(CURVATURE_GROUPS), size=2, replace=False):
        l, a, b = CURVATURE_GROUPS[g]
        ops.append(Op("curvature", {"l": l, "a": a, "b": b, "samples": 3, "seed": int(rng.integers(1 << 30))}))
    # two dimensions per cycle, every degree: five cycles cover d = 2..6 x
    # degree = 1..8 twice.  These 32 solves are most of a cycle, so the
    # median falls among them rather than in a gap between kinds
    for d, kind, degree in product((2 + j % 5, 2 + (j + 2) % 5), ("projection", "decomposition"), range(1, 9)):
        coeff_seed = int(rng.integers(1 << 30))
        cplx = bool(rng.integers(2))
        crng = np.random.default_rng(coeff_seed)
        mons = monomials(d, degree)
        re = crng.standard_normal(len(mons))
        im = crng.standard_normal(len(mons)) if cplx else np.zeros(len(mons))
        coeffs = {e: complex(x, y) for e, x, y in zip(mons, re, im)}
        ops.append(Op(kind, {"d": d, "degree": degree, "complex": cplx, "coeff_seed": coeff_seed}, {"coeffs": coeffs}))
    for kind, bc in (("boundary", "dirichlet"), ("boundary", "neumann"), ("intertwine", "dirichlet")):
        a = 2 if kind == "intertwine" else int(rng.integers(1, 3))
        k = 4 * a
        pq = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)][rng.integers(5)]
        # Theta^p conj(Theta)^q has K-degrees 0..p+q, only even ones when
        # p = q; other strata s project it to zero
        s = int(rng.choice([s for s in range(sum(pq) + 1) if pq[0] != pq[1] or s % 2 == 0]))
        i = 2 if (bc == "neumann" and s == 0) else int(rng.integers(1, 3))
        p = {
            "l": 3,
            "a": a,
            "b": 0,
            "s": s,
            "i": i,
            "bc": bc,
            "p": pq[0],
            "q": pq[1],
            "Q": unit(rng, k).tolist(),
            "R": float(rng.uniform(0.8, 1.5)),
            "X": (0.3 * rng.standard_normal(k)).tolist(),
            "Z": (0.2 * unit(rng, 3)).tolist(),
            "n_dir": 4,
            "seed": int(rng.integers(1 << 30)),
        }
        if kind == "intertwine":
            # structure flip H^(2,0)_3 -> H^(1,1)_3 or a pole change on H^(2,0)_3
            p["target"] = "flip" if j % 2 == 0 else "pole"
            p["target_Q"] = (np.linalg.norm(p["Q"]) * unit(rng, k)).tolist()
        ops.append(Op(kind, p))
    for _ in range(2):
        l = int(rng.integers(1, 4))
        k = IRREDUCIBLE[l]
        pq = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)][rng.integers(5)]
        ops.append(
            Op(
                "twisted_full",
                {
                    "l": l,
                    "p": pq[0],
                    "q": pq[1],
                    "Q": unit(rng, k).tolist(),
                    "X": (0.5 * rng.standard_normal(k)).tolist(),
                    "Z": (rng.uniform(0.0, 0.8) * unit(rng, l)).tolist(),
                },
            )
        )
    rng.shuffle(ops)
    return ops


def _compact_config(rng, nstrata, N):
    l = int(rng.integers(1, 4))
    strata = []
    for _ in range(nstrata):
        n = int(rng.integers(0, 3))
        strata.append([n, int(rng.choice(np.arange(-n, n + 1, 2)))])
    return {
        "group": {"l": l, "a": 1, "b": 0},
        "operator": {"mode": "compact", "mu": float(rng.uniform(0.2, 2.0)), "strata": strata},
        "domain": {
            "R2": float(rng.uniform(4.0, 16.0)),
            "bc": ["dirichlet", "neumann"][rng.integers(2)],
            "count": 5,
            "N": N,
        },
    }


def cli_sweep(seed):
    """The CLI commands, each once, as fresh subprocesses, for the traced runs.

    Fixed order: the cached spectrum must follow its cold run.  Groups have
    k <= 4 and strata n <= 2, so a <= 3 at N <= 300."""
    rng = np.random.default_rng([seed, 11])
    cold = _compact_config(rng, 3, 300)
    n = int(rng.integers(0, 3))
    fullspace = {
        "group": {"l": int(rng.integers(1, 4)), "a": 1, "b": 0},
        "operator": {"mode": "fullspace", "mu": float(rng.uniform(0.2, 2.0)), "n": n,
                     "m": int(rng.choice(np.arange(-n, n + 1, 2)))},
        "domain": {"count": 5, "N": 300},
    }
    isospec = {
        "pair": {"l": 1, "a_left": 2, "b_left": 0, "a_right": 1, "b_right": 1},
        "operator": {"mu": float(rng.uniform(0.3, 1.5)), "n_max": 2},
        "domain": {"R2": float(rng.uniform(4.0, 16.0)), "count": 5, "N": 220},
    }
    l, a, b = CURVATURE_GROUPS[rng.integers(len(CURVATURE_GROUPS))]
    ag = int(rng.integers(0, 3))
    group = {"group": {"l": int(rng.integers(1, 8)), "a": ag, "b": int(rng.integers(0 if ag else 1, 3))}}
    ops = [
        ("spectrum_cold", "spectrum", cold, {}),
        ("spectrum_cached", "spectrum", cold, {}),
        # NILSPEC_JOBS is read from the environment, so a later removal of
        # the knob leaves this operation valid
        ("spectrum_jobs2", "spectrum", _compact_config(rng, 2, 200), {"NILSPEC_JOBS": "2"}),
        ("spectrum_fullspace", "spectrum", fullspace, {}),
        ("verify", "verify", None, {}),
        ("isospec", "isospec", isospec, {}),
        ("curvature", "curvature", {"group": {"l": l, "a": a, "b": b}}, {}),
        ("waves", "waves", None, {}),
        ("build-group", "build-group", group, {}),
    ]
    cli_seed = int(rng.integers(1000))
    return [
        Op(kind, {"command": cmd, "config": cfg, "env": env, "out": "cli", "seed": cli_seed})
        for kind, cmd, cfg, env in ops
    ]


def probes(workload):
    """Inputs on which the program fails today, kept so fixes show up as
    probe.fail_share falling.  Deterministic; never resized."""
    ops = []
    if workload == "radial":
        for k, n in RADIAL_KN:
            for N in RADIAL_N:
                if not compact_passes_today(k, n, N):
                    base = {"k": k, "n": n, "m": n, "R": 3.0, "count": 6, "N": N}
                    ops.append(Op("compact", {**base, "mu": 0.0, "bc": "dirichlet"}))
                    for bc in BCS:
                        p = {**base, "mu": 1.0, "bc": bc}
                        if bc == "robin":
                            p["robin"] = [1.0, 0.5]
                        ops.append(Op("compact", p))
                if not fullspace_passes_today(k, n):
                    ops.append(Op("fullspace", {"k": k, "n": n, "m": n, "mu": 1.0, "count": 5, "N": N}))
        for N in RADIAL_N:
            ops.append(Op("fullspace", {"k": 4, "n": 1, "m": 1, "mu": 1.0, "count": 8, "N": N}))
    # through the CLI, on every traced run
    ops.append(Op("isospec_default", {"command": "isospec", "config": None, "env": {}, "out": "probe", "seed": 0}))
    cfg = {
        "group": {"l": 3, "a": 2, "b": 0},
        "operator": {"mode": "compact", "mu": 1.0, "strata": [[1, 1], [2, 0]]},
        "domain": {"R2": 9.0, "bc": "dirichlet", "count": 5, "N": 300},
    }
    ops.append(Op("spectrum_k8", {"command": "spectrum", "config": cfg, "env": {}, "out": "probe", "seed": 0}))
    return ops


def import_modules(workload):
    for name in MODULES[workload]:
        importlib.import_module(name)


def setup(workload, seed):
    """What a fresh interpreter does before the first operation."""
    import_modules(workload)
    return [cycle(workload, seed, j) for j in range(SETUP_CYCLES[workload])]


# -- program calls ----------------------------------------------------------


def _gaussian_profile(x, kk):
    return np.exp(-0.5 * kk * kk - 0.25 * x * x)


def run_compact(p, data):
    from nilspec import glz

    bc = ("robin", *p["robin"]) if p["bc"] == "robin" else p["bc"]
    op = glz.RadialGLZOperator(p["k"], p["n"], p["m"], p["mu"])
    return glz.compact_spectrum(op, p["R"], bc, count=p["count"], N=p["N"]).values()


def run_fullspace(p, data):
    from nilspec import glz

    op = glz.RadialGLZOperator(p["k"], p["n"], p["m"], p["mu"])
    return glz.fullspace_spectrum(op, N=p["N"], count=p["count"]).values()


def run_zball(p, data):
    from nilspec import glz

    return np.asarray(glz.zball_eigenvalues(p["l"], p["s"], p["R"], bc=p["bc"], count=p["count"]))


def run_htype(p, data):
    from nilspec import algebra

    alg = algebra.htype_group(p["l"], p["a"], p["b"])
    return {"J": alg.J_basis, "residual": alg.htype_residual(samples=p["samples"], seed=p["seed"])}


def run_curvature(p, data):
    from nilspec import algebra, geometry

    alg = algebra.htype_group(p["l"], p["a"], p["b"])
    return geometry.curvature_report(alg, samples=p["samples"], seed=p["seed"])


def run_projection(p, data):
    from nilspec import harmonics

    P = harmonics.HomogeneousPolynomial(p["d"], p["degree"], data["coeffs"])
    return harmonics.harmonic_projection(P).coeffs


def run_decomposition(p, data):
    from nilspec import harmonics

    P = harmonics.HomogeneousPolynomial(p["d"], p["degree"], data["coeffs"])
    return [(i, H.degree, H.coeffs) for i, H in harmonics.harmonic_decomposition(P)]


def run_boundary(p, data):
    from nilspec import algebra, twisted

    alg = algebra.htype_group(p["l"], p["a"], p["b"])
    tf = twisted.boundary_functions(
        alg, p["s"], p["i"], p["bc"], p["p"], p["q"], np.array(p["Q"]), R=p["R"], sphere_order=14
    )
    return _boundary_output(tf, p)


def run_intertwine(p, data):
    from nilspec import algebra, isospectral, twisted

    alg = algebra.htype_group(p["l"], p["a"], p["b"])
    Q = np.array(p["Q"])
    src = twisted.boundary_functions(alg, p["s"], p["i"], p["bc"], p["p"], p["q"], Q, R=p["R"], sphere_order=14)
    if p["target"] == "flip":
        spec = isospectral.IntertwineSpec(source_Q=Q, target_alg=algebra.htype_group(3, 1, 1))
    else:
        spec = isospectral.IntertwineSpec(source_Q=Q, target_Q=np.array(p["target_Q"]))
    return _boundary_output(isospectral.intertwine(spec, src), p)


def _boundary_output(tf, p):
    X = np.array(p["X"])
    return {
        "residual": tf.boundary_residual(X, p["bc"], n_dir=p["n_dir"], seed=p["seed"]),
        "interior": tf(X, np.array(p["Z"])),
    }


def run_twisted_full(p, data):
    from nilspec import algebra, twisted

    alg = algebra.htype_group(p["l"], 1, 0)
    tf = twisted.TwistedFunction(
        alg, ("full",), Q=np.array(p["Q"]), p=p["p"], q=p["q"], radial=_gaussian_profile, sphere_order=16
    )
    return {"value": tf(np.array(p["X"]), np.array(p["Z"])), "J": alg.J_basis}


IN_PROCESS = {
    "compact": run_compact,
    "fullspace": run_fullspace,
    "zball": run_zball,
    "htype": run_htype,
    "curvature": run_curvature,
    "projection": run_projection,
    "decomposition": run_decomposition,
    "boundary": run_boundary,
    "intertwine": run_intertwine,
    "twisted_full": run_twisted_full,
}


class Runner:
    """Executes operations and times the program call only.

    CLI operations run as fresh subprocesses under `work`; with `traced`
    set they go through traced_cli.py, which records spans in the child.
    """

    def __init__(self, work, env):
        self.work = Path(work)
        self.env = env
        self.traced = False
        self.calls = 0

    def run(self, op):
        """(seconds, output, error); error is a one-line reason or None."""
        if "command" not in op.params:
            fn = IN_PROCESS[op.kind]
            t0 = perf_counter()
            try:
                out = fn(op.params, op.data)
            except Exception as exc:  # a raising operation is a counted failure
                return perf_counter() - t0, None, f"raised {type(exc).__name__}: {exc}"
            return perf_counter() - t0, out, None
        return self.run_cli(op)

    def run_cli(self, op):
        p = op.params
        self.calls += 1
        out_dir = self.work / p["out"]
        out_dir.mkdir(parents=True, exist_ok=True)
        tail = ["--out", str(out_dir), "--seed", str(p["seed"])]
        if p["config"] is not None:
            cfg = self.work / f"config-{self.calls}.json"
            cfg.write_text(json.dumps(p["config"]))
            tail += ["--config", str(cfg)]
        spans_file = self.work / f"spans-{self.calls}.json"
        if self.traced:
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_file), p["command"], *tail]
        else:
            argv = [sys.executable, "-m", "nilspec.cli", p["command"], *tail]
        env = {**self.env, **p["env"]}
        log = self.work / f"log-{self.calls}.txt"
        with open(log, "wb") as fh:
            t0 = perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=env, stdout=fh, stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = out_dir / CLI_OUTPUT[p["command"]]
        out = {
            "exit": proc.returncode,
            "maxrss_kb": usage.ru_maxrss,
            "bytes": result.read_bytes() if result.exists() else None,
            "log": log.read_text(errors="replace"),
            "spans": json.loads(spans_file.read_text()) if spans_file.exists() else None,
        }
        result.unlink(missing_ok=True)
        return elapsed, out, None
