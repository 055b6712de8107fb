"""Layer spans recorded from outside the program.

`install` wraps the public functions of the nilspec modules (the layers)
and rebinds every name that refers to them, so calls that go through a
from-import or a dispatch table are recorded too.  A span is
[name, start, end, parent, op, ok, tag]: the parent is the index of the
enclosing span (-1 at the top) and `op` the operation the benchmark was
running.  Spans stay in memory until the run writes them out.
"""

import functools
import importlib
import inspect
from time import perf_counter

LAYERS = (
    "clifford",
    "algebra",
    "geometry",
    "harmonics",
    "quadrature",
    "glz",
    "twisted",
    "isospectral",
    "waves",
    "verify",
    "cli",
)

# public methods, recorded under the names the per-layer metrics use
METHODS = {
    ("algebra", "TwoStepAlgebra", "htype_residual"): "algebra.htype_residual",
    ("twisted", "TwistedFunction", "__call__"): "twisted.TwistedFunction.call",
    ("twisted", "TwistedFunction", "boundary_residual"): "twisted.boundary_residual",
    ("cli", "ResultCache", "get"): "cli.cache.get",
    ("cli", "ResultCache", "put"): "cli.cache.put",
}

STATS = ("calls", "busy_s", "self_s", "fails")


class Tracer:
    """In-memory span store; `op` is set by the caller before each operation."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.eigh_flop = 0.0

    def wrap(self, name, fn, tag=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else -1
            rec = [name, perf_counter(), 0.0, parent, tracer.op, True, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if tag is not None:
                    rec[6] = tag(result)
                return result
            except BaseException:
                rec[5] = False
                raise
            finally:
                rec[2] = perf_counter()
                tracer.stack.pop()

        return traced


def install(tracer):
    """Wrap every layer's public functions, the listed methods and scipy's
    eigh; returns a function that puts the originals back."""
    import scipy.linalg

    saved = []

    def rebind(obj, attr, value):
        saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    modules = {name: importlib.import_module(f"nilspec.{name}") for name in LAYERS}
    wrappers = {}
    for name, mod in modules.items():
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                wrappers[fn] = tracer.wrap(f"{name}.{attr}", fn)
    tables = {"verify": modules["verify"].SUITES, "cli": modules["cli"].COMMANDS}
    for name, table in tables.items():
        for key, fn in table.items():
            wrappers[fn] = tracer.wrap(f"{name}.{key}", fn)
    # cli.py binds its callees with from-imports, and glz/twisted/isospectral
    # import from each other, so rebind every module-level name, not only
    # the defining one
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                rebind(mod, attr, wrappers[value])
    for (mod_name, cls_name, attr), span_name in METHODS.items():
        cls = getattr(modules[mod_name], cls_name)
        tag = (lambda r: "miss" if r is None else "hit") if attr == "get" else None
        rebind(cls, attr, tracer.wrap(span_name, getattr(cls, attr), tag=tag))

    # the radial solver looks scipy.linalg.eigh up at call time, so wrapping
    # the attribute isolates the eigensolve
    eigh = tracer.wrap("glz.eigh", scipy.linalg.eigh)

    @functools.wraps(scipy.linalg.eigh)
    def counted_eigh(a, *args, **kwargs):
        tracer.eigh_flop += float(a.shape[0]) ** 3
        return eigh(a, *args, **kwargs)

    rebind(scipy.linalg, "eigh", counted_eigh)
    originals = {name: dict(table) for name, table in tables.items()}
    for table in tables.values():
        for key, fn in table.items():
            table[key] = wrappers[fn]

    def uninstall():
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)
        for name, table in tables.items():
            table.update(originals[name])

    return uninstall


def layer_stats(spans):
    """Per span name: calls, busy_s (outermost spans only), self_s, fails, tags."""
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    table = {}
    for i, (name, start, end, parent, op, ok, tag) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "fails": 0, "tags": {}})
        row["calls"] += 1
        row["self_s"] += (end - start) - child[i]
        row["fails"] += 0 if ok else 1
        if tag is not None:
            row["tags"][tag] = row["tags"].get(tag, 0) + 1
        up = parent
        while up >= 0 and spans[up][0] != name:
            up = spans[up][3]
        if up < 0:
            row["busy_s"] += end - start
    return table


def markdown_table(table):
    lines = ["| span | calls | busy_s | self_s | fails |", "|---|---:|---:|---:|---:|"]
    for name in sorted(table, key=lambda n: -table[n]["self_s"]):
        row = table[name]
        lines.append(
            f"| {name} | {row['calls']} | {row['busy_s']:.6f} | {row['self_s']:.6f} | {row['fails']} |"
        )
    return "\n".join(lines) + "\n"
