import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import nilspec

ROOT = Path(__file__).resolve().parents[1]


def _public_functions():
    """(qualified name, function) for every function and class method that a
    module's __all__ names."""
    for info in pkgutil.iter_modules(nilspec.__path__):
        module = importlib.import_module(f"nilspec.{info.name}")
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)  # classmethod, staticmethod
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_public_functions_found():
    names = {name for name, _ in _public_functions()}
    assert "nilspec.geometry.laplacian_apply" in names
    assert "nilspec.twisted.TwistedFunction.boundary_residual" in names


def test_no_public_step_size():
    # finite differences take their step from one constant in geometry,
    # never from the caller
    offenders = [name for name, fn in _public_functions() if "h" in inspect.signature(fn).parameters]
    assert offenders == []


def test_benchmark_tracer_installs_on_the_program():
    # a traced benchmark run wraps every name in __all__, verify.SUITES,
    # cli.COMMANDS and a list of methods; one missing name aborts the run
    import importlib.util

    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)

    from nilspec import glz

    tracer = spans.Tracer()
    original = glz.compact_spectrum
    uninstall = spans.install(tracer)
    try:
        glz.compact_spectrum(glz.RadialGLZOperator(4, 0, 0, 0.5), 1.0, "dirichlet", count=3, N=24)
    finally:
        uninstall()
    assert glz.compact_spectrum is original
    names = [span[0] for span in tracer.spans]
    assert "glz.compact_spectrum" in names
    assert all(span[5] for span in tracer.spans)


# public names that nothing outside their tests reaches yet, each with its reason
UNCALLED_ALLOWED = {
    "verify_isomorphism": "ROADMAP item 5 gives it a caller in the classification suite",
    "canonical_swap_witness": "ROADMAP item 5 decides whether it stays",
    "laplacian_apply": "ROADMAP item 4 gives it a caller in the isospectrality cross-check",
}


def _references(tree, skip=None):
    """Names of every Name and Attribute node in tree, outside `skip`."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_every_public_name_has_a_caller():
    # a name in __all__ is referenced in src/ outside its own definition, in
    # demos/, in perfbench/ or by the acceptance spec; tests of its own do
    # not count, and docstring mentions are text, not references
    sources = sorted((ROOT / "src" / "nilspec").glob("*.py"))
    callers = [*sorted((ROOT / "demos").glob("*.py")), *sorted((ROOT / "perfbench").rglob("*.py")),
               ROOT / "tests" / "test_acceptance.py"]
    trees = {path: ast.parse(path.read_text()) for path in sources + callers}
    everywhere = {path: _references(tree) for path, tree in trees.items()}
    uncalled = set()
    for info in pkgutil.iter_modules(nilspec.__path__):
        module = importlib.import_module(f"nilspec.{info.name}")
        path = ROOT / "src" / "nilspec" / f"{info.name}.py"
        own = {node.name: node for node in trees[path].body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for name in getattr(module, "__all__", []):
            elsewhere = any(name in refs for other, refs in everywhere.items() if other != path)
            if not elsewhere and name not in _references(trees[path], skip=own.get(name)):
                uncalled.add(name)
    assert uncalled - set(UNCALLED_ALLOWED) == set()
    # an allowed name that gains a caller leaves the list
    assert set(UNCALLED_ALLOWED) <= uncalled
