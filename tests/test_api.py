import importlib
import inspect
import pkgutil

import nilspec


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
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
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
