"""The benchmark tracer wraps acdterm names by (module, name); a rename that
drops one of them would only show when the benchmark runs."""

import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_tracer_wrapped_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPPED
    for module, name, *_ in tracer.WRAPPED:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
