import contextlib
import gc
import pathlib
from types import SimpleNamespace

import pytest

from acdterm import parse_program

PROGRAMS = pathlib.Path(__file__).parent / "programs"


def load_program(name):
    return parse_program((PROGRAMS / name).read_text(encoding="utf-8"))


def count_calls(monkeypatch, module, name, limit=None):
    """Count the calls to module.name for the rest of the test.

    Returns an object whose `calls` attribute holds the count, so a test can
    bound the work done instead of the wall time. With a limit, the call past
    it raises AssertionError, so a runaway search fails instead of hanging.
    """
    counter = SimpleNamespace(calls=0)
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counter.calls += 1
        if limit is not None and counter.calls > limit:
            raise AssertionError(f"{module.__name__}.{name} called more than {limit} times")
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return counter


@contextlib.contextmanager
def no_cyclic_garbage():
    """Assert that the block leaves nothing for the cyclic collector.

    Collects before the block, so only the block's own objects count, and
    after it with gc.DEBUG_SAVEALL, so whatever the collector would free
    stays in gc.garbage to be reported. A nested function that calls itself
    is such garbage after every call.
    """
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        yield
        gc.collect()
        assert not gc.garbage, [type(o).__name__ for o in gc.garbage[:20]]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


@pytest.fixture
def leq_program():
    return load_program("leq.acd")


@pytest.fixture
def unify_program():
    return load_program("unify.acd")


@pytest.fixture
def one_subst_program():
    return load_program("one_subst.acd")


@pytest.fixture
def golfers_program():
    return load_program("golfers.acd")
