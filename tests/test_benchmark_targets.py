"""The names the benchmark's tracer wraps still resolve in the package.

`perfbench/tracer.py` wraps every entry of its `TARGETS` list in a timing
wrapper, so renaming or deleting one of those library names breaks the
traced benchmark run.  Each entry is resolved here the way
`Tracer.install` resolves it: a dotted path reads the class `__dict__`,
a plain name the module.  Nothing is installed.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("module, path", [(t[0], t[1]) for t in tracer.TARGETS],
                         ids=[f"{t[0]}.{t[1]}" for t in tracer.TARGETS])
def test_target_resolves(module, path):
    mod = importlib.import_module(f"{tracer.PACKAGE}.{module}")
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        target = getattr(mod, owner_name).__dict__[attr]
        if isinstance(target, property):
            target = target.fget
    else:
        target = getattr(mod, attr)
    assert callable(target)
