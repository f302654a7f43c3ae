"""The benchmark's tracer finds every call site it wraps, and puts it back.

``bench/tracing.py`` patches actreg functions by name from outside the
package. A renamed function would otherwise surface only in a traced
benchmark run; here it fails as soon as the tracer installs.
"""

import importlib.util
import types
from pathlib import Path

import actreg

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer(actreg)


def _snapshot(owners):
    return {(o.__name__, k): v for o in owners for k, v in vars(o).items()}


def test_install_wraps_and_uninstall_restores_every_call_site():
    owners = [m for m in vars(actreg).values() if isinstance(m, types.ModuleType)]
    owners += [actreg.tensor.Tensor, actreg.tensor.Adam]
    before = _snapshot(owners)
    tracer = _tracer()
    tracer.install()
    try:
        patched = list(tracer._patches)
        wrapped = _snapshot(owners)
    finally:
        tracer.uninstall()
    assert patched
    for owner, attr, original in patched:
        assert original is before[owner.__name__, attr], attr
        assert wrapped[owner.__name__, attr] is not original, attr
    after = _snapshot(owners)
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
