"""The span tracer in ``perfbench/spans.py`` looks its targets up by name.

A rename or deletion in ``src/`` that leaves a ``TARGETS`` entry dangling
would only show when ``perfbench/run.py --trace 1`` runs; these checks make
it fail here instead.
"""
import importlib.util
import inspect
from pathlib import Path

import pytest

import ftqec
import ftqec.analytic, ftqec.codes, ftqec.concat  # noqa: E401,F401
import ftqec.network, ftqec.simulator, ftqec.sweep  # noqa: E401,F401

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("mod_name,cls_name,attr,layer,hook", spans.TARGETS,
                         ids=[f"{m}.{c or ''}.{a}" for m, c, a, _, _ in spans.TARGETS])
def test_target_resolves(mod_name, cls_name, attr, layer, hook):
    owner = getattr(ftqec, mod_name)
    if cls_name is not None:
        owner = getattr(owner, cls_name)
    target = vars(owner)[attr]
    assert callable(target)
    # a counter hook that reads the call's lane mask needs a "mask" parameter
    if hook is not None and '["mask"]' in inspect.getsource(hook):
        assert "mask" in inspect.signature(target).parameters

