"""The benchmark's own output checks, run once per workload.

``perfbench/workloads.py`` checks the model workload against goldens (to
1e-12 relative) and the MC workloads' crash counts against a reference
interval.  ``perfbench/run.py`` counts an operation whose check fails as
failed; these tests run one call of each workload through the same checks,
so a change that would fail them fails here instead.
"""
import importlib.util
from pathlib import Path

import pytest

import ftqec
import ftqec.analytic, ftqec.codes, ftqec.concat  # noqa: E401,F401
import ftqec.network, ftqec.noise, ftqec.simulator, ftqec.sweep  # noqa: E401,F401

_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", ["mc-noisy", "mc-quiet", "model"])
def test_workload_output_passes_its_check(name):
    wl = workloads.Workload(name, 1, ftqec)
    wl.setup()
    assert wl.check(wl.summary(wl.run())) == []
