"""A device never holds two launches: its daemon serves one request at a
time and awaits each kernel run in the handler.

This is why a lease's launch can be the device's own launch, served
first come first served on its compute engine, with no fair queue of
kernel launches behind it: no sequence of requests through the
middleware puts a second launch on a device while one runs.
"""

import pytest

from repro.chaos import SCENARIOS, ChaosConfig, run as run_chaos
from repro.gpusim import GPUDevice, VirtualGPU
from repro.workloads import ensemble


@pytest.fixture
def launches(monkeypatch):
    """Wrap the device's and the slice's launch: record, per device
    launch, how many launches held or waited for the compute engine."""
    seen = {"device": [], "slice": 0}
    device_launch, slice_launch = GPUDevice.launch, VirtualGPU.launch

    def on_device(self, *args, **kwargs):
        compute = self._compute
        seen["device"].append(compute.in_use + len(compute._waiters))
        return device_launch(self, *args, **kwargs)

    def on_slice(self, *args, **kwargs):
        seen["slice"] += 1
        return slice_launch(self, *args, **kwargs)

    monkeypatch.setattr(GPUDevice, "launch", on_device)
    monkeypatch.setattr(VirtualGPU, "launch", on_slice)
    return seen


def test_a_job_ensemble_finds_every_device_idle_at_launch(launches):
    report = ensemble.run(ensemble.EnsembleConfig(n_jobs=48, seed=1))
    assert report.done > 0
    assert launches["slice"] > 0
    assert launches["device"] and set(launches["device"]) == {0}


def test_a_chaos_partition_finds_every_device_idle_at_launch(launches):
    report = run_chaos(SCENARIOS["partition"],
                       ChaosConfig(n_tenants=24, window_s=10e-3))
    assert report.ttl_evictions >= 1
    assert launches["slice"] > 0
    assert launches["device"] and set(launches["device"]) == {0}
