"""Shard worker lifetime: what the worker imports, its cycle-collector
policy, its exit, and a coordinator (or any single process) left as it was
found.

The factories are module-level so the spawn pickler ships them by
reference; each worker imports this module to find them.
"""

import atexit
import gc
import sys
from pathlib import Path

import pytest

from repro.experiments.scale import ScaleConfig, make_shard, run_scale
from repro.scenarios.workloads import SessionProfile
from repro.sim.shard import EpochReport, ShardError, ShardPool

#: Modules a federation worker never runs: it replays the coordinator's
#: drawn profiles (no numpy), and no pinned replay needs the solver, the
#: grid, the SAP model or the paper harness. Nor does it parse HUTN, bill,
#: run an SLA monitor or a generated instrument, adapt probe rates, relay
#: measurements, export a trace or profile its kernel.
NOT_IN_A_WORKER = ("numpy", "repro.apps", "repro.grid", "repro.solver",
                   "repro.experiments.polymorph", "repro.experiments.weekly",
                   "repro.experiments.fig11",
                   "repro.core.manifest.hutn",
                   "repro.core.service_manager.billing", "repro.core.sla",
                   "repro.core.constraints.instruments",
                   "repro.monitoring.adaptive", "repro.monitoring.relay",
                   "repro.obs.exporters", "repro.obs.profile")


class _GcProbe:
    """A shard whose reports say how its worker's collector stood."""

    def __init__(self, spec: dict):
        self.shard = spec["shard"]
        self.enabled_while_built = gc.isenabled()
        atexit.register(Path(spec["exit_file"]).write_text, "atexit ran")

    def run_epoch(self, until: float) -> EpochReport:
        return EpochReport(shard=self.shard, now=until, payload={
            "enabled_while_built": self.enabled_while_built,
            "enabled": gc.isenabled(),
            "frozen": gc.get_freeze_count(),
        })

    def finish(self) -> EpochReport:
        return EpochReport(shard=self.shard, now=0.0)


def gc_probe(spec: dict) -> _GcProbe:
    return _GcProbe(spec)


class _ImportProbe:
    """A pinned federation shard whose epoch reports name the modules of
    ``NOT_IN_A_WORKER`` its worker has loaded."""

    def __init__(self, spec: dict):
        self.run = make_shard(spec)

    def run_epoch(self, until: float) -> EpochReport:
        report = self.run.run_epoch(until)
        report.payload = {"loaded": [name for name in NOT_IN_A_WORKER
                                     if name in sys.modules]}
        return report

    def finish(self) -> EpochReport:
        return self.run.finish()


def import_probe(spec: dict) -> _ImportProbe:
    return _ImportProbe(spec)


def failing_factory(spec: dict):
    raise RuntimeError(f"cannot build shard {spec['shard']}")


@pytest.fixture(scope="module")
def probed_pool(tmp_path_factory):
    """Run one probe worker through two epochs and a stop; keep its
    reports, the coordinator's collector state around the pool and the
    file its ``atexit`` hook writes."""
    exit_file = tmp_path_factory.mktemp("shard") / "exit.txt"
    before = (gc.isenabled(), gc.get_freeze_count())
    with ShardPool(gc_probe, [{"shard": 0,
                               "exit_file": str(exit_file)}]) as pool:
        epochs = pool.epoch(60.0) + pool.epoch(120.0)
        finals = pool.stop()
        for process in pool.processes:
            assert not process.is_alive()
    after = (gc.isenabled(), gc.get_freeze_count())
    return {"epochs": epochs, "finals": finals, "before": before,
            "after": after, "exit_file": exit_file}


def test_worker_builds_with_the_collector_off(probed_pool):
    assert [r.payload["enabled_while_built"]
            for r in probed_pool["epochs"]] == [False, False]


def test_worker_epochs_collect_with_the_build_frozen(probed_pool):
    for report in probed_pool["epochs"]:
        assert report.payload["enabled"] is True
        assert report.payload["frozen"] > 0
    assert [r.shard for r in probed_pool["finals"]] == [0]


def test_worker_exit_still_runs_atexit_hooks(probed_pool):
    assert probed_pool["exit_file"].read_text() == "atexit ran"


def test_pool_leaves_the_coordinator_collector_alone(probed_pool):
    assert probed_pool["after"] == probed_pool["before"]


def test_worker_imports_only_what_it_runs():
    """A worker built and run through a whole pinned replay, one service
    bursting past its scale-up threshold, loads none of the modules only
    the coordinator or the paper harness runs."""
    cfg = ScaleConfig(sites=1, services=1, hours=0.25)
    profile = SessionProfile(service_index=0, service_id="svc-0",
                             tenant="tenant-0", site="site-0",
                             peak_sessions=120, start_s=60.0, hold_s=240.0,
                             drain_level=10)
    spec = {"cfg": cfg, "site_names": ("site-0",), "shard": 0,
            "profiles": (profile,)}
    with ShardPool(import_probe, [spec]) as pool:
        epochs = pool.epoch(cfg.duration_s)
        finals = pool.stop()
    assert [r.payload["loaded"] for r in epochs] == [[]]
    # The service scaled up to its ceiling and back down in the worker.
    assert max(n for _t, n in finals[0].payload["samples"]) == 2
    assert finals[0].payload["site_fleets"] == [("site-0", 1)]


def test_factory_error_surfaces_as_shard_error():
    before = (gc.isenabled(), gc.get_freeze_count())
    with pytest.raises(ShardError, match="cannot build shard 0"):
        with ShardPool(failing_factory, [{"shard": 0}]) as pool:
            pool.epoch(60.0)
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_repeated_runs_in_one_process_do_not_grow():
    """The collector policy lives only in shard workers: runs in one
    process leave ``gc`` as they found it, and what they leave behind is
    reclaimed, so a long session does not grow run after run."""
    cfg = ScaleConfig(sites=4, services=60, hours=0.25, epoch_s=300.0,
                      check_invariants=True)
    state = (gc.isenabled(), gc.get_freeze_count())
    tracked = []
    for _ in range(5):
        run_scale(cfg)
        assert (gc.isenabled(), gc.get_freeze_count()) == state
        gc.collect()
        tracked.append(len(gc.get_objects()))
    assert max(tracked) <= tracked[0] * 1.10, tracked
