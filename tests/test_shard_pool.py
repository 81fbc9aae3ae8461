"""Shard worker lifetime: the worker's cycle-collector policy, its exit,
and a coordinator (or any single process) left as it was found.

The factories are module-level so the spawn pickler ships them by
reference; each worker imports this module to find them.
"""

import atexit
import gc
from pathlib import Path

import pytest

from repro.experiments import ScaleConfig, run_scale
from repro.sim import EpochReport, ShardError, ShardPool


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
