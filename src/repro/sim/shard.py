"""Process-sharded simulation: worker pool, epoch barriers, RSS accounting.

The federation of the paper is a set of independently administered sites
coordinated only through narrow interfaces (manifests in, monitoring out).
This module gives the simulator the same split: a coordinator partitions
sites across ``multiprocessing`` workers, each worker owns a private
:class:`~repro.sim.kernel.Environment` for its shard, and the processes
meet only at **epoch barriers** — the coordinator broadcasts an
:class:`EpochCommand` ("advance your kernel to *t*"), every worker runs its
shard's event loop to *t* and replies with an :class:`EpochReport` of
compact picklable aggregates (census samples, event counts, per-site fleet
sizes). No VM object, host, or manifest ever crosses a pipe.

Spawn-safety: pools use the ``spawn`` start method (the only one that is
safe under threads and identical across platforms), so worker factories
must be module-level callables and shard specs must be picklable.

Why outcomes stay deterministic: cross-site decisions (admission, site
selection) are made *before* the fork by the coordinator running the real
control-plane code, and shipped to workers as pinned per-site replays;
within a shard the kernel is sequential and seeded, so every worker is a
deterministic function of its spec. See DESIGN §14.
"""

from __future__ import annotations

import multiprocessing as mp
import resource
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

__all__ = [
    "EpochCommand",
    "EpochReport",
    "ShardError",
    "ShardPool",
    "partition_round_robin",
    "read_peak_rss_kb",
]


def read_peak_rss_kb() -> int:
    """This process's peak resident set size in KiB.

    Reads ``VmHWM`` from ``/proc/self/status`` (the kernel's high-water
    mark, present on every Linux); falls back to ``ru_maxrss`` where /proc
    is unavailable (macOS reports bytes there, normalised to KiB).
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    import sys
    if sys.platform == "darwin":    # pragma: no cover - linux CI
        peak //= 1024
    return peak


def partition_round_robin(items: Sequence[Any],
                          shards: int) -> list[list[Any]]:
    """Deal ``items`` round-robin into ``shards`` buckets.

    Round-robin (vs. contiguous blocks) balances heterogeneous site loads:
    neighbouring sites in the scale harness receive correlated service
    mixes, so striping spreads the hot ones. Empty buckets are kept so
    shard index ↔ bucket index stays stable.
    """
    if shards <= 0:
        raise ValueError("shards must be positive")
    buckets: list[list[Any]] = [[] for _ in range(shards)]
    for index, item in enumerate(items):
        buckets[index % shards].append(item)
    return buckets


@dataclass(frozen=True)
class EpochCommand:
    """Coordinator → worker: advance the shard kernel to ``run_until``
    (simulated seconds), or shut down when ``stop`` is set."""

    run_until: float = 0.0
    stop: bool = False


@dataclass
class EpochReport:
    """Worker → coordinator: one shard's aggregates for an epoch.

    ``payload`` is experiment-defined (the scale harness puts census
    samples and fleet sizes there); everything in it must be picklable
    and *small* — the report is the entire cross-process traffic.

    ``metrics`` carries the shard's incremental telemetry snapshot (a
    :meth:`repro.obs.metrics.SnapshotCursor.snapshot` payload: counter
    deltas and histogram tails) for the coordinator to fold into its
    federation-wide registry; ``findings`` carries this epoch's
    newly-closed :class:`~repro.obs.audit.AuditFinding` records. Both
    default empty so experiments that predate telemetry merging keep
    working unchanged.
    """

    shard: int
    now: float
    events_processed: int = 0
    peak_rss_kb: int = 0
    metrics: Optional[dict] = None
    findings: tuple = ()
    payload: dict[str, Any] = field(default_factory=dict)


class ShardError(RuntimeError):
    """A worker process raised; carries the remote traceback text."""

    def __init__(self, shard: int, remote_traceback: str):
        super().__init__(
            f"shard {shard} failed:\n{remote_traceback}")
        self.shard = shard
        self.remote_traceback = remote_traceback


def _shard_main(factory: Callable[[Any], Any], conn: Any, spec: Any) -> None:
    """Worker process entry point: build the shard, then serve epoch
    commands until told to stop.

    ``factory(spec)`` must return an object with two methods:

    * ``run_epoch(until: float) -> EpochReport`` — advance the private
      kernel and report aggregates;
    * ``finish() -> EpochReport`` — final aggregates (the coordinator
      sends ``stop`` after the last epoch).

    Any exception is shipped back as ``("error", traceback)`` so the
    coordinator can re-raise with the remote context instead of hanging
    on a dead pipe.

    The worker lives as long as its shard, so it tunes its own cycle
    collector (DESIGN §14): off while the factory builds, which allocates
    the shard's long-lived objects and frees almost nothing; then the
    built shard is frozen out of the collector's reach, so the epochs'
    collections walk only what the epochs allocate; and after the last
    reply everything is frozen, so the interpreter's exit (which still
    runs ``atexit`` hooks) leaves the heap to the OS instead of walking it.
    """
    import gc
    import traceback
    try:
        gc.disable()
        shard = factory(spec)
        gc.freeze()
        gc.enable()
        while True:
            command = conn.recv()
            if command.stop:
                conn.send(("ok", shard.finish()))
                break
            conn.send(("ok", shard.run_epoch(command.run_until)))
    except BaseException:       # noqa: BLE001 - must cross the pipe
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:         # pragma: no cover - coordinator gone
            pass
    finally:
        conn.close()
        gc.freeze()


class ShardPool:
    """A pool of shard worker processes driven through epoch barriers.

    The pool is a *barrier* abstraction, not a task queue: every
    :meth:`epoch` broadcasts one command to all workers and blocks until
    every shard has replied, so no shard's simulated clock ever runs ahead
    of the federation's agreed epoch boundary.
    """

    def __init__(self, factory: Callable[[Any], Any],
                 specs: Sequence[Any]):
        ctx = mp.get_context("spawn")
        self.processes: list[Any] = []
        self.pipes: list[Any] = []
        self._stopped = False
        try:
            for index, spec in enumerate(specs):
                parent, child = ctx.Pipe()
                process = ctx.Process(
                    target=_shard_main, args=(factory, child, spec),
                    name=f"shard-{index}", daemon=True)
                process.start()
                child.close()
                self.pipes.append(parent)
                self.processes.append(process)
        except BaseException:
            self.terminate()
            raise

    def __len__(self) -> int:
        return len(self.processes)

    def _gather(self) -> list[EpochReport]:
        reports: list[EpochReport] = []
        failure: Optional[ShardError] = None
        for shard, pipe in enumerate(self.pipes):
            try:
                status, value = pipe.recv()
            except (EOFError, ConnectionResetError):
                status, value = "error", "worker exited without replying"
            if status == "error" and failure is None:
                failure = ShardError(shard, value)
            elif status == "ok":
                reports.append(value)
        if failure is not None:
            self.terminate()
            raise failure
        return reports

    def epoch(self, run_until: float) -> list[EpochReport]:
        """Barrier: run every shard to ``run_until``, gather all reports."""
        command = EpochCommand(run_until=run_until)
        for pipe in self.pipes:
            pipe.send(command)
        return self._gather()

    def stop(self) -> list[EpochReport]:
        """Final barrier: collect each shard's closing report and join."""
        if self._stopped:
            return []
        self._stopped = True
        for pipe in self.pipes:
            pipe.send(EpochCommand(stop=True))
        try:
            reports = self._gather()
        finally:
            for pipe in self.pipes:
                pipe.close()
            for process in self.processes:
                process.join(timeout=30)
        return reports

    def terminate(self) -> None:
        """Hard kill (error paths); normal shutdown goes through stop()."""
        self._stopped = True
        for pipe in self.pipes:
            try:
                pipe.close()
            except OSError:     # pragma: no cover - already closed
                pass
        for process in self.processes:
            if process.is_alive():
                process.terminate()
            process.join(timeout=5)

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.stop()
        else:
            self.terminate()
