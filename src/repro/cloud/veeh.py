"""Virtual Execution Environment Hosts (VEEHs).

A VEEH is a physical server running a hypervisor. The evaluation testbed is
"a collection of six servers, each ... a Quad-Core AMD Opteron ... and 8 GBs
of RAM and with shared storage via NFS" (§6.1.2). A host models:

* capacity (CPU cores, memory) with strict admission control,
* an image cache — a cache miss pays the repository transfer time,
  a hit (pre-staged image) is free, matching the paper's mitigation note,
* hypervisor operation latencies (domain definition, boot, shutdown).

The host exposes *mechanism* only (reserve, stage, boot, stop); placement
*policy* lives in :mod:`repro.cloud.placement` and orchestration in the VEEM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..sim.kernel import Environment
from .errors import CapacityError
from .images import ImageRepository
from .vm import VirtualMachine, VMState

__all__ = ["HypervisorTimings", "Host"]


@dataclass(frozen=True)
class HypervisorTimings:
    """Latency model for hypervisor operations (seconds).

    Defaults approximate a Xen host of the paper's era: tens of seconds to
    boot a guest OS; domain definition and shutdown are cheap by comparison.
    """

    define_s: float = 2.0          # create the domain from the template
    boot_s: float = 45.0           # guest OS boot until userland is up
    shutdown_s: float = 10.0       # orderly guest shutdown
    migrate_suspend_s: float = 5.0  # suspend/resume cost on live migration
    suspend_s: float = 8.0         # write guest memory image to disk
    resume_s: float = 6.0          # restore guest memory image

    def __post_init__(self) -> None:
        for name in ("define_s", "boot_s", "shutdown_s", "migrate_suspend_s",
                     "suspend_s", "resume_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


class Host:
    """One physical server managed by a VEEM."""

    def __init__(self, env: Environment, name: str, *,
                 cpu_cores: float = 4.0, memory_mb: float = 8192.0,
                 timings: Optional[HypervisorTimings] = None,
                 attributes: Optional[dict] = None):
        if cpu_cores <= 0 or memory_mb <= 0:
            raise ValueError(f"host {name!r}: capacity must be positive")
        self.env = env
        self.name = name
        self.cpu_cores = float(cpu_cores)
        self.memory_mb = float(memory_mb)
        self.timings = timings or HypervisorTimings()
        #: free-form attributes used by placement constraints (rack, zone...)
        self.attributes = dict(attributes or {})
        self.vms: list[VirtualMachine] = []
        self._image_cache: set[str] = set()
        self._cpu_used = 0.0
        self._mem_used = 0.0
        #: a failed host accepts no placements until recovered
        self.failed = False
        #: accounting hooks
        self.images_staged = 0
        self.cache_hits = 0

    # -- capacity ------------------------------------------------------------
    @property
    def cpu_free(self) -> float:
        return self.cpu_cores - self._cpu_used

    @property
    def memory_free(self) -> float:
        return self.memory_mb - self._mem_used

    def fits(self, cpu: float, memory_mb: float) -> bool:
        if self.failed:
            return False
        # Small epsilon so accumulated float error can't reject an exact fit.
        eps = 1e-9
        return cpu <= self.cpu_free + eps and memory_mb <= self.memory_free + eps

    def reserve(self, vm: VirtualMachine) -> None:
        """Admit ``vm``: reserve its descriptor's capacity on this host."""
        d = vm.descriptor
        if not self.fits(d.cpu, d.memory_mb):
            raise CapacityError(
                f"host {self.name}: cannot fit cpu={d.cpu} mem={d.memory_mb} "
                f"(free cpu={self.cpu_free:.2f} mem={self.memory_free:.0f})"
            )
        self._cpu_used += d.cpu
        self._mem_used += d.memory_mb
        self.vms.append(vm)
        vm.host = self

    def release(self, vm: VirtualMachine) -> None:
        # ``vm.host`` is maintained by reserve/release, so the identity check
        # replaces an O(fleet) list membership scan.
        if vm.host is not self:
            raise CapacityError(f"host {self.name}: VM {vm.vm_id} not placed here")
        d = vm.descriptor
        self._cpu_used -= d.cpu
        self._mem_used -= d.memory_mb
        # Guard against float drift taking usage slightly negative.
        self._cpu_used = max(self._cpu_used, 0.0)
        self._mem_used = max(self._mem_used, 0.0)
        self.vms.remove(vm)
        vm.host = None

    def resize(self, vm: VirtualMachine, *, cpu: Optional[float] = None,
               memory_mb: Optional[float] = None) -> None:
        """Adjust a placed VM's reservation (VEEM ``reconfigure`` support)."""
        if vm.host is not self:
            raise CapacityError(f"host {self.name}: VM {vm.vm_id} not placed here")
        d = vm.descriptor
        new_cpu = d.cpu if cpu is None else float(cpu)
        new_mem = d.memory_mb if memory_mb is None else float(memory_mb)
        if new_cpu <= 0 or new_mem <= 0:
            raise ValueError("resized capacity must be positive")
        dcpu, dmem = new_cpu - d.cpu, new_mem - d.memory_mb
        eps = 1e-9
        if dcpu > self.cpu_free + eps or dmem > self.memory_free + eps:
            raise CapacityError(
                f"host {self.name}: cannot grow VM {vm.vm_id} by "
                f"cpu={dcpu} mem={dmem}"
            )
        self._cpu_used += dcpu
        self._mem_used += dmem
        d.cpu, d.memory_mb = new_cpu, new_mem

    # -- image cache -----------------------------------------------------------
    def prestage(self, image_id: str) -> None:
        """Mark an image as already present (ablation: avoid replication)."""
        self._image_cache.add(image_id)

    def stage_image(self, repo: ImageRepository, image_id: str):
        """Process: make the base image available locally.

        Returns a generator to be driven by the caller (the VEEM deploy
        process). A cache hit (an image :meth:`prestage` placed) completes
        immediately. Otherwise each VM deployment pays the replication cost
        ("duplicating the disk image", §6.1.4), because the copy-on-deploy
        clone is per-VM.
        """
        if image_id in self._image_cache:
            self.cache_hits += 1
            return
        duration = repo.record_transfer(image_id)
        self.images_staged += 1
        yield self.env.timeout(duration)

    # -- failure injection -------------------------------------------------------
    def fail(self) -> list[VirtualMachine]:
        """Hardware failure: every resident VM dies; no new placements.

        Returns the casualties so the caller (VEEM) can notify watchers.
        Capacity is released — the dead VMs no longer occupy anything.
        """
        self.failed = True
        casualties = list(self.vms)
        for vm in casualties:
            if vm.is_active:
                vm.transition(VMState.FAILED)
            self._cpu_used -= vm.descriptor.cpu
            self._mem_used -= vm.descriptor.memory_mb
            vm.host = None
        self._cpu_used = max(self._cpu_used, 0.0)
        self._mem_used = max(self._mem_used, 0.0)
        self.vms.clear()
        return casualties

    def recover(self) -> None:
        """Bring a failed host back into service (empty, cold caches)."""
        self.failed = False
        self._image_cache.clear()

    # -- introspection ---------------------------------------------------------
    def __repr__(self) -> str:
        return (f"<Host {self.name} cpu {self._cpu_used:.1f}/{self.cpu_cores} "
                f"mem {self._mem_used:.0f}/{self.memory_mb:.0f} "
                f"vms={len(self.vms)}>")
