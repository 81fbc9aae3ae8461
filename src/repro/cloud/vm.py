"""Virtual machines (VEEs) and deployment descriptors.

The deployment descriptor mirrors the OpenNebula template the paper uses as
the VEEM-level deployment format ("roughly based on a Xen configuration
file", §4.2.2 / Fig. 5): name, memory, cpu, disk source, network interfaces
and contextualisation data. The Service Manager generates one descriptor per
virtual system in the manifest, and the OCL ``Association`` invariant in
§4.2.2 constrains descriptor fields to match the manifest — implemented in
:mod:`repro.core.constraints`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

from ..sim import Environment, Event
from .errors import LifecycleError
from .images import CustomisationDisk

__all__ = ["VMState", "DeploymentDescriptor", "VirtualMachine"]


class VMState(enum.Enum):
    """VEE lifecycle states.

    ::

        PENDING → STAGING → BOOTING → RUNNING → SHUTTING_DOWN → STOPPED
                                       │  ↑ ↑│
                                       │  │ └┴─ SUSPENDED
                                       └──┴──── MIGRATING

    A SUSPENDED VM may also be shut down directly. Any pre-STOPPED state may
    transition to FAILED.
    """

    PENDING = "pending"
    STAGING = "staging"          # image replication to the target host
    BOOTING = "booting"          # hypervisor define + guest OS boot
    RUNNING = "running"
    SUSPENDED = "suspended"
    MIGRATING = "migrating"
    SHUTTING_DOWN = "shutting_down"
    STOPPED = "stopped"
    FAILED = "failed"


#: Legal state transitions; anything else raises :class:`LifecycleError`.
_TRANSITIONS: dict[VMState, frozenset[VMState]] = {
    VMState.PENDING: frozenset({VMState.STAGING, VMState.FAILED}),
    VMState.STAGING: frozenset({VMState.BOOTING, VMState.FAILED}),
    VMState.BOOTING: frozenset({VMState.RUNNING, VMState.FAILED}),
    VMState.RUNNING: frozenset({
        VMState.MIGRATING, VMState.SUSPENDED, VMState.SHUTTING_DOWN,
        VMState.FAILED,
    }),
    VMState.SUSPENDED: frozenset({
        VMState.RUNNING, VMState.SHUTTING_DOWN, VMState.FAILED,
    }),
    VMState.MIGRATING: frozenset({VMState.RUNNING, VMState.FAILED}),
    VMState.SHUTTING_DOWN: frozenset({VMState.STOPPED, VMState.FAILED}),
    VMState.STOPPED: frozenset(),
    VMState.FAILED: frozenset(),
}

#: The terminal states. Bound once here: an enum member read through its
#: class costs more than the membership test, and live-fleet counts run
#: this test for every live VM on every read.
_ENDED = (VMState.STOPPED, VMState.FAILED)


@dataclass
class DeploymentDescriptor:
    """A VEEM-level deployment template for one VEE (OpenNebula style).

    Attributes mirror Fig. 5's ``DeploymentDescriptor``: ``name`` must equal
    the manifest virtual-system id, ``memory_mb``/``cpu`` come from the
    ``VirtualHardwareSection`` and ``disk_source`` from the referenced file's
    ``href``.
    """

    name: str
    memory_mb: float
    cpu: float
    disk_source: str                       # image href
    networks: tuple[str, ...] = ()
    customisation: dict[str, Any] = field(default_factory=dict)
    #: service this VEE belongs to (used to tag monitoring and accounting)
    service_id: Optional[str] = None
    #: manifest component this VEE instantiates (e.g. "CondorExec")
    component_id: Optional[str] = None
    #: free-form placement hints consumed by constraint-aware policies
    placement: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("descriptor name must be non-empty")
        if self.memory_mb <= 0:
            raise ValueError(f"{self.name}: memory must be positive")
        if self.cpu <= 0:
            raise ValueError(f"{self.name}: cpu must be positive")
        if not self.disk_source:
            raise ValueError(f"{self.name}: disk_source must be non-empty")


class VirtualMachine:
    """A VEE: a deployment descriptor bound to a host, with lifecycle events.

    Interested parties wait on :attr:`on_running` / :attr:`on_stopped`; the
    application layer uses ``on_running`` to start guest software (e.g. a
    Condor startd registering with the scheduler).
    """

    def __init__(self, env: Environment, vm_id: str,
                 descriptor: DeploymentDescriptor):
        self.env = env
        self.vm_id = vm_id
        self.descriptor = descriptor
        self.state = VMState.PENDING
        self.host: Optional[Any] = None           # Host, set by the VEEM
        self.ip_addresses: dict[str, str] = {}    # network name → address
        self.customisation_disk: Optional[CustomisationDisk] = None
        self.submitted_at = env.now
        self.running_at: Optional[float] = None
        self.stopped_at: Optional[float] = None
        #: causal ``vm.deploy`` span, set by the VEEM at submit — links this
        #: VEE back to whatever caused it (a rule firing, a control-plane
        #: request, or nothing when deployed directly)
        self.span: Optional[Any] = None
        self.on_running: Event = env.event()
        self.on_stopped: Event = env.event()

    # -- state machine -----------------------------------------------------
    def transition(self, new_state: VMState) -> None:
        if new_state not in _TRANSITIONS[self.state]:
            raise LifecycleError(
                f"VM {self.vm_id}: illegal transition "
                f"{self.state.value} → {new_state.value}"
            )
        self.state = new_state
        if new_state is VMState.RUNNING and self.running_at is None:
            self.running_at = self.env.now
            self.on_running.succeed(self)
        elif new_state in _ENDED:
            self.stopped_at = self.env.now
            self.on_stopped.succeed(self)

    @property
    def is_active(self) -> bool:
        """True while the VM holds (or is acquiring) host capacity."""
        return self.state not in _ENDED

    @property
    def provisioning_time(self) -> Optional[float]:
        """Submission-to-running latency — the overhead Table 3 measures."""
        if self.running_at is None:
            return None
        return self.running_at - self.submitted_at

    def __repr__(self) -> str:
        return (f"<VM {self.vm_id} [{self.descriptor.component_id or '-'}] "
                f"{self.state.value}>")
