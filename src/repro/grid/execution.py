"""Condor execution services bound to VM lifecycles.

§6.1.1: "The last type of component is the Condor Execution Service, which
runs the necessary daemons to act as a Condor execution node. These daemons
will advertise the node as an available resource on which jobs can be run."

§6.1.4 attributes part of the elastic overhead to "the registration process,
which is the additional time required for the service to become fully
operational as the running daemons register themselves with the grid
management service" — modelled here as ``registration_delay_s`` between the
VM reaching RUNNING and the node appearing in the scheduler.

:class:`ExecutionService` is the guest program for one Condor-exec VM;
:class:`VirtualCluster` is the application-side manager that the Service
Manager's elasticity actions drive (deploy → new service; undeploy → drain
and shut down).
"""

from __future__ import annotations

from typing import Optional

from ..cloud.veem import VEEM
from ..cloud.vm import VirtualMachine
from ..sim.kernel import Environment
from ..sim.tracing import TraceLog
from .scheduler import CondorScheduler, ExecutionNodeHandle

__all__ = ["ExecutionService", "VirtualCluster", "CondorExecDriver"]


class ExecutionService:
    """The startd daemons inside one Condor execution VM."""

    def __init__(self, env: Environment, vm: VirtualMachine,
                 scheduler: CondorScheduler, *,
                 registration_delay_s: float = 20.0,
                 transfer_mb_per_s: float = 50.0,
                 trace: Optional[TraceLog] = None):
        if registration_delay_s < 0:
            raise ValueError("registration delay must be non-negative")
        self.env = env
        self.vm = vm
        self.scheduler = scheduler
        self.registration_delay_s = registration_delay_s
        self.trace = trace if trace is not None else scheduler.trace
        self.node = ExecutionNodeHandle(
            name=f"startd@{vm.vm_id}", transfer_mb_per_s=transfer_mb_per_s,
        )
        self.registered = False
        env.process(self._boot_sequence(), name=f"startd:{vm.vm_id}")
        env.process(self._watch_failure(), name=f"startd-watch:{vm.vm_id}")

    def _boot_sequence(self):
        # Wait for the guest OS, then for the daemons to come up and
        # advertise the node to the schedd.
        if not self.vm.on_running.processed:
            yield self.vm.on_running
        yield self.env.timeout(self.registration_delay_s)
        if not self.vm.is_active:
            return  # VM was killed while the daemons were starting
        self.scheduler.register_node(self.node)
        self.registered = True
        self.trace.emit("exec-service", "registered", vm=self.vm.vm_id,
                        node=self.node.name)

    def _watch_failure(self):
        # A crashed VM takes its daemons with it: the node vanishes from the
        # schedd and any running job is requeued elsewhere.
        if not self.vm.on_stopped.processed:
            yield self.vm.on_stopped
        from ..cloud.vm import VMState
        if self.vm.state is VMState.FAILED:
            self.scheduler.node_failed(self.node)
            self.registered = False

    def drain(self) -> None:
        """Begin orderly removal: no new matches, deregister when idle."""
        if self.registered and self.node.name in self.scheduler.nodes:
            self.scheduler.drain_node(self.node)
        self.registered = False


class VirtualCluster:
    """The elastic Condor cluster: VMs ↔ execution services glue.

    This is the application-level counterpart of the elasticity actions:
    the Service Manager deploys exec VMs through :class:`CondorExecDriver`
    (submit to the VEEM, then :meth:`attach_vm`) and releases them through
    :meth:`release_instance`, and the cluster keeps the scheduler's node set
    consistent with the VM pool. It also exposes the instance-count KPI
    (``uk.ucl.condor.exec.instances.size``) used in the paper's rule.
    """

    def __init__(self, env: Environment, veem: VEEM,
                 scheduler: CondorScheduler, *,
                 registration_delay_s: float = 20.0,
                 trace: Optional[TraceLog] = None):
        self.env = env
        self.veem = veem
        self.scheduler = scheduler
        self.registration_delay_s = registration_delay_s
        self.trace = trace if trace is not None else scheduler.trace
        self.services: list[ExecutionService] = []

    # -- KPI -----------------------------------------------------------------
    @property
    def instance_count(self) -> int:
        """Active (live VM) execution instances, pending ones included —
        counting in-flight deployments keeps the rule from re-firing for the
        same queue spike on every evaluation tick."""
        return sum(1 for s in self.services if s.vm.is_active)

    # -- elasticity actions -----------------------------------------------------
    def attach_vm(self, vm: VirtualMachine) -> ExecutionService:
        """Wrap an externally submitted VM as a cluster execution service.

        Used by the Service Manager integration, where the lifecycle manager
        generates the deployment descriptor (so the Association invariant
        holds) and the cluster only supplies the guest-software glue.
        """
        service = ExecutionService(
            self.env, vm, self.scheduler,
            registration_delay_s=self.registration_delay_s,
            trace=self.trace,
        )
        self.services.append(service)
        return service

    def release_instance(self) -> Optional[ExecutionService]:
        """Action ``undeployVM``: drain one node and stop its VM.

        Prefers idle nodes; a busy node finishes its current job first
        (Condor would otherwise evict and re-run the job — needlessly
        wasteful when downsizing on a shrinking queue).
        """
        handle = self.scheduler.pick_node_to_drain()
        service = None
        if handle is not None:
            service = next(
                (s for s in self.services if s.node is handle), None)
        if service is None:
            # Nothing registered yet: fall back to an unregistered live VM
            # (covers killing instances that are still provisioning).
            service = next(
                (s for s in reversed(self.services)
                 if s.vm.is_active and not s.registered), None)
            if service is None:
                return None
        self.services.remove(service)
        # Drain synchronously so back-to-back release calls never pick the
        # same node twice; capture the drained event before draining because
        # an idle node deregisters (and fires the callback) immediately.
        drained = None
        if service.registered or service.node.name in self.scheduler.nodes:
            drained = self.env.event()
            service.node.on_drained = (
                lambda _n, ev=drained: ev.succeed())
        service.drain()
        self.env.process(self._teardown(service, drained),
                         name=f"teardown:{service.vm.vm_id}")
        self.trace.emit("cluster", "instance.release", vm=service.vm.vm_id,
                        instances=self.instance_count)
        return service

    def _teardown(self, service: ExecutionService, drained):
        vm = service.vm
        if drained is not None and not drained.processed:
            yield drained
        if not vm.is_active:
            return
        if not vm.on_running.processed:
            # VM still provisioning: let it finish booting, then kill it.
            yield vm.on_running
        yield self.veem.shutdown(vm)


class CondorExecDriver:
    """:class:`~repro.core.service_manager.lifecycle.ComponentDriver` adapter
    binding the elastic Condor component to a :class:`VirtualCluster`.

    The Service Lifecycle Manager generates descriptors and enforces bounds;
    this driver supplies the application mechanics — startd registration on
    deploy, drain-before-shutdown on release.
    """

    def __init__(self, cluster: VirtualCluster):
        self.cluster = cluster

    def deploy(self, descriptor) -> VirtualMachine:
        vm = self.cluster.veem.submit(descriptor)
        return self.cluster.attach_vm(vm).vm

    def release(self) -> Optional[VirtualMachine]:
        service = self.cluster.release_instance()
        return service.vm if service is not None else None
