"""Federation of sites.

"The key differentiator from other Cloud computing infrastructure is
RESERVOIR's ability to federate across different sites ... achieved by
cross-site interactions between multiple different VEEMs operating on behalf
of different Cloud computing providers. This supports replication of virtual
machines to other locations for example for business continuity purposes."
(§2). MDL5 requires service providers to "control the 'spread' of the
application by defining clear constraints on the distribution of services
across sites ... technical (e.g. deploy certain components on a same host) or
administrative (e.g. avoid un-trusted locations)".

A :class:`FederatedCloud` routes deployment requests to member sites subject
to per-component site constraints, and supports cross-site migration with a
WAN transfer cost (disk + memory move, unlike intra-site migration over
shared storage).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..sim.kernel import Environment, Process
from ..sim.tracing import TraceLog
from .errors import PlacementError
from .veem import VEEM
from .vm import DeploymentDescriptor, VirtualMachine, VMState

__all__ = ["Site", "SiteConstraint", "FederatedCloud"]


@dataclass
class Site:
    """One administrative domain: a VEEM plus site-level attributes."""

    name: str
    veem: VEEM
    attributes: dict = field(default_factory=dict)

    @property
    def trusted(self) -> bool:
        return bool(self.attributes.get("trusted", True))


@dataclass(frozen=True)
class SiteConstraint:
    """Per-component site admission rule (MDL5 administrative constraints).

    ``favour`` sites are preferred (tried first); ``avoid`` sites are hard
    exclusions; ``require_trusted`` excludes untrusted sites.
    """

    component: Optional[str] = None        # None = applies to every component
    favour: frozenset[str] = frozenset()
    avoid: frozenset[str] = frozenset()
    require_trusted: bool = False

    def applies_to(self, descriptor: DeploymentDescriptor) -> bool:
        return self.component is None or self.component == descriptor.component_id

    def admits(self, site: Site, descriptor: DeploymentDescriptor) -> bool:
        if not self.applies_to(descriptor):
            return True
        if site.name in self.avoid:
            return False
        if self.require_trusted and not site.trusted:
            return False
        return True

    def preference(self, site: Site, descriptor: DeploymentDescriptor) -> int:
        """Lower sorts earlier; favoured sites come first."""
        if self.applies_to(descriptor) and site.name in self.favour:
            return 0
        return 1


class FederatedCloud:
    """Routes deployments across federated sites."""

    def __init__(self, env: Environment, *,
                 wan_bandwidth_mb_per_s: float = 20.0,
                 trace: Optional[TraceLog] = None):
        if wan_bandwidth_mb_per_s <= 0:
            raise ValueError("WAN bandwidth must be positive")
        self.env = env
        self.wan_bandwidth_mb_per_s = float(wan_bandwidth_mb_per_s)
        self.trace = trace if trace is not None else TraceLog(env)
        self.sites: list[Site] = []
        self.constraints: list[SiteConstraint] = []
        self._vm_site: dict[str, Site] = {}

    # ------------------------------------------------------------------
    def add_site(self, site: Site) -> Site:
        if any(s.name == site.name for s in self.sites):
            raise ValueError(f"duplicate site name {site.name!r}")
        self.sites.append(site)
        return site

    def add_constraint(self, constraint: SiteConstraint) -> None:
        self.constraints.append(constraint)

    def site_of(self, vm: VirtualMachine) -> Site:
        try:
            return self._vm_site[vm.vm_id]
        except KeyError:
            raise PlacementError(
                f"VM {vm.vm_id} is not managed by this federation"
            ) from None

    # ------------------------------------------------------------------
    def eligible_sites(self, descriptor: DeploymentDescriptor) -> list[Site]:
        """Sites admitted by every constraint, favoured sites first."""
        admitted = [
            s for s in self.sites
            if all(c.admits(s, descriptor) for c in self.constraints)
        ]

        def rank(site: Site) -> tuple:
            prefs = [c.preference(site, descriptor) for c in self.constraints]
            return (min(prefs) if prefs else 1, self.sites.index(site))

        return sorted(admitted, key=rank)

    def submit(self, descriptor: DeploymentDescriptor) -> VirtualMachine:
        """Deploy on the first eligible site with capacity."""
        errors: list[str] = []
        for site in self.eligible_sites(descriptor):
            try:
                vm = site.veem.submit(descriptor)
            except PlacementError as exc:
                errors.append(f"{site.name}: {exc}")
                continue
            self._vm_site[vm.vm_id] = site
            self.trace.emit("federation", "vm.routed", vm=vm.vm_id,
                            site=site.name,
                            component=descriptor.component_id)
            return vm
        detail = "; ".join(errors) if errors else "no eligible site"
        raise PlacementError(
            f"federation: cannot place {descriptor.name!r} ({detail})"
        )

    def shutdown(self, vm: VirtualMachine) -> Process:
        return self.site_of(vm).veem.shutdown(vm)

    def migrate_cross_site(self, vm: VirtualMachine,
                           target_site: Site) -> Process:
        """Move a running VM to another site (business-continuity scenario).

        Cross-site moves pay WAN transfer of the full disk image plus memory;
        the VM is re-instantiated through the target VEEM.
        """
        if vm.state is not VMState.RUNNING:
            raise PlacementError(
                f"cannot migrate {vm.vm_id} in state {vm.state.value}"
            )
        source_site = self.site_of(vm)
        if target_site not in self.sites:
            raise PlacementError(f"unknown target site {target_site.name!r}")
        if source_site is target_site:
            raise PlacementError("cross-site migration within a single site")
        # Check target constraints still hold for this component.
        if not all(c.admits(target_site, vm.descriptor)
                   for c in self.constraints):
            raise PlacementError(
                f"site {target_site.name} excluded by constraints for "
                f"{vm.descriptor.component_id}"
            )
        return self.env.process(
            self._migrate_cross_site(vm, source_site, target_site),
            name=f"xmigrate:{vm.vm_id}",
        )

    def _migrate_cross_site(self, vm: VirtualMachine, source: Site,
                            target: Site):
        image = source.veem.repository.resolve_href(vm.descriptor.disk_source)
        transfer_mb = image.size_mb + vm.descriptor.memory_mb
        self.trace.emit("federation", "vm.xmigrate.start", vm=vm.vm_id,
                        from_site=source.name, to_site=target.name,
                        transfer_mb=transfer_mb)
        yield self.env.timeout(transfer_mb / self.wan_bandwidth_mb_per_s)
        # Stop at source, then redeploy at target with the same descriptor.
        yield source.veem.shutdown(vm)
        # The image must exist at the target repository too.
        if image.image_id not in target.veem.repository:
            target.veem.repository.register(image)
        new_vm = target.veem.submit(vm.descriptor)
        self._vm_site[new_vm.vm_id] = target
        yield new_vm.on_running
        self.trace.emit("federation", "vm.xmigrate.done", vm=vm.vm_id,
                        new_vm=new_vm.vm_id, site=target.name)
        return new_vm
