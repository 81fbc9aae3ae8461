"""Provider-side capacity planning and admission control.

§8: "the Cloud provider can plan its capacity more accurately because it
knows the resource demands of the applications it provides" — the manifest's
elastic bounds make every service's demand envelope explicit: at least
``minimum`` and at most ``maximum`` instances of each component, each with
declared CPU/memory. This module turns a set of manifests into host counts:

* :func:`demand_envelope` — per-component floor/ceiling resource demand;
* :func:`plan_capacity` — first-fit-decreasing packing of the worst case
  (and the floor) onto a homogeneous host type, honouring per-host caps;
* :class:`AdmissionController` — accept a new manifest only if the pool can
  still host every admitted service's *worst case* simultaneously
  (guaranteed-capacity admission, the conservative policy a provider who
  sells firm elasticity bounds must run).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Iterable, Optional

from ..core.manifest.model import ServiceManifest
from .errors import CapacityError

__all__ = ["InstanceDemand", "DemandEnvelope", "demand_envelope",
           "HostType", "CapacityPlan", "plan_capacity",
           "AdmissionController"]


@dataclass(frozen=True)
class InstanceDemand:
    """One instance's resource demand plus its packing constraints."""

    component: str
    cpu: float
    memory_mb: float
    per_host_cap: Optional[int] = None


@dataclass(frozen=True)
class DemandEnvelope:
    """A service's floor (all minimums) and ceiling (all maximums)."""

    service_name: str
    floor: tuple[InstanceDemand, ...]
    ceiling: tuple[InstanceDemand, ...]

    def totals(self, which: str = "ceiling") -> tuple[float, float]:
        instances = self.ceiling if which == "ceiling" else self.floor
        return (sum(d.cpu for d in instances),
                sum(d.memory_mb for d in instances))


#: Identity-keyed envelope memo. Envelope expansion walks every virtual
#: system of the manifest and allocates the instance tuples; the admission
#: paths recompute it for the *same* manifest object thousands of times per
#: simulated minute at federation scale. Manifests are treated as immutable
#: once built (the builder returns a fresh model), so identity is a sound
#: cache key; entries evict when the manifest is collected.
_envelope_cache: dict[int, tuple[weakref.ref, "DemandEnvelope"]] = {}


def demand_envelope(manifest: ServiceManifest) -> DemandEnvelope:
    """Expand a manifest's elastic bounds into instance lists (memoised by
    manifest identity — manifests are immutable once built)."""
    key = id(manifest)
    hit = _envelope_cache.get(key)
    if hit is not None and hit[0]() is manifest:
        return hit[1]
    envelope = _expand_envelope(manifest)
    try:
        ref = weakref.ref(
            manifest, lambda _r, _k=key: _envelope_cache.pop(_k, None))
    except TypeError:       # unweakreffable manifest stand-in: skip caching
        return envelope
    _envelope_cache[key] = (ref, envelope)
    return envelope


def _expand_envelope(manifest: ServiceManifest) -> DemandEnvelope:
    caps = dict(manifest.placement.per_host_caps)
    floor: list[InstanceDemand] = []
    ceiling: list[InstanceDemand] = []
    for system in manifest.virtual_systems:
        demand = InstanceDemand(
            component=system.system_id,
            cpu=system.hardware.cpu,
            memory_mb=system.hardware.memory_mb,
            per_host_cap=caps.get(system.system_id),
        )
        floor.extend([demand] * system.instances.minimum)
        ceiling.extend([demand] * system.instances.maximum)
    return DemandEnvelope(
        service_name=manifest.service_name,
        floor=tuple(floor), ceiling=tuple(ceiling),
    )


@dataclass(frozen=True)
class HostType:
    """The homogeneous server the pool is built from (the §6.1.2 testbed's
    quad-core/8 GB Opteron by default)."""

    cpu_cores: float = 4.0
    memory_mb: float = 8192.0

    def __post_init__(self) -> None:
        if self.cpu_cores <= 0 or self.memory_mb <= 0:
            raise ValueError("host capacity must be positive")


@dataclass(frozen=True)
class CapacityPlan:
    """Host counts for a workload mix on one host type."""

    host: HostType
    hosts_for_floor: int
    hosts_for_ceiling: int
    floor_cpu: float
    floor_memory_mb: float
    ceiling_cpu: float
    ceiling_memory_mb: float

    @property
    def elasticity_headroom(self) -> int:
        """Extra hosts needed only when every service peaks at once."""
        return self.hosts_for_ceiling - self.hosts_for_floor

    def summary(self) -> str:
        return (f"floor: {self.hosts_for_floor} host(s) "
                f"({self.floor_cpu:.0f} cores / "
                f"{self.floor_memory_mb / 1024:.0f} GB); "
                f"ceiling: {self.hosts_for_ceiling} host(s) "
                f"({self.ceiling_cpu:.0f} cores / "
                f"{self.ceiling_memory_mb / 1024:.0f} GB); "
                f"headroom: {self.elasticity_headroom} host(s)")


def plan_capacity(manifests: list[ServiceManifest],
                  host: Optional[HostType] = None) -> CapacityPlan:
    """Hosts needed to carry all services' floors and (worst-case) ceilings."""
    host = host or HostType()
    envelopes = [demand_envelope(m) for m in manifests]
    floor = [d for e in envelopes for d in e.floor]
    ceiling = [d for e in envelopes for d in e.ceiling]
    return CapacityPlan(
        host=host,
        hosts_for_floor=_pack_rows(_ffd_rows(floor), host),
        hosts_for_ceiling=_pack_rows(_ffd_rows(ceiling), host),
        floor_cpu=sum(d.cpu for d in floor),
        floor_memory_mb=sum(d.memory_mb for d in floor),
        ceiling_cpu=sum(d.cpu for d in ceiling),
        ceiling_memory_mb=sum(d.memory_mb for d in ceiling),
    )


def _ffd_key(d: InstanceDemand) -> tuple[float, float]:
    """First-fit-decreasing sort key (by memory, then CPU, descending)."""
    return (-d.memory_mb, -d.cpu)


#: An FFD key that sorts before every row's: the last key of no rows.
_NO_ROWS = (-math.inf, -math.inf)


def _ffd_rows(demands: Iterable[InstanceDemand]
              ) -> list[tuple[float, float, int, str]]:
    """The ``(cpu, mem, cap, component)`` rows :func:`_pack_rows` packs,
    in first-fit-decreasing order (``-1`` = no per-host cap). The sort is
    stable: equal demands keep their order."""
    return [(d.cpu, d.memory_mb,
             -1 if d.per_host_cap is None else d.per_host_cap, d.component)
            for d in sorted(demands, key=_ffd_key)]


class _Pack:
    """The state of one first-fit-decreasing pass, which :func:`_pack_rows`
    continues in place: per-bin free CPU and memory, per-bin component
    tallies and the skip-start map."""

    __slots__ = ("cpu", "mem", "counts", "starts")

    def __init__(self) -> None:
        self.cpu: list[float] = []
        self.mem: list[float] = []
        self.counts: list[dict[str, int]] = []
        self.starts: dict[tuple, int] = {}

    def __len__(self) -> int:
        return len(self.cpu)

    def copy(self) -> "_Pack":
        other = _Pack()
        other.cpu = self.cpu[:]
        other.mem = self.mem[:]
        other.counts = [dict(c) for c in self.counts]
        other.starts = dict(self.starts)
        return other


def _pack_rows(rows: Iterable[tuple[float, float, int, str]],
               host: HostType, limit: Optional[int] = None,
               pack: Optional[_Pack] = None) -> int:
    """First-fit-decreasing over pre-sorted ``(cpu, mem, cap, component)``
    rows, bins as parallel free-capacity lists; returns bins used.

    Verdict-identical to the object packer kept as the test oracle
    (``tests/oracles/packer.py``, one object per bin; the Hypothesis
    differential suites hold the two together), with two wins that packer
    can't have:

    * **struct-of-arrays bins** — the inner first-fit scan compares floats
      in two lists instead of loading bin attributes, and reads a bin's
      component tally only for a row with a per-host cap;
    * **monotone skip-start** — bins never regain capacity (or shed
      component count) during one pack, so a bin that rejected a demand
      rejects every identical later demand; the scan for each distinct
      ``(component, cpu, mem, cap)`` resumes where its last identical row
      was placed, collapsing the quadratic bin scan of homogeneous fleets
      to a linear pass.

    Every bin tallies every instance placed on it, capped or not, as the
    oracle's bins do (same-named components of different services share a
    tally). An uncapped row never reads a tally, so the tallies only
    matter to capped rows, and any pack can be continued by one.

    ``limit`` is an early exit for admission verdicts: once more than
    ``limit`` bins are open the caller's answer is already "no", so the
    pack stops and returns ``limit + 1``.

    ``pack`` is a pass to continue, updated in place: FFD is one
    sequential pass, so continuing a pack with rows that all sort at or
    after the rows it consumed gives what one pack of both would. A
    caller that keeps a pack continues a copy.
    """
    if pack is None:
        pack = _Pack()
    host_cpu = host.cpu_cores
    host_mem = host.memory_mb
    eps = 1e-9
    bins_cpu = pack.cpu
    bins_mem = pack.mem
    bins_count = pack.counts
    starts = pack.starts
    for cpu, mem, cap, comp in rows:
        if cpu > host_cpu or mem > host_mem:
            raise CapacityError(
                f"instance of {comp!r} (cpu={cpu}, mem={mem}) exceeds "
                f"the host type"
            )
        key = (comp, cpu, mem, cap)
        i = starts.get(key, 0)
        n = len(bins_cpu)
        placed = -1
        if cap < 0:
            while i < n:
                if cpu <= bins_cpu[i] + eps and mem <= bins_mem[i] + eps:
                    placed = i
                    break
                i += 1
        else:
            while i < n:
                if (cpu <= bins_cpu[i] + eps and mem <= bins_mem[i] + eps
                        and bins_count[i].get(comp, 0) < cap):
                    placed = i
                    break
                i += 1
        if placed < 0:
            if limit is not None and n >= limit:
                return n + 1
            bins_cpu.append(host_cpu - cpu)
            bins_mem.append(host_mem - mem)
            bins_count.append({comp: 1})
            starts[key] = n
        else:
            bins_cpu[placed] -= cpu
            bins_mem[placed] -= mem
            counts = bins_count[placed]
            counts[comp] = counts.get(comp, 0) + 1
            starts[key] = placed
    return len(bins_cpu)


class AdmissionController:
    """Guaranteed-capacity admission: every admitted service must be able to
    reach its maximum instances simultaneously on the pool.

    A verdict is exactly a first-fit-decreasing repack of every admitted
    service's ceiling plus the candidate's. The controller's state is the
    list of what it admitted, :attr:`admitted`; the scale harness asks
    thousands of times per simulated minute, so the controller also keeps
    what that repack would redo, each derived from :attr:`admitted`. None
    of it changes a single verdict:

    * the committed ceiling's CPU and memory totals, which give an O(1)
      *necessary* screen: if total demand exceeds the pool's raw capacity,
      no packing fits and nothing is packed;
    * the committed ceiling's FFD pack (a :class:`_Pack`) and the FFD key
      of its last row. FFD is one sequential pass over rows in FFD order,
      and a candidate's rows usually sort at or after every committed row
      (in a homogeneous fleet, always), so the verdict is a copy of that
      pack continued by the candidate's own rows, which stops once the
      pool is exceeded. A candidate with a row that sorts before a
      committed one is packed in full with the committed rows, rebuilt
      from :attr:`admitted`. ``admit`` adopts the verdict's pack, so
      :attr:`headroom` (the key the control plane ranks every site by on
      every submission) is a bin count; ``release`` drops the pack, and
      the next reader packs the ceiling once;
    * the last ``can_admit`` verdict and its pack, memoised by manifest
      identity and a mutation version: ``can_admit`` then ``admit`` packs
      once, and the control plane's repeated probes of a saturated pool
      pack nothing.
    """

    def __init__(self, pool_hosts: int, host: Optional[HostType] = None):
        if pool_hosts <= 0:
            raise ValueError("pool must have at least one host")
        self.pool_hosts = pool_hosts
        self.host = host or HostType()
        self.admitted: list[ServiceManifest] = []
        #: Bumped on every admit/release; guards the verdict memo.
        self._version = 0
        #: the committed ceiling's CPU and memory
        self._cpu = 0.0
        self._mem = 0.0
        #: the FFD key of the committed ceiling's last row
        self._last_key = _NO_ROWS
        #: the committed ceiling's FFD pack; None after a release until read
        self._pack: Optional[_Pack] = _Pack()
        self._last_check: Optional[
            tuple[ServiceManifest, int, bool, Optional[_Pack]]] = None

    def can_admit(self, manifest: ServiceManifest) -> bool:
        memo = self._last_check
        if (memo is not None and memo[0] is manifest
                and memo[1] == self._version):
            return memo[2]
        envelope = demand_envelope(manifest)
        cpu, mem = envelope.totals("ceiling")
        pack = None
        if (self._mem + mem > self.host.memory_mb * self.pool_hosts + 1e-6
                or self._cpu + cpu
                > self.host.cpu_cores * self.pool_hosts + 1e-6):
            # Aggregate demand alone overflows the pool: no packing exists.
            verdict = False
        else:
            try:
                hosts, pack = self._pack_with(envelope,
                                              limit=self.pool_hosts)
            except CapacityError:   # an instance exceeds the host type
                verdict = False
            else:
                verdict = hosts <= self.pool_hosts
        self._last_check = (manifest, self._version, verdict, pack)
        return verdict

    def admit(self, manifest: ServiceManifest) -> None:
        if not self.can_admit(manifest):
            raise CapacityError(
                f"cannot admit {manifest.service_name!r}: worst-case demand "
                f"exceeds the {self.pool_hosts}-host pool"
            )
        envelope = demand_envelope(manifest)
        cpu, mem = envelope.totals("ceiling")
        self._cpu += cpu
        self._mem += mem
        self._last_key = max([self._last_key,
                              *map(_ffd_key, envelope.ceiling)])
        self.admitted.append(manifest)
        # The verdict's pack consumed exactly the committed rows, in FFD
        # order, and never hit its limit.
        self._pack = self._last_check[3]
        self._version += 1

    def release(self, manifest: ServiceManifest) -> None:
        # ``list.remove`` drops the first admitted entry that compares
        # equal; equal manifests have equal envelopes, so releasing any one
        # of them frees identical rows.
        self.admitted.remove(manifest)
        cpu, mem = demand_envelope(manifest).totals("ceiling")
        self._cpu -= cpu
        self._mem -= mem
        self._last_key = max((_ffd_key(d) for m in self.admitted
                              for d in demand_envelope(m).ceiling),
                             default=_NO_ROWS)
        self._pack = None
        self._version += 1

    def probe(self, manifest: ServiceManifest) -> int:
        """Hosts the committed worst case plus this manifest would need.

        Pure what-if: the same pack as :meth:`can_admit` with no pool
        limit, and the verdict memo is left alone — nothing observable
        about the controller changes, so federation-wide probes are
        side-effect free.
        """
        return self._pack_with(demand_envelope(manifest))[0]

    def _rows(self, candidate: tuple[InstanceDemand, ...] = ()
              ) -> list[tuple[float, float, int, str]]:
        """The committed ceiling's :func:`_ffd_rows`, with ``candidate``'s
        rows merged in. The sort is stable, so equal rows keep admission
        order and a candidate's follow the committed ones, as in a repack
        of ``admitted + [candidate]``."""
        return _ffd_rows([d for m in self.admitted
                          for d in demand_envelope(m).ceiling]
                         + list(candidate))

    def _pack_with(self, envelope: DemandEnvelope,
                   limit: Optional[int] = None) -> tuple[int, _Pack]:
        """Pack the committed ceiling plus ``envelope``'s; returns the
        :func:`_pack_rows` result and the pack."""
        rows = _ffd_rows(envelope.ceiling)
        if not rows or (-rows[0][1], -rows[0][0]) >= self._last_key:
            # Every candidate row sorts at or after the committed ones.
            pack = self._committed_pack().copy()
        else:
            pack = _Pack()
            rows = self._rows(envelope.ceiling)
        return _pack_rows(rows, self.host, limit=limit, pack=pack), pack

    def _committed_pack(self) -> _Pack:
        pack = self._pack
        if pack is None:
            pack = self._pack = _Pack()
            _pack_rows(self._rows(), self.host, pack=pack)
        return pack

    def committed_rows(self) -> list[tuple[int, str, float, float,
                                           Optional[int]]]:
        """The committed ceiling as ``(owner, component, cpu, memory_mb,
        per_host_cap)`` rows in FFD order, the owner being the service's
        index in :attr:`admitted` — the admission side of the
        constraint-model encoding (``repro.solver.encode``)."""
        owned = [(i, d) for i, m in enumerate(self.admitted)
                 for d in demand_envelope(m).ceiling]
        owned.sort(key=lambda row: _ffd_key(row[1]))
        return [(i, d.component, d.cpu, d.memory_mb, d.per_host_cap)
                for i, d in owned]

    @property
    def committed_hosts(self) -> int:
        """Hosts the committed worst case packs onto."""
        return len(self._committed_pack())

    @property
    def headroom(self) -> int:
        """Hosts still unreserved at the committed worst case — the ranking
        key the control plane's federated site selection spreads load by."""
        return self.pool_hosts - self.committed_hosts
