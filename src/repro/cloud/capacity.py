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

import weakref
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

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


def _ffd_rows(demands: Iterable[InstanceDemand]
              ) -> list[tuple[float, float, int, str]]:
    """The ``(cpu, mem, cap, component)`` rows :func:`_pack_rows` packs,
    in first-fit-decreasing order (``-1`` = no per-host cap)."""
    return [(d.cpu, d.memory_mb,
             -1 if d.per_host_cap is None else d.per_host_cap, d.component)
            for d in sorted(demands, key=_ffd_key)]


class _Pack:
    """The state of one first-fit-decreasing pass, which :func:`_pack_rows`
    continues in place: per-bin free CPU and memory, per-bin component
    tallies (kept only when the pack tallies) and the skip-start map."""

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
               track_counts: bool = True,
               pack: Optional[_Pack] = None) -> int:
    """First-fit-decreasing over pre-sorted ``(cpu, mem, cap, component)``
    rows, bins as parallel free-capacity lists; returns bins used.

    Verdict-identical to the object packer kept as the test oracle
    (``tests/oracles/packer.py``, one object per bin; the Hypothesis
    differential suites hold the two together), with two wins that packer
    can't have:

    * **struct-of-arrays bins** — the inner first-fit scan compares floats
      in two lists instead of loading bin attributes; per-bin
      component tallies are only kept when a per-host cap is present;
    * **monotone skip-start** — bins never regain capacity (or shed
      component count) during one pack, so a bin that rejected a demand
      rejects every identical later demand; the scan for each distinct
      ``(component, cpu, mem, cap)`` resumes where its last identical row
      was placed, collapsing the quadratic bin scan of homogeneous fleets
      to a linear pass.

    ``limit`` is an early exit for admission verdicts: once more than
    ``limit`` bins are open the caller's answer is already "no", so the
    pack stops and returns ``limit + 1``.

    ``track_counts=False`` skips per-bin component tallies entirely. A
    tallying pack counts *every* placed instance (capped or not — and
    same-named components of different services share a bin's tally), so
    this is only sound when the caller knows **no row in the whole pack**
    carries a cap; :class:`_DemandTable` tracks exactly that.

    ``pack`` is a pass to continue, updated in place: FFD is one
    sequential pass, so continuing a pack with rows that all sort at or
    after the rows it consumed (with the same ``track_counts``) gives what
    one pack of both would. A caller that keeps a pack continues a copy.
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
            if track_counts:
                bins_count.append({comp: 1})
            starts[key] = n
        else:
            bins_cpu[placed] -= cpu
            bins_mem[placed] -= mem
            if track_counts:
                counts = bins_count[placed]
                counts[comp] = counts.get(comp, 0) + 1
            starts[key] = placed
    return len(bins_cpu)


class _DemandTable:
    """Struct-of-arrays table of committed instance demands, maintained in
    first-fit-decreasing order.

    Columns (parallel, keyed by dense row index): ``cpu``/``mem`` as
    ``array('d')``, per-host cap as ``array('l')`` (``-1`` = uncapped),
    component name and owner token as lists. New demands bisect into FFD
    position (equal keys land *after* existing rows), so the table's row
    order is exactly what ``sorted(admitted-expansion, key=FFD)`` would
    produce: :func:`_pack_rows` over it packs as a repack of the admitted
    manifests would.
    """

    __slots__ = ("cpu", "mem", "cap", "comp", "owner", "keys",
                 "total_cpu", "total_mem", "capped_rows")

    def __init__(self) -> None:
        self.cpu = array("d")
        self.mem = array("d")
        self.cap = array("l")
        self.comp: list[str] = []
        self.owner: list[int] = []
        #: FFD sort keys, kept parallel for the bisect
        self.keys: list[tuple[float, float]] = []
        self.total_cpu = 0.0
        self.total_mem = 0.0
        #: rows carrying a per-host cap — when zero (the common fleet),
        #: packs over this table can skip per-bin component tallies
        self.capped_rows = 0

    def __len__(self) -> int:
        return len(self.cpu)

    def insert(self, token: int, demands: tuple[InstanceDemand, ...]) -> None:
        for d in sorted(demands, key=_ffd_key):
            key = _ffd_key(d)
            pos = bisect_right(self.keys, key)
            self.keys.insert(pos, key)
            self.cpu.insert(pos, d.cpu)
            self.mem.insert(pos, d.memory_mb)
            self.cap.insert(pos, -1 if d.per_host_cap is None
                            else d.per_host_cap)
            self.comp.insert(pos, d.component)
            self.owner.insert(pos, token)
            self.total_cpu += d.cpu
            self.total_mem += d.memory_mb
            if d.per_host_cap is not None:
                self.capped_rows += 1

    def remove(self, token: int) -> None:
        keep = [i for i, t in enumerate(self.owner) if t != token]
        if len(keep) == len(self.owner):
            return
        for i, t in enumerate(self.owner):
            if t == token:
                self.total_cpu -= self.cpu[i]
                self.total_mem -= self.mem[i]
                if self.cap[i] >= 0:
                    self.capped_rows -= 1
        self.cpu = array("d", (self.cpu[i] for i in keep))
        self.mem = array("d", (self.mem[i] for i in keep))
        self.cap = array("l", (self.cap[i] for i in keep))
        self.comp = [self.comp[i] for i in keep]
        self.owner = [self.owner[i] for i in keep]
        self.keys = [self.keys[i] for i in keep]

    def rows(self) -> Iterator[tuple[float, float, int, str]]:
        return zip(self.cpu, self.mem, self.cap, self.comp)

    def rows_with(self, extra: list[tuple[float, float, int, str]]
                  ) -> Iterator[tuple[float, float, int, str]]:
        """Rows merged with a candidate's :func:`_ffd_rows`, preserving FFD
        order (candidate rows after equal-key committed rows — exactly
        where a repack of ``admitted + [candidate]`` would stable-sort
        them)."""
        keys = self.keys
        table_rows = self.rows()
        i, n = 0, len(keys)
        for row in extra:
            key = (-row[1], -row[0])
            while i < n and keys[i] <= key:
                yield next(table_rows)
                i += 1
            yield row
        yield from table_rows


class AdmissionController:
    """Guaranteed-capacity admission: every admitted service must be able to
    reach its maximum instances simultaneously on the pool.

    A verdict is exactly a first-fit-decreasing repack of every admitted
    service's ceiling plus the candidate's, but the scale harness asks
    thousands of times per simulated minute, so the controller keeps what
    that repack would redo. None of this changes a single verdict:

    * the committed ceiling lives in a struct-of-arrays
      :class:`_DemandTable`, kept in FFD order incrementally with running
      totals, which give an O(1) *necessary* screen: if total demand
      exceeds the pool's raw capacity, no packing fits and nothing is
      packed;
    * the table's FFD pack (a :class:`_Pack`). FFD is one sequential pass
      over rows in FFD order, and a candidate's rows usually sort after
      every committed row (in a homogeneous fleet, always), so the verdict
      is a copy of that pack continued by the candidate's own rows, which
      stops once the pool is exceeded. A candidate with a row that sorts
      before a committed one, or that brings the first capped row into an
      untallied pack, is packed in full with the committed rows.
      ``admit`` adopts the verdict's pack, so :attr:`headroom` (the key
      the control plane ranks every site by on every submission) is a bin
      count; ``release`` drops the pack, and the next reader packs the
      ceiling once;
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
        self._ceiling = _DemandTable()
        self._tokens: list[int] = []
        self._next_token = 0
        #: the FFD pack of ``_ceiling``; None after a release until read
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
        if (self._ceiling.total_mem + mem
                > self.host.memory_mb * self.pool_hosts + 1e-6
                or self._ceiling.total_cpu + cpu
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
        # The verdict's pack consumed exactly the rows the table holds
        # after this insert, in the same order, and never hit its limit.
        pack = self._last_check[3]
        envelope = demand_envelope(manifest)
        token = self._next_token
        self._next_token += 1
        self.admitted.append(manifest)
        self._tokens.append(token)
        self._ceiling.insert(token, envelope.ceiling)
        self._pack = pack
        self._version += 1

    def release(self, manifest: ServiceManifest) -> None:
        # Same semantics as ``list.remove``: drop the first admitted entry
        # that compares equal (equal manifests have equal envelopes, so
        # releasing any one of them frees identical rows).
        index = self.admitted.index(manifest)
        del self.admitted[index]
        token = self._tokens.pop(index)
        self._ceiling.remove(token)
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

    def _pack_with(self, envelope: DemandEnvelope,
                   limit: Optional[int] = None) -> tuple[int, _Pack]:
        """Pack the committed ceiling plus ``envelope``'s; returns the
        :func:`_pack_rows` result and the pack."""
        table = self._ceiling
        rows = _ffd_rows(envelope.ceiling)
        tallied = table.capped_rows > 0
        capped = any(row[2] >= 0 for row in rows)
        if ((not rows or not table.keys
                or (-rows[0][1], -rows[0][0]) >= table.keys[-1])
                and (tallied or not capped)):
            # Every candidate row sorts after the committed ones, and the
            # committed pack tallies if the candidate needs it to.
            pack = self._committed_pack().copy()
            hosts = _pack_rows(rows, self.host, limit=limit,
                               track_counts=tallied, pack=pack)
        else:
            pack = _Pack()
            hosts = _pack_rows(table.rows_with(rows), self.host,
                               limit=limit, track_counts=tallied or capped,
                               pack=pack)
        return hosts, pack

    def _committed_pack(self) -> _Pack:
        pack = self._pack
        if pack is None:
            pack = self._pack = _Pack()
            _pack_rows(self._ceiling.rows(), self.host,
                       track_counts=self._ceiling.capped_rows > 0, pack=pack)
        return pack

    def committed_rows(self) -> list[tuple[int, str, float, float,
                                           Optional[int]]]:
        """The committed ceiling as ``(owner_token, component, cpu,
        memory_mb, per_host_cap)`` rows in FFD order — the admission side
        of the constraint-model encoding (``repro.solver.encode``)."""
        t = self._ceiling
        return [(t.owner[i], t.comp[i], t.cpu[i], t.mem[i],
                 None if t.cap[i] < 0 else int(t.cap[i]))
                for i in range(len(t))]

    @property
    def committed_hosts(self) -> int:
        """Hosts the committed worst case packs onto."""
        return len(self._committed_pack())

    @property
    def headroom(self) -> int:
        """Hosts still unreserved at the committed worst case — the ranking
        key the control plane's federated site selection spreads load by."""
        return self.pool_hosts - self.committed_hosts
