"""Virtual networks and DHCP-style IP allocation.

The manifest's ``<NetworkSection>`` declares logical networks (requirement
MDL2); components may need "the IP addresses of the Central Instance and DBMS
to be provided, if this information is not known at pre-deployment time (e.g.
dynamic IP allocation via DHCP)" (MDL6). This module provides those logical
networks and the dynamic allocator whose leases feed customisation disks.
"""

from __future__ import annotations

import heapq
import ipaddress
from dataclasses import dataclass
from typing import Optional

from .errors import NetworkError

__all__ = ["VirtualNetwork", "NetworkFabric"]


@dataclass(frozen=True)
class _Lease:
    address: str
    owner: str


class VirtualNetwork:
    """A logical L2 network with a DHCP-style address pool.

    Addresses are handed out lowest-first and recycled on release, matching
    common DHCP server behaviour closely enough for configuration purposes.
    The free pool is a min-heap of integer addresses, so allocating and
    releasing cost O(log pool) whatever order addresses come back in.
    """

    def __init__(self, name: str, cidr: str = "10.0.0.0/24",
                 public: bool = False):
        if not name:
            raise NetworkError("network name must be non-empty")
        try:
            self._net = ipaddress.ip_network(cidr)
        except ValueError as exc:
            raise NetworkError(f"bad CIDR {cidr!r}: {exc}") from exc
        self.name = name
        self.cidr = cidr
        #: Whether the network provides external connectivity (the SAP Web
        #: Dispatcher "should provide an external interface" — MDL2).
        self.public = public
        # Skip network and broadcast addresses; reserve .1 for the gateway.
        hosts = list(self._net.hosts())
        self.gateway = str(hosts[0]) if hosts else None
        self._address_type = type(self._net.network_address)
        # Ascending, hence already a valid heap.
        self._free = [int(h) for h in hosts[1:]]
        self._leases: dict[str, _Lease] = {}

    @property
    def capacity(self) -> int:
        return len(self._free) + len(self._leases)

    @property
    def allocated(self) -> int:
        return len(self._leases)

    def allocate(self, owner: str) -> str:
        """Lease the next free address to ``owner`` (e.g. a VM id)."""
        if not self._free:
            raise NetworkError(f"network {self.name!r}: address pool exhausted")
        address = str(self._address_type(heapq.heappop(self._free)))
        self._leases[address] = _Lease(address, owner)
        return address

    def release(self, address: str) -> None:
        lease = self._leases.pop(address, None)
        if lease is None:
            raise NetworkError(
                f"network {self.name!r}: {address} is not leased"
            )
        heapq.heappush(self._free, int(self._address_type(address)))

    def owner_of(self, address: str) -> Optional[str]:
        lease = self._leases.get(address)
        return lease.owner if lease else None

    def addresses_of(self, owner: str) -> list[str]:
        return [l.address for l in self._leases.values() if l.owner == owner]

    def __contains__(self, address: str) -> bool:
        return address in self._leases

    def __repr__(self) -> str:
        return (f"<VirtualNetwork {self.name!r} {self.cidr} "
                f"{self.allocated}/{self.capacity} leased>")


class NetworkFabric:
    """The collection of virtual networks available at a site."""

    def __init__(self) -> None:
        self._networks: dict[str, VirtualNetwork] = {}

    def create(self, name: str, cidr: str = "10.0.0.0/24",
               public: bool = False) -> VirtualNetwork:
        if name in self._networks:
            raise NetworkError(f"network {name!r} already exists")
        net = VirtualNetwork(name, cidr, public=public)
        self._networks[name] = net
        return net

    def get(self, name: str) -> VirtualNetwork:
        try:
            return self._networks[name]
        except KeyError:
            raise NetworkError(f"unknown network {name!r}") from None

    def ensure(self, name: str, cidr: str = "10.0.0.0/24",
               public: bool = False) -> VirtualNetwork:
        """Get the network, creating it if the site doesn't have it yet."""
        if name in self._networks:
            return self._networks[name]
        return self.create(name, cidr, public=public)

    def release_all(self, owner: str) -> int:
        """Release every lease held by ``owner`` across all networks."""
        count = 0
        for net in self._networks.values():
            for address in list(net.addresses_of(owner)):
                net.release(address)
                count += 1
        return count

    def __contains__(self, name: str) -> bool:
        return name in self._networks

    def __iter__(self):
        return iter(self._networks.values())
