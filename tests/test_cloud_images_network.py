"""Unit tests for the image repository and virtual networks."""

import bisect
import ipaddress
import random

import pytest

from repro.cloud import (
    DiskImage,
    ImageError,
    ImageRepository,
    NetworkError,
    NetworkFabric,
    VirtualNetwork,
)


# ---------------------------------------------------------------------------
# Images
# ---------------------------------------------------------------------------

def test_disk_image_validation():
    with pytest.raises(ValueError):
        DiskImage("img", "href", size_mb=0)
    with pytest.raises(ValueError):
        DiskImage("", "href", size_mb=10)


def test_repository_register_and_get():
    repo = ImageRepository()
    img = repo.add("condor-exec", size_mb=2048)
    assert repo.get("condor-exec") is img
    assert "condor-exec" in repo
    assert len(repo) == 1
    assert img.href.endswith("/condor-exec")


def test_repository_duplicate_rejected():
    repo = ImageRepository()
    repo.add("a", size_mb=10)
    with pytest.raises(ImageError):
        repo.add("a", size_mb=10)


def test_repository_unknown_image():
    repo = ImageRepository()
    with pytest.raises(ImageError):
        repo.get("nope")
    with pytest.raises(ImageError):
        repo.resolve_href("http://nowhere")


def test_repository_resolve_href():
    repo = ImageRepository()
    img = repo.add("a", size_mb=10, href="http://sm/images/a.img")
    assert repo.resolve_href("http://sm/images/a.img") is img


def test_transfer_time_scales_with_size_and_bandwidth():
    repo = ImageRepository(bandwidth_mb_per_s=50)
    repo.add("big", size_mb=1000)
    assert repo.transfer_time("big") == pytest.approx(20.0)


def test_record_transfer_accounts_bytes():
    repo = ImageRepository(bandwidth_mb_per_s=100)
    repo.add("img", size_mb=500)
    d1 = repo.record_transfer("img")
    d2 = repo.record_transfer("img")
    assert d1 == d2 == pytest.approx(5.0)
    assert repo.bytes_served_mb == 1000


def test_customisation_disks_unique_ids():
    repo = ImageRepository()
    d1 = repo.make_customisation_disk({"ip": "10.0.0.2"})
    d2 = repo.make_customisation_disk({"ip": "10.0.0.3"})
    assert d1.disk_id != d2.disk_id
    assert d1.properties == {"ip": "10.0.0.2"}


def test_bad_bandwidth_rejected():
    with pytest.raises(ValueError):
        ImageRepository(bandwidth_mb_per_s=0)


# ---------------------------------------------------------------------------
# Networks
# ---------------------------------------------------------------------------

def test_network_allocates_sequential_addresses():
    net = VirtualNetwork("internal", "192.168.1.0/29")
    # /29 → 6 host addrs, .1 is the gateway → 5 allocatable.
    a = net.allocate("vm1")
    b = net.allocate("vm2")
    assert a == "192.168.1.2"
    assert b == "192.168.1.3"
    assert net.gateway == "192.168.1.1"
    assert net.allocated == 2


def test_network_release_and_reuse_lowest_first():
    net = VirtualNetwork("n", "10.0.0.0/28")
    a = net.allocate("vm1")
    b = net.allocate("vm2")
    net.release(a)
    c = net.allocate("vm3")
    assert c == a  # lowest free address is recycled
    assert net.owner_of(b) == "vm2"
    assert net.owner_of(c) == "vm3"


def test_network_pool_exhaustion():
    net = VirtualNetwork("tiny", "10.0.0.0/30")  # 2 hosts, 1 after gateway
    net.allocate("vm1")
    with pytest.raises(NetworkError):
        net.allocate("vm2")


def test_network_release_unknown_raises():
    net = VirtualNetwork("n", "10.0.0.0/29")
    with pytest.raises(NetworkError):
        net.release("10.0.0.2")


def test_network_addresses_of_owner():
    net = VirtualNetwork("n", "10.0.0.0/28")
    a = net.allocate("vm1")
    b = net.allocate("vm1")
    net.allocate("vm2")
    assert sorted(net.addresses_of("vm1")) == sorted([a, b])


def test_network_bad_cidr():
    with pytest.raises(NetworkError):
        VirtualNetwork("n", "not-a-cidr")
    with pytest.raises(NetworkError):
        VirtualNetwork("", "10.0.0.0/24")


class PoolModel:
    """The address pool as a list kept sorted by ``ipaddress.ip_address``:
    the numeric order, which string order contradicts at .9/.10, .99/.100
    and ::9/::10."""

    def __init__(self, cidr: str):
        hosts = list(ipaddress.ip_network(cidr).hosts())
        self.free = [str(h) for h in hosts[1:]]  # .1 is the gateway
        self.leases: dict[str, str] = {}

    def allocate(self, owner: str) -> str:
        address = self.free.pop(0)
        self.leases[address] = owner
        return address

    def release(self, address: str) -> None:
        del self.leases[address]
        bisect.insort(self.free, address, key=ipaddress.ip_address)


def check_pool_against_model(cidr: str, seed: int, ops: int = 400) -> int:
    """Drive the pool and the model with one random sequence; return how
    many allocations the exhausted pool refused."""
    rng = random.Random(seed)
    net, model = VirtualNetwork("n", cidr), PoolModel(cidr)
    refused = 0
    for step in range(ops):
        roll = rng.random()
        if roll < 0.55 or not model.leases:
            if not model.free:
                with pytest.raises(NetworkError):
                    net.allocate(f"vm{step}")
                refused += 1
                continue
            assert net.allocate(f"vm{step}") == model.allocate(f"vm{step}")
        elif roll < 0.95:
            # Release any lease, so addresses come back out of order.
            address = rng.choice(sorted(model.leases))
            model.release(address)
            net.release(address)
        else:
            unknown = rng.choice(model.free[:8]
                                 + ["not-an-address", "192.0.2.77"])
            with pytest.raises(NetworkError):
                net.release(unknown)
        assert net.allocated == len(model.leases)
        assert net.capacity == len(model.free) + len(model.leases)
    for address, owner in model.leases.items():
        assert net.owner_of(address) == owner
        assert address in net
    return refused


@pytest.mark.parametrize("cidr", ["10.0.0.0/24", "fd00::/120"])
@pytest.mark.parametrize("seed", range(6))
def test_address_pool_matches_numeric_order_model(cidr, seed):
    check_pool_against_model(cidr, seed)


@pytest.mark.parametrize("seed", range(6))
def test_small_address_pool_exhausts_like_model(seed):
    # 29 addresses (.98 to .126): about 60 net allocations drain it dry,
    # so the sequence keeps hitting exhaustion and refilling.
    assert check_pool_against_model("192.168.7.96/27", seed) > 0


def test_address_pool_refills_then_exhausts():
    """A full cycle on a tiny pool: exhaust, release everything in a
    scrambled order, and the pool hands addresses out numerically again
    until it is exhausted once more."""
    for cidr in ("10.0.0.0/27", "fd00::/124"):
        net = VirtualNetwork("n", cidr)
        leased = [net.allocate(f"vm{i}") for i in range(net.capacity)]
        with pytest.raises(NetworkError):
            net.allocate("extra")
        random.Random(cidr).shuffle(leased)
        for address in leased:
            net.release(address)
        again = [net.allocate(f"vm{i}") for i in range(net.capacity)]
        assert again == sorted(leased, key=ipaddress.ip_address)
        with pytest.raises(NetworkError):
            net.allocate("extra")


def test_address_pool_slash16_matches_model():
    check_pool_against_model("10.1.0.0/16", seed=3, ops=600)
    # A fresh /16 hands out all 65533 addresses in numeric order,
    # crossing every octet boundary, and then refuses.
    net = VirtualNetwork("big", "10.1.0.0/16")
    expected = PoolModel("10.1.0.0/16").free
    assert [net.allocate("vm") for _ in expected] == expected
    assert expected[0] == "10.1.0.2" and expected[-1] == "10.1.255.254"
    with pytest.raises(NetworkError):
        net.allocate("vm")


def test_fabric_create_get_ensure():
    fabric = NetworkFabric()
    net = fabric.create("internal", "10.1.0.0/24")
    assert fabric.get("internal") is net
    assert fabric.ensure("internal") is net
    assert fabric.ensure("other") is not net
    assert "internal" in fabric
    with pytest.raises(NetworkError):
        fabric.create("internal")
    with pytest.raises(NetworkError):
        fabric.get("missing")


def test_fabric_release_all_owner():
    fabric = NetworkFabric()
    n1 = fabric.create("a", "10.1.0.0/28")
    n2 = fabric.create("b", "10.2.0.0/28")
    n1.allocate("vm1")
    n2.allocate("vm1")
    n2.allocate("vm2")
    released = fabric.release_all("vm1")
    assert released == 2
    assert n1.allocated == 0
    assert n2.allocated == 1


def test_public_flag():
    net = VirtualNetwork("dmz", public=True)
    assert net.public
    assert not VirtualNetwork("internal").public
