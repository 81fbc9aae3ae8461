#!/usr/bin/env python3
"""A stand-alone tour of the monitoring framework (§5.2).

Shows the full producer→consumer path with no cloud attached: data sources
and probes with data dictionaries, the XDR values-only wire format, the
DHT-backed information model (Tables 1–2 key taxonomy), elaboration of
received measurements, and probe control (data rate, on/off).

Run:  python examples/monitoring_tour.py
"""

from repro.monitoring.codec import (
    decode_measurement,
    encode_measurement,
    naive_json_size,
)
from repro.monitoring.consumers import MeasurementJournal, MeasurementStore
from repro.monitoring.distribution import PubSubBroker
from repro.monitoring.infomodel import InformationModel
from repro.monitoring.measurements import AttributeType, ProbeAttribute
from repro.monitoring.probes import DataSource, Probe
from repro.sim.kernel import Environment


def main() -> None:
    env = Environment()
    network = PubSubBroker(env)          # interchangeable with multicast
    infomodel = InformationModel()       # DHT-backed (3 nodes by default)

    # -- producer side ------------------------------------------------------
    queue = {"jobs": 0}
    probe = Probe(
        name="schedd-queue",
        qualified_name="uk.ucl.condor.schedd.queuesize",
        attributes=[
            ProbeAttribute("queuesize", AttributeType.INTEGER, "jobs"),
            ProbeAttribute("busy", AttributeType.BOOLEAN, ""),
        ],
        collector=lambda: (queue["jobs"], queue["jobs"] > 0),
        data_rate_s=30.0,
    )
    source = DataSource(env, "grid-mgmt", "polymorph-1", network,
                        infomodel=infomodel)
    source.add_probe(probe)

    # -- consumer side --------------------------------------------------------
    store = MeasurementStore()       # latest-value (rule-engine view)
    journal = MeasurementJournal()   # full history (validator view)
    store.subscribe_to(network, qualified_name="uk.ucl.condor.*")
    journal.subscribe_to(network)

    # Drive some load and let the probe publish.
    for step, jobs in enumerate((0, 4, 202, 148, 96, 0)):
        queue["jobs"] = jobs
        env.run(until=(step + 1) * 30 + 1)

    print("=== latest-value store (what the rule engine reads) ===")
    print("  queuesize:",
          store.value("polymorph-1", "uk.ucl.condor.schedd.queuesize"))
    print("  age:", store.age("polymorph-1",
                              "uk.ucl.condor.schedd.queuesize", env.now), "s")

    print("\n=== journal window statistics (§4.2.1 time series ops) ===")
    args = ("polymorph-1", "uk.ucl.condor.schedd.queuesize", 0, env.now)
    print(f"  events={len(journal)} "
          f"mean={journal.aggregate(*args, 'mean'):.1f} "
          f"min={journal.aggregate(*args, 'min'):.0f} "
          f"max={journal.aggregate(*args, 'max'):.0f}")

    # -- wire format ---------------------------------------------------------
    last = journal.stream("polymorph-1",
                          "uk.ucl.condor.schedd.queuesize")[-1]
    packet = encode_measurement(last)
    print("\n=== XDR wire format (values only, meta-data in the info model) ===")
    print(f"  packet: {len(packet)} bytes: {packet.hex()[:64]}...")
    json_size = naive_json_size(last, ["queuesize", "busy"], ["jobs", ""])
    print(f"  self-describing JSON equivalent would be {json_size} bytes "
          f"({json_size / len(packet):.1f}× larger)")
    assert decode_measurement(packet) == last

    # -- information model ------------------------------------------------------
    print("\n=== information model (DHT-backed, Tables 1–2 taxonomy) ===")
    pid = probe.probe_id
    for key in sorted(infomodel.ring.keys_with_prefix(f"/probe/{pid}/")):
        print(f"  {key:<38} = {infomodel.ring.get(key)}")
    for key in sorted(infomodel.ring.keys_with_prefix(f"/schema/{pid}/")):
        print(f"  {key:<38} = {infomodel.ring.get(key)}")
    print("  key distribution over DHT nodes:",
          infomodel.ring.load_distribution())

    print("\n=== elaboration: values-only packet + schema → full view ===")
    for ev in infomodel.elaborate(last):
        unit = f" {ev.units}" if ev.units else ""
        print(f"  {ev.name} = {ev.value}{unit}  ({ev.type.value})")

    # -- probe control ------------------------------------------------------------
    print("\n=== probe control (data rate / on-off, Table 2 entries) ===")
    source.set_data_rate("schedd-queue", 5.0)
    probe.turn_off()
    before = len(journal)
    env.run(until=env.now + 60)
    print(f"  probe off: {len(journal) - before} new events in 60 s")
    probe.turn_on()
    env.run(until=env.now + 21)
    print(f"  probe on at 5 s rate: {len(journal) - before} new events in 21 s")
    print("  info-model state:", infomodel.probe_state(pid))

    print(f"\nnetwork accounting: {network.packets_published} packets, "
          f"{network.bytes_published} bytes published, "
          f"{network.bytes_delivered} bytes delivered")


if __name__ == "__main__":
    main()
