"""The RESERVOIR monitoring framework (§5.2 of the paper).

Producers and consumers of monitoring data joined by an interchangeable
distribution framework; probes describe themselves via data dictionaries held
in a DHT-backed information model, so measurements travel values-only in a
compact XDR encoding.
"""
