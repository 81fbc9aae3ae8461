"""Behavioural semantics of the manifest language as checkable constraints
(§4.2.2) and the generated validation instruments (§4.2.3)."""
