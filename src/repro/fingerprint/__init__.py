"""Ambiguity-probe interceptor fingerprinting.

The paper's Step 2 names interceptor software from ``version.bind`` —
but an interceptor that lies (or answers nothing) defeats it. This
package implements the complementary *behavioural* fingerprint: six
crafted queries that real DNS implementations handle differently
(mixed-case qnames, TC-set queries, two-question messages with a
compression pointer, unknown EDNS options, odd opcodes, overlapping
retransmissions with divergent payloads) are sent through the already
established interception path, and the reaction vector is matched
against a database of known software signatures.

Layout:

``probes``
    The six probe builders and the per-probe token extractors.
``engine``
    Raw socket exchanges through a live scenario; turns a destination
    into a six-token signature.
``signature``
    Predicted signatures for every personality, the signature database
    (pairwise-distinct, checked at build time), and ground truth.
"""

from .engine import run_ambiguity_probes
from .probes import PROBE_AXES
from .signature import SignatureDatabase, build_signature_database, true_software_label

__all__ = [
    "PROBE_AXES",
    "SignatureDatabase",
    "build_signature_database",
    "run_ambiguity_probes",
    "true_software_label",
]
