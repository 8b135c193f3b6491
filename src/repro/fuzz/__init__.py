"""``repro.fuzz`` — a deterministic, structure-aware fuzzer for the DNS
wire codec.

The paper's technique rides on parsing answers from *hostile*
middleboxes: interceptors forge TXT answers, rewrite status codes and
emit malformed responses, so ``repro.dnswire`` is a trust boundary. This
package audits it with two oracles:

1. **Round-trip differential oracle** — every message the structure-aware
   generator can build must satisfy ``decode(encode(m)) == m`` and
   re-encode byte-stably, with and without name compression, across all
   RR types.
2. **Hostile-bytes oracle** — ``decode_or_none`` on arbitrary mutated,
   truncated or pointer-mangled buffers either returns a well-formed
   :class:`~repro.dnswire.Message` or ``None``; it never raises and
   ``Message.decode`` raises nothing outside the ``WireError`` family.

Everything is seeded and fully deterministic: the same seed produces the
same case sequence, so a failing run is a reproduction recipe. Minimised
crashers live on as the regression corpus in ``tests/dnswire/corpus/``.
"""

from .corpus import load_corpus, minimize, save_entry
from .generator import MessageGenerator
from .mutator import ByteMutator
from .oracles import Violation, check_hostile, check_roundtrip
from .runner import FuzzConfig, run_fuzz

__all__ = [
    "ByteMutator",
    "FuzzConfig",
    "MessageGenerator",
    "Violation",
    "check_hostile",
    "check_roundtrip",
    "load_corpus",
    "minimize",
    "run_fuzz",
    "save_entry",
]
