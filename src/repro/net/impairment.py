"""Link impairments: the last-mile fault model (loss, duplication,
reordering, jitter, corruption, truncation).

The paper's pilot study measured over real residential access networks,
where none of these pathologies are exotic. This module gives the
simulator a first-class, *deterministic* fault-injection layer:

* a :class:`LinkProfile` describes what one link does to packets;
* profiles attach per-link (``Network.connect(..., profile=...)`` /
  ``Network.set_link_profile``) or network-wide
  (``Network(impairment=...)``);
* the network applies them inside ``transmit`` and counts every
  decision (``net.impair.dropped`` / ``duplicated`` / ``reordered`` /
  ``corrupted`` / ``truncated``).

Determinism contract
--------------------

Every impaired link direction owns its own RNG stream, seeded from the
network's ``loss_seed`` (via ``loss_rng``) plus the link endpoints at
profile-install time. Per packet, draws happen in a fixed order (loss,
corrupt, truncate, duplicate, then per-copy jitter and reorder) and a
draw is only taken when the corresponding rate is non-zero — so for a
fixed seed the whole impairment schedule is a pure function of the
traffic, independent of tracing, metrics, wall clock, or how many
worker processes a fleet study uses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields

#: Supported jitter distributions. ``uniform`` draws in
#: ``[0, jitter_ms]``; ``exponential`` draws with mean ``jitter_ms``,
#: capped at ``8 * jitter_ms`` so a single unlucky packet cannot stall a
#: simulation behind one far-future event.
JITTER_MODELS = ("uniform", "exponential")

#: Extra delay applied to the second copy of a duplicated packet, so the
#: duplicate is observably distinct in traces without reordering it past
#: unrelated traffic on its own.
_DUPLICATE_SPACING_MS = 0.25

#: Truncation cuts payloads to fewer bytes than a DNS header (12), which
#: models the mangled-datagram case: the bytes arrive but no parser can
#: make a message of them, exercising the client's validation path.
_TRUNCATE_MAX_BYTES = 12


@dataclass(frozen=True)
class LinkProfile:
    """What one link does to each packet that crosses it.

    All rates are per-packet probabilities in ``[0, 1)``; the default
    profile is a perfect link. ``loss`` drops the packet outright.
    ``corrupt`` models bit damage — the receiver's UDP checksum catches
    it, so a corrupted datagram is also a drop, counted separately.
    ``truncate`` delivers the datagram cut below DNS-header size (the
    receiver sees undecodable bytes). ``duplicate`` delivers a second
    copy. ``jitter_ms`` adds a random delay drawn from ``jitter_model``;
    ``reorder`` holds the packet back an extra ``uniform(0,
    reorder_window_ms]`` so later sends can overtake it.
    """

    loss: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    reorder_window_ms: float = 0.0
    jitter_ms: float = 0.0
    jitter_model: str = "uniform"
    corrupt: float = 0.0
    truncate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("loss", "duplicate", "reorder", "corrupt", "truncate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be in [0, 1): {rate}")
        for name in ("reorder_window_ms", "jitter_ms"):
            value = getattr(self, name)
            if value < 0.0:
                raise ValueError(f"{name} must be >= 0: {value}")
        if self.jitter_model not in JITTER_MODELS:
            raise ValueError(
                f"jitter_model must be one of {JITTER_MODELS}: "
                f"{self.jitter_model!r}"
            )
        if self.reorder and not self.reorder_window_ms:
            raise ValueError("reorder needs a positive reorder_window_ms")

    @property
    def is_null(self) -> bool:
        """True when the profile cannot affect any packet."""
        return not (
            self.loss
            or self.duplicate
            or self.reorder
            or self.jitter_ms
            or self.corrupt
            or self.truncate
        )

    def draw_jitter(self, rng: random.Random) -> float:
        if self.jitter_model == "uniform":
            return rng.uniform(0.0, self.jitter_ms)
        return min(rng.expovariate(1.0 / self.jitter_ms), 8.0 * self.jitter_ms)

    def describe(self) -> str:
        parts = [
            f"{field.name}={getattr(self, field.name)}"
            for field in fields(self)
            if getattr(self, field.name) != field.default
        ]
        return "LinkProfile(" + ", ".join(parts) + ")" if parts else "LinkProfile()"


class ImpairedLink:
    """Per-direction impairment state: the profile plus its RNG stream.

    ``rng`` is the direction's own stream (see :func:`link_stream`);
    every impairment draw for packets crossing this direction comes
    from it. It is built on first use, from the token and endpoints
    fixed at install, so a direction no packet crosses never pays for
    seeding it. Tests
    script a link's decisions by replacing it.
    """

    __slots__ = ("profile", "_stream", "_rng")

    def __init__(
        self, profile: LinkProfile, token: int, sender: str, receiver: str
    ) -> None:
        self.profile = profile
        self._stream = (token, sender, receiver)
        self._rng: "random.Random | None" = None

    @property
    def rng(self) -> random.Random:
        rng = self._rng
        if rng is None:
            rng = self._rng = link_stream(*self._stream)
        return rng

    @rng.setter
    def rng(self, rng: random.Random) -> None:
        self._rng = rng


def link_stream(token: int, sender: str, receiver: str) -> random.Random:
    """The RNG stream for one link direction.

    Seeded with a string, which :class:`random.Random` hashes through
    SHA-512 — stable across processes and ``PYTHONHASHSEED`` values, the
    property the workers-invariance guarantee rests on.
    """
    return random.Random(f"impair:{token}:{sender}>{receiver}")


def truncate_cut(rng: random.Random, payload_len: int) -> int:
    """Bytes to keep for a truncated payload: always under the DNS
    header size (and under the original length)."""
    return rng.randrange(0, min(_TRUNCATE_MAX_BYTES, payload_len))


def duplicate_spacing_ms() -> float:
    return _DUPLICATE_SPACING_MS


#: Named profiles for the CLI / chaos studies. ``residential`` is
#: calibrated to a typical cable/DSL last mile (a couple percent loss,
#: occasional duplication and reordering, moderate jitter, rare
#: mangling); ``wifi`` is a congested in-home wireless hop; ``satellite``
#: is long-delay-variance with heavy reordering. ``null`` has every rate
#: at zero, so it installs nothing — the overhead benchmark checks that
#: selecting it costs nothing and changes no record.
IMPAIRMENT_PROFILES: dict[str, LinkProfile] = {
    "residential": LinkProfile(
        loss=0.02,
        duplicate=0.005,
        reorder=0.02,
        reorder_window_ms=30.0,
        jitter_ms=15.0,
        corrupt=0.002,
        truncate=0.001,
    ),
    "wifi": LinkProfile(
        loss=0.05,
        duplicate=0.01,
        reorder=0.05,
        reorder_window_ms=60.0,
        jitter_ms=40.0,
        jitter_model="exponential",
        corrupt=0.005,
        truncate=0.002,
    ),
    "satellite": LinkProfile(
        loss=0.01,
        reorder=0.10,
        reorder_window_ms=200.0,
        jitter_ms=120.0,
        jitter_model="exponential",
    ),
    "null": LinkProfile(),
}


def impairment_profile(name: str) -> LinkProfile:
    """Look up a named profile; raises ``KeyError`` with the catalog."""
    try:
        return IMPAIRMENT_PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown impairment profile {name!r}; "
            f"known: {sorted(IMPAIRMENT_PROFILES)}"
        ) from None
