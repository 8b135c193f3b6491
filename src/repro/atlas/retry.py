"""Retry policies: how a stub resolver retransmits an unanswered query.

:class:`FixedIntervalRetry` is fixed-interval retransmission, which is
what the simplest stub resolvers do. Chaos studies over impaired links
want the behaviour real resolvers actually ship:
:class:`ExponentialBackoffRetry`, exponential backoff with jitter, so
retransmissions both spread out and decorrelate. A
:class:`~repro.atlas.measurement.MeasurementClient` applies its
``retry_policy`` to every UDP/53 exchange.

A policy is a frozen dataclass that answers one question: for a given
query, what are the delays between consecutive transmissions? The
exchange loop owns everything else (the overall ``timeout_ms`` budget,
the no-retransmission-at-or-past-deadline rule, attempt accounting).

Determinism: :class:`ExponentialBackoffRetry` draws its jitter from a
``random.Random`` seeded with ``(seed, msg_id)`` as a string — stable
across processes and hash randomization — so a fleet study's
retransmission schedule is a pure function of its specs and seed, for
any worker count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class RetryPolicy:
    """Base: ``retries`` extra transmissions after the first.

    Subclasses implement :meth:`delays_ms`; the base class itself never
    retransmits (``retries=0`` mirrors the historical default).
    """

    retries: int = 0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0: {self.retries}")

    def delays_ms(self, msg_id: int = 0) -> tuple[float, ...]:
        """Delay before each retransmission, in order, for one query.

        ``msg_id`` lets jittered policies derive a per-query stream; the
        base and fixed-interval policies ignore it.
        """
        return ()


@dataclass(frozen=True)
class FixedIntervalRetry(RetryPolicy):
    """The historical behaviour: every ``interval_ms``, like clockwork."""

    interval_ms: float = 1000.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.interval_ms <= 0:
            raise ValueError(f"interval_ms must be > 0: {self.interval_ms}")

    def delays_ms(self, msg_id: int = 0) -> tuple[float, ...]:
        return (self.interval_ms,) * self.retries


@dataclass(frozen=True)
class ExponentialBackoffRetry(RetryPolicy):
    """Exponential backoff with deterministic jitter.

    Retry *k* (0-based) waits ``base_ms * factor**k``, capped at
    ``max_interval_ms``, then scaled by a jitter factor drawn uniformly
    from ``[1 - jitter, 1 + jitter]``. The jitter stream is seeded from
    ``(seed, msg_id)``, so two queries back off differently but the same
    query always backs off the same way.
    """

    base_ms: float = 250.0
    factor: float = 2.0
    max_interval_ms: float = 4000.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.base_ms <= 0:
            raise ValueError(f"base_ms must be > 0: {self.base_ms}")
        if self.factor < 1.0:
            raise ValueError(f"factor must be >= 1: {self.factor}")
        if self.max_interval_ms < self.base_ms:
            raise ValueError("max_interval_ms must be >= base_ms")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1): {self.jitter}")

    def delays_ms(self, msg_id: int = 0) -> tuple[float, ...]:
        rng = random.Random(f"retry:{self.seed}:{msg_id}")
        delays = []
        for attempt in range(self.retries):
            interval = min(self.base_ms * self.factor**attempt, self.max_interval_ms)
            if self.jitter:
                interval *= rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)
            delays.append(interval)
        return tuple(delays)


def default_chaos_retry(seed: int = 0) -> ExponentialBackoffRetry:
    """The retry policy chaos studies use unless told otherwise.

    Five retransmissions starting at 250 ms: against the calibrated
    ``residential`` profile (~20% per-attempt exchange failure across a
    probe's full path) this leaves a residual exchange-failure rate
    under 1e-3 — comfortably inside the ≥99% verdict-stability budget —
    while the backoff keeps every retransmission within the standard
    5-second exchange deadline.
    """
    return ExponentialBackoffRetry(retries=5, seed=seed)
