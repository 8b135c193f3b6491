"""Frozen value types that a fleet shares and hashes once.

A generated fleet holds thousands of probe specs but only a few dozen
distinct firmware profiles and ISP behaviours, and the generator hands
every spec that uses one the same instance (:func:`shared`,
:func:`shared_factory`). Probe dedup and scenario reuse hash those
values for every probe; :func:`hash_once` makes each instance hash its
fields the first time only.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, TypeVar

_V = TypeVar("_V")

#: One instance per value handed out by :func:`shared`.
_SHARED: dict = {}


def shared(value: _V) -> _V:
    """The one instance of ``value``'s value: the first equal value
    passed here. Frozen dataclasses compare equal only within their own
    class, so one table serves every type."""
    return _SHARED.setdefault(value, value)


def shared_factory(factory: Callable[..., _V]) -> Callable[..., _V]:
    """``factory``, building once per distinct call (its arguments must
    hash) and returning :func:`shared` of what it builds, so a fleet or
    a scenario holds each value once however often it is asked for."""
    built: dict = {}

    @functools.wraps(factory)
    def wrapper(*args, **kwargs):
        key = (args, tuple(kwargs.items()))
        try:
            return built[key]
        except KeyError:
            value = built[key] = shared(factory(*args, **kwargs))
            return value

    return wrapper

#: The ``__dict__`` slot that holds a cached hash.
_HASH = "_hash"


def hash_once(cls: type) -> type:
    """Give the frozen dataclass ``cls`` a hash computed once per instance.

    The hash is the hash of the field values, kept in the instance's
    ``__dict__`` beside the fields, as
    :meth:`repro.core.study.ProbeRecord._status_index` keeps its index:
    ``==``, ``repr``, :func:`dataclasses.asdict` and
    :func:`repro.store.canonical_value` read fields only and never see
    it. ``__getstate__`` leaves it out, so neither a pickle nor
    :func:`copy.copy` carries it: a pool worker may hash strings under a
    different seed. Apply it above ``@dataclass(frozen=True)``.
    """
    names = tuple(field.name for field in dataclasses.fields(cls))

    def __hash__(self) -> int:
        state = self.__dict__
        try:
            return state[_HASH]
        except KeyError:
            value = state[_HASH] = hash(tuple([state[name] for name in names]))
            return value

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop(_HASH, None)
        return state

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls
