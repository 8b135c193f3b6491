"""A cached hash never travels with its value.

:func:`repro.values.hash_once` keeps each firmware profile's and ISP
behaviour's hash beside its fields. String hashing is seeded per
process, so a hash cached in one process is wrong in another: a pickle
(what a pool worker receives), a copy or a replaced value must carry no
cache and hash afresh. Each test first hashes the values, so the cache
is there to leak.
"""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys

from repro.atlas.geo import organization_by_name
from repro.atlas.probe import IspBehavior, ProbeSpec
from repro.cpe.firmware import FirmwareProfile, xb6_profile
from repro.interceptors.policy import intercept_all
from repro.store import canonical_value

#: Run in a child process: unpickle a tuple of values from stdin, look
#: each up in a dict keyed by the values built afresh in that process,
#: and print the hits, then the child's hash of a string.
CHILD = """
import pickle, sys
from repro.atlas.geo import organization_by_name
from repro.atlas.probe import IspBehavior, ProbeSpec
from repro.cpe.firmware import xb6_profile
from repro.interceptors.policy import intercept_all

firmware = xb6_profile()
isp = IspBehavior("bind-redhat", (intercept_all(),))
spec = ProbeSpec(1, organization_by_name("Comcast"), firmware, isp)
fresh = {firmware: "firmware", isp: "isp", spec: "spec"}
loaded = pickle.load(sys.stdin.buffer)
print(" ".join(str(fresh.get(value)) for value in loaded))
print(hash("dedup key"))
"""


def _hashed_values():
    firmware = xb6_profile()
    isp = IspBehavior("bind-redhat", (intercept_all(),))
    spec = ProbeSpec(1, organization_by_name("Comcast"), firmware, isp)
    for value in (firmware, isp, spec):
        hash(value)
    assert "_hash" in firmware.__dict__ and "_hash" in isp.__dict__
    return firmware, isp, spec


def _cached(value) -> bool:
    return "_hash" in value.__dict__


def test_pickle_leaves_the_cache_out():
    firmware, isp, spec = _hashed_values()
    assert "_hash" not in firmware.__getstate__()
    assert "_hash" not in isp.__getstate__()
    data = pickle.dumps((firmware, isp, spec))
    assert b"_hash" not in data
    loaded = pickle.loads(data)
    assert loaded == (firmware, isp, spec)
    assert not any(_cached(value) for value in (*loaded[:2], loaded[2].firmware))
    assert not _cached(loaded[2].isp)


def test_unpickled_values_hash_afresh_under_another_seed():
    values = _hashed_values()
    seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    env = {**os.environ, "PYTHONHASHSEED": seed}
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", CHILD],
        input=pickle.dumps(values),
        env=env,
        capture_output=True,
        check=True,
    )
    hits, child_hash = child.stdout.decode().splitlines()
    # The child hashes strings under another seed, so a hash cached here
    # would miss there.
    assert int(child_hash) != hash("dedup key")
    assert hits == "firmware isp spec"


def test_copies_and_replacements_hash_afresh():
    firmware, isp, _spec = _hashed_values()
    for value in (firmware, isp):
        copied = copy.copy(value)
        assert copied == value and not _cached(copied)
        assert hash(copied) == hash(value)
    replaced = dataclasses.replace(firmware, notes="patched")
    assert not _cached(replaced)
    assert hash(replaced) == hash(dataclasses.replace(firmware, notes="patched"))
    assert replaced != firmware
    rebuilt = dataclasses.replace(isp)
    assert rebuilt == isp and not _cached(rebuilt) and hash(rebuilt) == hash(isp)


def test_cache_is_not_a_field():
    firmware, isp, _spec = _hashed_values()
    for value in (firmware, isp):
        assert "_hash" not in dataclasses.asdict(value)
        assert "_hash" not in canonical_value(value)
        assert "_hash" not in repr(value)
    fields = dataclasses.fields(firmware)
    rebuilt = FirmwareProfile(**{f.name: getattr(firmware, f.name) for f in fields})
    assert rebuilt == firmware and hash(rebuilt) == hash(firmware)
