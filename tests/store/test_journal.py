"""Journal primitives: sharded writers, torn-tail recovery, fingerprints."""

import enum
import json
from dataclasses import dataclass

import pytest

from repro.core.study import StudyConfig
from repro.store import (
    JournalWriter,
    StoreCorruptError,
    canonical_value,
    fingerprint,
    read_journal,
    study_fingerprint,
)


class TestJournalWriter:
    def test_round_trip(self, tmp_path):
        writer = JournalWriter(str(tmp_path), "records")
        entries = [{"i": n, "payload": f"probe-{n}"} for n in range(5)]
        for entry in entries:
            writer.append(entry)
        writer.close()
        assert read_journal(str(tmp_path), "records") == entries

    def test_rotation_caps_lines_per_file(self, tmp_path):
        writer = JournalWriter(str(tmp_path), "records", records_per_file=3)
        for n in range(8):
            writer.append({"i": n})
        writer.close()
        files = sorted(p.name for p in tmp_path.glob("records-*.jsonl"))
        assert files == [
            "records-0000.jsonl", "records-0001.jsonl", "records-0002.jsonl"
        ]
        for path in tmp_path.glob("records-*.jsonl"):
            assert len(path.read_text().splitlines()) <= 3
        assert [e["i"] for e in read_journal(str(tmp_path), "records")] == list(
            range(8)
        )

    def test_new_session_opens_fresh_shard(self, tmp_path):
        first = JournalWriter(str(tmp_path), "records")
        first.append({"i": 0})
        first.close()
        second = JournalWriter(str(tmp_path), "records")
        second.append({"i": 1})
        second.close()
        # The crashed-session invariant: old shards are never reopened.
        assert (tmp_path / "records-0000.jsonl").read_text() == '{"i":0}\n'
        assert (tmp_path / "records-0001.jsonl").read_text() == '{"i":1}\n'

    def test_prefixes_are_independent(self, tmp_path):
        records = JournalWriter(str(tmp_path), "records")
        metrics = JournalWriter(str(tmp_path), "metrics")
        records.append({"i": 0})
        metrics.append({"i": [0], "snapshot": {}})
        records.close()
        metrics.close()
        assert read_journal(str(tmp_path), "records") == [{"i": 0}]
        assert read_journal(str(tmp_path), "metrics") == [
            {"i": [0], "snapshot": {}}
        ]

    def test_unparsable_shard_name_rejected(self, tmp_path):
        (tmp_path / "records-zzz.jsonl").write_text("")
        with pytest.raises(StoreCorruptError):
            JournalWriter(str(tmp_path), "records")


class TestReadJournal:
    def test_missing_directory_is_empty(self, tmp_path):
        assert read_journal(str(tmp_path / "nope"), "records") == []

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "records-0000.jsonl"
        path.write_text('{"i":0}\n{"i":1}\n{"i":2,"rec')  # crash mid-write
        assert read_journal(str(tmp_path), "records") == [{"i": 0}, {"i": 1}]

    def test_torn_line_with_trailing_newline_is_dropped(self, tmp_path):
        path = tmp_path / "records-0000.jsonl"
        path.write_text('{"i":0}\n{"i":1,"rec\n')
        assert read_journal(str(tmp_path), "records") == [{"i": 0}]

    def test_mid_file_damage_is_corruption(self, tmp_path):
        path = tmp_path / "records-0000.jsonl"
        path.write_text('{"i":0}\nGARBAGE\n{"i":2}\n')
        with pytest.raises(StoreCorruptError):
            read_journal(str(tmp_path), "records")

    def test_torn_tail_only_hides_its_own_shard(self, tmp_path):
        (tmp_path / "records-0000.jsonl").write_text('{"i":0}\n{"i":1,"x')
        (tmp_path / "records-0001.jsonl").write_text('{"i":5}\n')
        assert read_journal(str(tmp_path), "records") == [{"i": 0}, {"i": 5}]


class _Color(enum.Enum):
    RED = "red"
    BLUE = "blue"


@dataclass(frozen=True)
class _Point:
    x: int
    y: int


@dataclass(frozen=True)
class _OtherPoint:
    x: int
    y: int


class TestCanonicalValue:
    def test_dataclass_tagged_with_type(self):
        assert canonical_value(_Point(1, 2)) == {
            "__type__": "_Point", "x": 1, "y": 2
        }

    def test_same_fields_different_class_differ(self):
        assert fingerprint(_Point(1, 2)) != fingerprint(_OtherPoint(1, 2))

    def test_enum_reduces_to_value(self):
        assert canonical_value(_Color.RED) == "red"

    def test_set_order_is_canonical(self):
        assert fingerprint({"s": {3, 1, 2}}) == fingerprint({"s": {2, 3, 1}})

    def test_dict_key_order_is_canonical(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_shared_subobjects_memoised_consistently(self):
        shared = _Point(7, 9)
        memo = {}
        first = canonical_value([shared, shared], memo)
        assert first[0] is first[1]  # second occurrence came from the memo
        assert first == [canonical_value(_Point(7, 9))] * 2

    def test_fallback_repr_for_value_objects(self):
        import ipaddress

        addr = ipaddress.ip_address("192.0.2.1")
        assert canonical_value(addr) == repr(addr)

    def test_canonical_output_is_json_serialisable(self):
        tree = {"p": _Point(1, 2), "c": _Color.BLUE, "s": frozenset({2, 1})}
        json.dumps(canonical_value(tree))  # must not raise


class TestStudyFingerprint:
    def test_stable_across_calls(self, small_fleet):
        config = StudyConfig(seed=7)
        assert study_fingerprint(config, small_fleet) == study_fingerprint(
            config, small_fleet
        )

    def test_worker_count_excluded(self, small_fleet):
        assert study_fingerprint(
            StudyConfig(workers=1, seed=7), small_fleet
        ) == study_fingerprint(StudyConfig(workers=4, seed=7), small_fleet)

    def test_seed_included(self, small_fleet):
        assert study_fingerprint(
            StudyConfig(seed=7), small_fleet
        ) != study_fingerprint(StudyConfig(seed=8), small_fleet)

    def test_fleet_included(self, small_fleet):
        config = StudyConfig(seed=7)
        assert study_fingerprint(config, small_fleet) != study_fingerprint(
            config, small_fleet[:-1]
        )
