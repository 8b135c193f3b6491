"""Incremental tail reads: cursors, torn tails, live-writer safety."""

import json
import os
import threading
import time

import pytest

from repro.store import (
    JournalWriter,
    StoreCorruptError,
    read_journal,
    read_journal_at,
    read_journal_tail,
)


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(lines))


class TestTailCursor:
    def test_fresh_read_matches_full_reader(self, tmp_path):
        writer = JournalWriter(str(tmp_path), "records")
        entries = [{"i": n} for n in range(10)]
        for entry in entries:
            writer.append(entry)
        writer.close()
        tail, cursor = read_journal_tail(str(tmp_path), "records")
        assert tail == read_journal(str(tmp_path), "records") == entries
        assert cursor  # byte offsets recorded per shard

    def test_successive_tails_fold_to_full_read(self, tmp_path):
        writer = JournalWriter(str(tmp_path), "records", records_per_file=4)
        folded, cursor = [], None
        for batch in range(5):
            for n in range(3):
                writer.append({"batch": batch, "n": n})
            writer.sync()
            tail, cursor = read_journal_tail(str(tmp_path), "records", cursor)
            folded.extend(tail)
        writer.close()
        assert folded == read_journal(str(tmp_path), "records")
        assert len(folded) == 15

    def test_caught_up_tail_is_empty(self, tmp_path):
        writer = JournalWriter(str(tmp_path), "records")
        writer.append({"i": 0})
        writer.close()
        _tail, cursor = read_journal_tail(str(tmp_path), "records")
        tail, cursor2 = read_journal_tail(str(tmp_path), "records", cursor)
        assert tail == []
        assert cursor2 == cursor

    def test_cursor_round_trips_through_json(self, tmp_path):
        writer = JournalWriter(str(tmp_path), "records")
        writer.append({"i": 0})
        writer.sync()
        _tail, cursor = read_journal_tail(str(tmp_path), "records")
        thawed = json.loads(json.dumps(cursor))
        writer.append({"i": 1})
        writer.close()
        tail, _cursor = read_journal_tail(str(tmp_path), "records", thawed)
        assert tail == [{"i": 1}]

    def test_missing_directory_is_empty(self, tmp_path):
        tail, cursor = read_journal_tail(str(tmp_path / "nowhere"), "records")
        assert tail == [] and cursor == {}


class TestPositions:
    def test_positions_leave_results_unchanged_and_read_back(self, tmp_path):
        writer = JournalWriter(str(tmp_path), "records", records_per_file=4)
        cursor = plain_cursor = None
        folded, positions = [], []
        for batch in range(4):
            for n in range(3):
                writer.append({"batch": batch, "n": n})
            writer.sync()
            plain, plain_cursor = read_journal_tail(
                str(tmp_path), "records", plain_cursor
            )
            tail, cursor = read_journal_tail(
                str(tmp_path), "records", cursor, positions=positions
            )
            assert (tail, cursor) == (plain, plain_cursor)
            folded.extend(tail)
        writer.close()
        assert len(positions) == len(folded) == 12
        assert len({name for name, _offset in positions}) == 3
        assert read_journal_at(str(tmp_path), positions) == folded
        picked = [positions[7], positions[0], positions[11]]
        assert read_journal_at(str(tmp_path), picked) == [
            folded[7], folded[0], folded[11]
        ]

    def test_blank_and_torn_lines_get_no_position(self, tmp_path):
        write_lines(
            tmp_path / "records-0000.jsonl",
            ['{"i": 0}\n', "\n", '{"i": 1}\n', '{"i": 2, "x"\n'],
        )
        positions = []
        tail, _cursor = read_journal_tail(
            str(tmp_path), "records", positions=positions
        )
        assert tail == [{"i": 0}, {"i": 1}]
        assert positions == [
            ("records-0000.jsonl", 0),
            ("records-0000.jsonl", 10),
        ]

    def test_damage_at_a_position_raises(self, tmp_path):
        path = tmp_path / "records-0000.jsonl"
        write_lines(path, ['{"i": 0}\n'])
        positions = []
        read_journal_tail(str(tmp_path), "records", positions=positions)
        write_lines(path, ["{broken}\n"])
        with pytest.raises(StoreCorruptError, match="records-0000"):
            read_journal_at(str(tmp_path), positions)


class TestTornTails:
    def test_partial_line_without_newline_left_for_next_call(self, tmp_path):
        path = tmp_path / "records-0000.jsonl"
        write_lines(path, ['{"i": 0}\n', '{"i": 1'])
        tail, cursor = read_journal_tail(str(tmp_path), "records")
        assert tail == [{"i": 0}]
        # The writer finishes the line; only the new part is consumed.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("}\n")
        tail, _cursor = read_journal_tail(str(tmp_path), "records", cursor)
        assert tail == [{"i": 1}]

    def test_torn_line_with_newline_never_consumed(self, tmp_path):
        # A crashed session can leave a damaged final line that *does*
        # end in a newline; the full reader drops it, the tail reader
        # must neither raise nor advance past it.
        path = tmp_path / "records-0000.jsonl"
        write_lines(path, ['{"i": 0}\n', '{"i": 1, "x"\n'])
        tail, cursor = read_journal_tail(str(tmp_path), "records")
        assert tail == [{"i": 0}]
        again, _cursor = read_journal_tail(str(tmp_path), "records", cursor)
        assert again == []

    def test_mid_file_damage_raises(self, tmp_path):
        write_lines(
            tmp_path / "records-0000.jsonl",
            ['{"i": 0}\n', "{broken\n", '{"i": 2}\n'],
        )
        with pytest.raises(StoreCorruptError, match="records-0000"):
            read_journal_tail(str(tmp_path), "records")

    def test_damage_before_cursor_is_invisible(self, tmp_path):
        # Ranges already consumed are never re-validated: the cursor
        # contract is strictly about *new* bytes.
        path = tmp_path / "records-0000.jsonl"
        write_lines(path, ['{"i": 0}\n'])
        _tail, cursor = read_journal_tail(str(tmp_path), "records")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"i": 1}\n')
        tail, _cursor = read_journal_tail(str(tmp_path), "records", cursor)
        assert tail == [{"i": 1}]


class TestDamagedShards:
    """Writers never shrink or remove a shard, so a shard the cursor has
    read that is now shorter, or gone, is damage: entries already folded
    from it may no longer exist."""

    def read_four(self, tmp_path):
        path = tmp_path / "records-0000.jsonl"
        write_lines(path, [f'{{"i": {n}}}\n' for n in range(4)])
        tail, cursor = read_journal_tail(str(tmp_path), "records")
        assert len(tail) == 4
        return path, cursor

    def test_truncated_shard_raises(self, tmp_path):
        path, cursor = self.read_four(tmp_path)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) // 2)
        with pytest.raises(StoreCorruptError, match="records-0000"):
            read_journal_tail(str(tmp_path), "records", cursor)

    def test_deleted_shard_raises(self, tmp_path):
        path, cursor = self.read_four(tmp_path)
        os.remove(path)
        with pytest.raises(StoreCorruptError, match="records-0000"):
            read_journal_tail(str(tmp_path), "records", cursor)

    def test_unread_shards_may_appear_and_stay_empty(self, tmp_path):
        _path, cursor = self.read_four(tmp_path)
        write_lines(tmp_path / "records-0001.jsonl", [])
        tail, cursor = read_journal_tail(str(tmp_path), "records", cursor)
        assert tail == []
        assert set(cursor) == {"records-0000.jsonl"}


class TestReadWhileAppend:
    def test_concurrent_reader_sees_only_whole_batches(self, tmp_path):
        """A writer fsyncing between batches races polling readers; every
        snapshot (full read and folded tail) must be a clean prefix of
        the final journal — whole rows only, no decode errors."""
        batch_size, batches = 25, 12
        done = threading.Event()
        errors = []
        snapshots = []

        def reader():
            cursor = None
            folded = []
            while not done.is_set():
                try:
                    full = read_journal(str(tmp_path), "records")
                    tail, cursor = read_journal_tail(
                        str(tmp_path), "records", cursor
                    )
                    folded.extend(tail)
                except StoreCorruptError as exc:  # pragma: no cover
                    errors.append(exc)
                    return
                snapshots.append((len(full), list(folded)))
                time.sleep(0.001)

        thread = threading.Thread(target=reader)
        thread.start()
        writer = JournalWriter(str(tmp_path), "records", records_per_file=64)
        expected = []
        try:
            for batch in range(batches):
                for n in range(batch_size):
                    entry = {"batch": batch, "n": n}
                    writer.append(entry)
                    expected.append(entry)
                writer.sync()
                time.sleep(0.002)
        finally:
            writer.close()
            done.set()
            thread.join(timeout=10)

        assert not errors
        final = read_journal(str(tmp_path), "records")
        assert final == expected
        assert snapshots
        for count, folded in snapshots:
            # Full reads may include buffered-but-unsynced whole lines;
            # they are still always a prefix, never a torn row.
            assert count <= len(expected)
            assert folded == expected[: len(folded)]
        # The reader observed growth, not just the empty journal.
        assert max(count for count, _folded in snapshots) > 0
