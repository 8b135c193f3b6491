"""The fuzz harness itself: determinism, oracles, corpus, minimiser."""

import random

import pytest

from repro.dnswire import Message, decode_or_none
from repro.fuzz import (
    ByteMutator,
    FuzzConfig,
    MessageGenerator,
    check_hostile,
    check_roundtrip,
    load_corpus,
    minimize,
    run_fuzz,
    save_entry,
)


class TestDeterminism:
    def test_generator_same_seed_same_messages(self):
        first = [MessageGenerator(random.Random(7)).message() for _ in range(20)]
        second = [MessageGenerator(random.Random(7)).message() for _ in range(20)]
        assert first == second

    def test_mutator_same_seed_same_buffers(self):
        base = b"\x00" * 40
        first = [ByteMutator(random.Random(3)).mutate(base) for _ in range(1)]
        second = [ByteMutator(random.Random(3)).mutate(base) for _ in range(1)]
        assert first == second

    def test_run_same_seed_same_digest(self):
        one = run_fuzz(FuzzConfig(seed=11, iterations=40))
        two = run_fuzz(FuzzConfig(seed=11, iterations=40))
        assert one.case_digest == two.case_digest
        assert (one.roundtrip_cases, one.hostile_cases) == (
            two.roundtrip_cases,
            two.hostile_cases,
        )

    def test_different_seeds_differ(self):
        one = run_fuzz(FuzzConfig(seed=1, iterations=40))
        two = run_fuzz(FuzzConfig(seed=2, iterations=40))
        assert one.case_digest != two.case_digest


class TestOracles:
    def test_smoke_run_clean(self):
        report = run_fuzz(FuzzConfig(seed=0, iterations=200))
        assert report.ok(), report.render()
        assert report.roundtrip_cases == 200
        assert report.hostile_cases > 200

    def test_generated_messages_are_valid(self):
        generator = MessageGenerator(random.Random(0))
        for _ in range(100):
            message = generator.message()
            assert not check_roundtrip(message)

    def test_hostile_oracle_accepts_real_messages(self):
        generator = MessageGenerator(random.Random(5))
        wire = generator.message().encode()
        assert not check_hostile(wire)

    def test_hostile_oracle_flags_crashing_decode(self, monkeypatch):
        import repro.dnswire.message as message_module

        def boom(data):
            raise RuntimeError("decoder exploded")

        monkeypatch.setattr(message_module.Message, "decode", staticmethod(boom))
        # decode_or_none memoises on data[2:]; an earlier test may have
        # already decoded an all-zero buffer, which would mask `boom`.
        message_module._DECODE_CACHE.clear()
        violations = check_hostile(b"\x00" * 12)
        assert violations
        assert any("decode_or_none raised" in v.detail for v in violations)

    def test_roundtrip_oracle_flags_drift(self):
        # A message whose equality is deliberately broken via subclassing.
        class Lying(Message):
            def __eq__(self, other):
                return False

            __hash__ = None

        violations = check_roundtrip(Lying(msg_id=1))
        assert any("!=" in v.detail for v in violations)


class TestMutator:
    def test_mutants_differ_from_base(self):
        mutator = ByteMutator(random.Random(1))
        base = MessageGenerator(random.Random(1)).message().encode()
        mutants = {mutator.mutate(base) for _ in range(50)}
        assert len(mutants) > 25
        assert any(m != base for m in mutants)

    def test_random_buffer_bounded(self):
        mutator = ByteMutator(random.Random(2))
        for _ in range(20):
            assert len(mutator.random_buffer(max_size=64)) < 64


class TestCorpus:
    def test_save_and_load_roundtrip(self, tmp_path):
        data = bytes(range(64))
        save_entry(str(tmp_path), "sample", data, "two-line\ncomment")
        entries = load_corpus(str(tmp_path))
        assert len(entries) == 1
        assert entries[0].name == "sample"
        assert entries[0].data == data
        assert "two-line" in entries[0].comment

    def test_corpus_replayed_in_run(self, tmp_path):
        save_entry(str(tmp_path), "benign", b"\x00" * 4, "short garbage")
        report = run_fuzz(
            FuzzConfig(seed=0, iterations=1, corpus_dir=str(tmp_path))
        )
        assert report.corpus_replayed == 1
        assert report.ok()

    def test_corpus_violation_reported_with_entry_name(self, tmp_path, monkeypatch):
        from repro.fuzz import oracles as oracles_module
        from repro.fuzz.oracles import Violation

        save_entry(str(tmp_path), "trips", b"\xff", "always trips")
        # replay() resolves check_hostile from the oracles module lazily.
        monkeypatch.setattr(
            oracles_module,
            "check_hostile",
            lambda data: [Violation("hostile", "boom", data)],
        )
        report = run_fuzz(
            FuzzConfig(seed=0, iterations=0, corpus_dir=str(tmp_path))
        )
        assert not report.ok()
        assert "trips" in report.violations[0].detail


class TestMinimizer:
    def test_minimizes_to_smallest_interesting(self):
        # Interesting = contains the byte 0x42 anywhere.
        data = bytes(100) + b"\x42" + bytes(100)
        reduced = minimize(data, lambda buf: b"\x42" in buf)
        assert reduced == b"\x42"

    def test_rejects_uninteresting_seed(self):
        with pytest.raises(ValueError):
            minimize(b"\x00", lambda buf: False)

    def test_minimized_buffer_still_fails_oracle(self):
        # An oversize multibyte name: minimisation must preserve failure.
        from repro.dnswire.wire import WireWriter

        writer = WireWriter()
        import struct

        header = struct.pack("!HHHHHH", 0, 0x8000, 1, 0, 0, 0)
        qname = b"".join(
            bytes([63]) + ("€" * 21).encode() for _ in range(8)
        ) + b"\x00"
        wire = header + qname + struct.pack("!HH", 16, 1)

        def returns_none(buf):
            return decode_or_none(buf) is None and len(buf) >= 12

        reduced = minimize(wire, returns_none)
        assert returns_none(reduced)
        assert len(reduced) <= len(wire)


class TestVocabularyCoverage:
    """The generator must actually draw from the paper's vocabulary."""

    def test_chaos_and_myaddr_names_appear(self):
        generator = MessageGenerator(random.Random(0))
        seen = set()
        for _ in range(400):
            for question in generator.message().questions:
                seen.add(question.qname.to_text())
        assert "id.server." in seen
        assert "o-o.myaddr.l.google.com." in seen

    def test_all_rr_type_families_appear(self):
        generator = MessageGenerator(random.Random(0))
        kinds = set()
        for _ in range(400):
            message = generator.message()
            for section in (message.answers, message.authorities, message.additionals):
                for record in section:
                    kinds.add(type(record.rdata).__name__)
        assert {
            "AData",
            "AAAAData",
            "TxtData",
            "SoaData",
            "MxData",
            "OpaqueData",
        } <= kinds

    def test_edns_records_appear_and_parse(self):
        from repro.dnswire import get_edns

        generator = MessageGenerator(random.Random(0))
        with_opt = 0
        for _ in range(200):
            message = generator.message()
            edns = get_edns(message)
            if edns is not None:
                with_opt += 1
                edns.client_subnet()  # must never raise on generated input
        assert with_opt > 20
