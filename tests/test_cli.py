"""The command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_diagnose_defaults(self):
        args = build_parser().parse_args(["diagnose"])
        assert args.org == "Comcast"
        assert args.firmware == "honest"
        assert args.isp == "none"

    def test_bad_org_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["diagnose", "--org", "NotAnIsp"])


class TestCommands:
    def test_catalog(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "id.server" in out and "debug.opendns.com" in out

    def test_diagnose_clean(self, capsys):
        assert main(["diagnose"]) == 0
        out = capsys.readouterr().out
        assert "verdict      : not-intercepted" in out

    def test_diagnose_xb6(self, capsys):
        assert main(["diagnose", "--firmware", "xb6"]) == 0
        out = capsys.readouterr().out
        assert "verdict      : cpe" in out
        assert "dnsmasq-" in out

    def test_diagnose_isp_block(self, capsys):
        assert main(["diagnose", "--isp", "block"]) == 0
        out = capsys.readouterr().out
        assert "verdict      : within-isp" in out
        assert "Status Modified" in out

    def test_diagnose_external(self, capsys):
        assert main(["diagnose", "--external"]) == 0
        out = capsys.readouterr().out
        assert "verdict      : unknown" in out

    def test_example(self, capsys):
        assert main(["example"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "Table 3" in out
        assert "unbound 1.9.0" in out

    def test_study_small(self, capsys):
        assert main(["study", "--size", "60", "--seed", "5", "--accuracy"]) == 0
        out = capsys.readouterr().out
        assert "Table 4" in out and "Table 5" in out
        assert "Figure 3" in out and "Figure 4a" in out
        assert "confusion" in out.lower()

    def test_case_study(self, capsys):
        assert main(["case-study"]) == 0
        out = capsys.readouterr().out
        assert "XB6" in out and "DNAT" in out
        assert "spoofed source" in out

    def test_ttl(self, capsys):
        assert main(["ttl", "--firmware", "dnat"]) == 0
        out = capsys.readouterr().out
        assert "(CPE)" in out

    def test_dot(self, capsys):
        assert main(["dot", "--isp", "redirect", "--dot"]) == 0
        out = capsys.readouterr().out
        assert "hijack-defeated" in out


class TestStudyPersistence:
    def test_save_and_load(self, tmp_path, capsys):
        path = str(tmp_path / "records.json")
        assert main(["study", "--size", "40", "--seed", "9", "--save", path]) == 0
        saved_out = capsys.readouterr().out
        assert main(["study", "--load", path]) == 0
        loaded_out = capsys.readouterr().out
        # The rendered artifacts must be identical after a round trip.
        assert saved_out == loaded_out

    def test_saved_seed_matches_flag(self, tmp_path):
        import json

        path = str(tmp_path / "records.json")
        assert main(["study", "--size", "10", "--seed", "9", "--save", path]) == 0
        with open(path, encoding="utf-8") as handle:
            assert json.load(handle)["seed"] == 9


#: Flag combinations StudyConfig rejects, with ``--load`` or without.
_REJECTED_AXES = {
    "evasion-cert": ["--evasion", "--transport", "doh", "--detector", "cert"],
    "fingerprint-cert": ["--fingerprint", "--detector", "cert"],
    "evasion-udp53": ["--evasion"],
}


class TestStudyConfigValidation:
    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("study") / "records.json")
        assert main(["study", "--size", "4", "--seed", "3", "--save", path]) == 0
        return path

    @staticmethod
    def assert_one_line_error(capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flags",
        [*_REJECTED_AXES.values(), ["--transport", "dot"]],
        ids=[*_REJECTED_AXES, "transport-without-evasion"],
    )
    def test_rejected(self, flags, capsys):
        assert main(["study", "--size", "4", *flags]) == 2
        self.assert_one_line_error(capsys)

    @pytest.mark.parametrize(
        "flags", _REJECTED_AXES.values(), ids=list(_REJECTED_AXES)
    )
    def test_rejected_under_load(self, flags, saved, capsys):
        capsys.readouterr()
        assert main(["study", "--load", saved, *flags]) == 2
        self.assert_one_line_error(capsys)

    def test_load_ignores_transport(self, saved, capsys):
        assert main(["study", "--load", saved, "--transport", "dot"]) == 0


class TestStudyWorkers:
    def test_parallel_study_output_identical(self, tmp_path, capsys):
        serial = str(tmp_path / "serial.json")
        parallel = str(tmp_path / "parallel.json")
        assert main(["study", "--size", "20", "--seed", "5", "--save", serial]) == 0
        serial_out = capsys.readouterr().out
        args = ["study", "--size", "20", "--seed", "5", "--workers", "2"]
        assert main(args + ["--save", parallel]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out
        with open(serial, encoding="utf-8") as a, open(parallel, encoding="utf-8") as b:
            assert a.read() == b.read()  # byte-identical export


class TestTtlFullSweep:
    def test_full_sweep_flag(self, capsys):
        assert main(["ttl", "--full-sweep"]) == 0
        out = capsys.readouterr().out
        # A clean full sweep shows the traceroute and a standard answer.
        assert "ICMP time-exceeded" in out
        assert "standard" in out


class TestScenariosCli:
    def test_list_repo_catalog(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "ci-smoke" in out and "epochs=" in out

    def test_show_scenario_json(self, capsys):
        import json

        assert main(["scenarios", "show", "ci-smoke"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["name"] == "ci-smoke"
        assert summary["epochs"] == 2
        assert len(summary["fingerprint"]) == 64

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["scenarios", "show", "no-such-scenario"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "ci-smoke" in err

    def test_missing_catalog_dir_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nowhere")
        assert main(["scenarios", "list", "--dir", missing]) == 2
        assert "error:" in capsys.readouterr().err


class TestCampaignCli:
    @pytest.fixture(scope="class")
    def catalog(self, tmp_path_factory):
        import json

        from tests.campaigns.conftest import bundle_data

        directory = tmp_path_factory.mktemp("catalog")
        data = bundle_data(name="cli-mini")
        data["population"]["size"] = 14
        data["schedule"]["epochs"] = 2
        (directory / "cli-mini.json").write_text(json.dumps(data))
        return str(directory)

    def test_run_interrupt_resume_trend_flow(self, catalog, tmp_path, capsys):
        import json

        store = str(tmp_path / "camp")
        base = ["campaign", "run", "--scenario", "cli-mini",
                "--dir", catalog, "--store", store]
        assert main(base + ["--probe-budget", "6"]) == 3
        err = capsys.readouterr().err
        assert "interrupted" in err and "--resume" in err
        # The partial store already has folded tables on disk.
        import os

        assert os.path.exists(os.path.join(store, "tables", "trend.json"))

        assert main(base) == 2  # refuses to continue without --resume
        capsys.readouterr()
        assert main(base + ["--resume", "--workers", "2"]) == 0
        assert "complete" in capsys.readouterr().err

        assert main(["campaign", "tables", store, "--epoch", "1"]) == 0
        table = json.loads(capsys.readouterr().out)
        assert table["epoch"] == 1 and table["complete"] is True

        trend_path = str(tmp_path / "trend.json")
        assert main(["campaign", "trend", store, "--json", trend_path]) == 0
        capsys.readouterr()
        with open(trend_path, encoding="utf-8") as handle:
            trend = json.load(handle)
        assert trend["scenario"] == "cli-mini"
        assert trend["series"]["measured"][0] == trend["epochs"][0]["measured"]
        # The file matches the persisted table the run folded.
        with open(
            os.path.join(store, "tables", "trend.json"), encoding="utf-8"
        ) as handle:
            assert json.load(handle) == trend

    def test_unknown_scenario_exits_2(self, catalog, tmp_path, capsys):
        assert main(["campaign", "run", "--scenario", "ghost",
                     "--dir", catalog,
                     "--store", str(tmp_path / "s")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_tables_on_missing_store_exits_2(self, tmp_path, capsys):
        assert main(["campaign", "trend", str(tmp_path / "absent")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_on_missing_store_exits_2(self, tmp_path, capsys):
        assert main(["serve", str(tmp_path / "absent")]) == 2
        assert "error:" in capsys.readouterr().err


class TestResultsDamagedStore:
    """`repro results` on a store with mid-file damage: a one-line
    error naming the damaged shard, exit 2 — never a traceback."""

    @pytest.fixture()
    def damaged_store(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["study", "--size", "12", "--seed", "4",
                     "--store", store]) == 0
        capsys.readouterr()
        import os

        journal = os.path.join(store, "journal")
        shard = sorted(
            name for name in os.listdir(journal)
            if name.startswith("records-")
        )[0]
        path = os.path.join(journal, shard)
        with open(path, "rb") as handle:
            lines = handle.read().split(b"\n")
        lines[2] = b'{"i": 2, "record": {truncated-mid-write'
        with open(path, "wb") as handle:
            handle.write(b"\n".join(lines))
        return store, shard

    def test_one_line_error_names_the_shard(self, damaged_store, capsys):
        store, shard = damaged_store
        assert main(["results", store]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert shard in captured.err
        assert "undecodable journal line" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err

    def test_tables_path_fails_the_same_way(self, damaged_store, capsys):
        store, shard = damaged_store
        assert main(["results", store, "--tables"]) == 2
        assert shard in capsys.readouterr().err


class TestStudyStore:
    def test_interrupt_resume_results_flow(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        base = ["study", "--size", "16", "--seed", "4", "--store", store]
        assert main(base + ["--probe-budget", "6"]) == 3
        err = capsys.readouterr().err
        assert "interrupted" in err and "--resume" in err

        # Without --resume a partial store is refused.
        assert main(base) == 2
        assert "--resume" in capsys.readouterr().err

        resumed = str(tmp_path / "resumed.json")
        assert main(base + ["--resume", "--save", resumed]) == 0
        assert "journal complete" in capsys.readouterr().err

        reference = str(tmp_path / "reference.json")
        assert main(["study", "--size", "16", "--seed", "4",
                     "--save", reference]) == 0
        capsys.readouterr()
        with open(resumed, encoding="utf-8") as a, open(
            reference, encoding="utf-8"
        ) as b:
            assert a.read() == b.read()  # byte-identical to uninterrupted

        # The archive answers without re-simulating.
        assert main(["results", store]) == 0
        out = capsys.readouterr().out
        assert "[study]" in out and "16/16" in out and "complete" in out
        assert main(["results", store, "--tables"]) == 0
        assert "Table 4" in capsys.readouterr().out

    def test_mismatched_inputs_rejected(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["study", "--size", "12", "--seed", "4", "--store", store,
                     "--probe-budget", "4"]) == 3
        capsys.readouterr()
        assert main(["study", "--size", "12", "--seed", "5", "--store", store,
                     "--resume"]) == 2
        assert "different inputs" in capsys.readouterr().err

    def test_store_flag_validation(self, tmp_path, capsys):
        assert main(["study", "--size", "4", "--resume"]) == 2
        assert "--resume requires --store" in capsys.readouterr().err
        assert main(["study", "--size", "4", "--probe-budget", "2"]) == 2
        assert "--probe-budget requires --store" in capsys.readouterr().err
        load = str(tmp_path / "x.json")
        assert main(["study", "--size", "4", "--store",
                     str(tmp_path / "s"), "--load", load]) == 2
        assert "--load" in capsys.readouterr().err

    def test_results_on_missing_dir(self, tmp_path, capsys):
        assert main(["results", str(tmp_path / "nothing")]) == 2
        assert "no result stores found" in capsys.readouterr().err

    def test_results_verdict_filter(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["study", "--size", "16", "--seed", "4",
                     "--store", store]) == 0
        capsys.readouterr()
        assert main(["results", store, "--verdict", "not-intercepted"]) == 0
        out = capsys.readouterr().out
        assert "verdict=not-intercepted" in out


class TestOutputPathHandling:
    def test_save_creates_parent_dirs(self, tmp_path):
        path = str(tmp_path / "deep" / "nested" / "records.json")
        assert main(["study", "--size", "6", "--seed", "1",
                     "--save", path]) == 0
        import os

        assert os.path.exists(path)

    def test_unwritable_save_path_one_line_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        path = str(blocker / "records.json")
        assert main(["study", "--size", "6", "--seed", "1",
                     "--save", path]) == 2
        err = capsys.readouterr().err
        # One-line error, no traceback (the other line is the progress banner).
        error_lines = [l for l in err.splitlines() if l.startswith("error:")]
        assert len(error_lines) == 1
        assert error_lines[0].startswith("error: cannot write study records to")
        assert "Traceback" not in err
