"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``catalog``
    Print the location-query catalog (Table 1).
``diagnose``
    Build an archetype household and run the three-step pipeline.
``example``
    The §3.4 worked example: Tables 2 and 3, measured live.
``study``
    The §4 pilot study over the calibrated fleet: Tables 4-5,
    Figures 3-4, and the accuracy report. ``--store DIR`` journals the
    run crash-safely and ``--resume`` continues an interrupted one.
``results``
    List, filter and summarise result-store archives without
    re-simulating anything.
``fuzz``
    Differential fuzz of the DNS wire codec: round-trip and
    hostile-bytes oracles over seeded, deterministic cases, with the
    checked-in crasher corpus replayed first.
``case-study``
    The §5 XB6 walk-through with a packet trace.
``ttl``
    The §6 TTL-probing extension against a chosen household.
``dot``
    The §6 DoT privacy-profile matrix against a chosen household.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import replace
from typing import Optional, Sequence

from repro import diagnose_household
from repro.analysis import (
    build_example_tables,
    build_figure3,
    build_figure4_countries,
    build_figure4_organizations,
    build_location_summary,
    build_table4,
    build_table5,
    measure_example_probes,
    render_table,
)
from repro.analysis.accuracy import score_study
from repro.analysis.stability import build_stability_report
from repro.atlas.geo import ORGANIZATIONS, organization_by_name
from repro.atlas.measurement import MeasurementClient
from repro.atlas.population import generate_population
from repro.atlas.probe import IspBehavior, ProbeSpec
from repro.atlas.retry import ExponentialBackoffRetry
from repro.atlas.scenario import ScenarioSpec, build_scenario
from repro.core.catalog import location_query_table
from repro.core.detector_registry import STUDY_DETECTORS
from repro.core.encrypted_probe import EncryptedProfile, probe_encrypted_provider
from repro.core.metrics import TRACE_LEVELS
from repro.core.study import STUDY_TRANSPORTS, StudyConfig, run_pilot_study
from repro.net.impairment import IMPAIRMENT_PROFILES, impairment_profile
from repro.core.ttl_probe import ttl_probe
from repro.cpe.firmware import (
    dnat_interceptor,
    honest_router,
    open_wan_forwarder,
    pihole_profile,
    xb6_profile,
)
from repro.cpe.xb6 import describe_mechanism
from repro.dnswire import QType, make_query
from repro.interceptors.policy import InterceptMode, intercept_all
from repro.resolvers.public import Provider

_FIRMWARES = {
    "honest": honest_router,
    "xb6": xb6_profile,
    "pihole": pihole_profile,
    "dnat": dnat_interceptor,
    "open-forwarder": open_wan_forwarder,
}

_ISP_MODES = {
    "none": None,
    "redirect": InterceptMode.REDIRECT,
    "block": InterceptMode.BLOCK,
    "drop": InterceptMode.DROP,
    "replicate": InterceptMode.REPLICATE,
}


def _spec_from_args(args: argparse.Namespace) -> ProbeSpec:
    organization = organization_by_name(args.org)
    firmware = _FIRMWARES[args.firmware]()
    policies = ()
    mode = _ISP_MODES[args.isp]
    if mode is not None:
        policy = intercept_all(mode=mode, intercept_bogons=not args.bogon_blind)
        if args.dot:
            policy = replace(policy, intercept_dot=True)
        policies = (policy,)
    external = (intercept_all(),) if args.external else ()
    return ProbeSpec(
        probe_id=args.probe_id,
        organization=organization,
        firmware=firmware,
        isp=IspBehavior(middlebox_policies=policies),
        external_policies=external,
        has_ipv6=args.ipv6,
    )


def _add_household_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--org",
        default="Comcast",
        choices=[o.name for o in ORGANIZATIONS],
        help="access network the household sits in",
    )
    parser.add_argument(
        "--firmware",
        default="honest",
        choices=sorted(_FIRMWARES),
        help="CPE firmware profile",
    )
    parser.add_argument(
        "--isp",
        default="none",
        choices=sorted(_ISP_MODES),
        help="ISP middlebox interception mode",
    )
    parser.add_argument(
        "--external", action="store_true", help="add a beyond-AS interceptor"
    )
    parser.add_argument(
        "--bogon-blind",
        action="store_true",
        help="the ISP middlebox discards bogon-destined queries",
    )
    parser.add_argument(
        "--dot",
        action="store_true",
        help="the ISP middlebox also terminates DNS-over-TLS",
    )
    parser.add_argument("--ipv6", action="store_true", help="dual-stack household")
    parser.add_argument("--probe-id", type=int, default=1, help="deterministic seed")


def cmd_catalog(_args: argparse.Namespace) -> int:
    print(
        render_table(
            ("Public Resolver", "Type", "Location Query", "Example Response"),
            location_query_table(),
            title="Table 1: Location queries and expected responses.",
        )
    )
    return 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    result = diagnose_household(spec)
    print(f"household    : org={spec.organization.name} firmware={args.firmware} "
          f"isp={args.isp}{' +external' if args.external else ''}")
    print(f"ground truth : {spec.true_location().value}")
    print(f"verdict      : {result.verdict.value}")
    if result.intercepted:
        family = result.analysis_family
        providers = [p.value for p in result.detection.intercepted_providers(family)]
        print(f"intercepted  : IPv{family} {providers}")
        print(f"transparency : {result.transparency_class.value}")
    if result.cpe_version_string:
        print(f"version.bind : {result.cpe_version_string!r}")
    if args.verbose:
        from repro.core.report import render_diagnosis

        print()
        print(render_diagnosis(result))
    return 0


def cmd_example(_args: argparse.Namespace) -> int:
    table2, table3 = build_example_tables(measure_example_probes())
    print(table2)
    print()
    print(table3)
    return 0


def _write_output_file(path: str, text: str, what: str) -> bool:
    """Write a CLI artifact atomically, creating missing parents; on an
    unwritable path print a one-line error instead of a traceback."""
    from repro.ioutil import atomic_write_text

    try:
        atomic_write_text(path, text, create_parents=True)
    except OSError as exc:
        reason = exc.strerror or str(exc)
        print(f"error: cannot write {what} to {path}: {reason}", file=sys.stderr)
        return False
    return True


def _write_metrics_snapshot(args: argparse.Namespace, snapshot) -> bool:
    if snapshot is None:
        return True
    if not _write_output_file(
        args.metrics, snapshot.to_json() + "\n", "metrics snapshot"
    ):
        return False
    print(f"wrote metrics snapshot to {args.metrics}", file=sys.stderr)
    return True


def _chaos_retry(args: argparse.Namespace):
    """Retry policy for impaired runs: backoff, sized by ``--retries``."""
    retries = args.retries
    if retries is None:
        retries = 5 if args.impair else 0
    if retries == 0:
        return None
    return ExponentialBackoffRetry(retries=retries, seed=args.seed)


def _run_chaos_study(args: argparse.Namespace, specs, config: StudyConfig) -> int:
    """Clean run + N impaired trials, scored for verdict stability."""
    profile = impairment_profile(args.impair)
    print(
        f"chaos study: clean run + {args.chaos_trials} trials under "
        f"'{args.impair}' ({profile.describe()})",
        file=sys.stderr,
    )
    clean_config = replace(config, impairment=None, retry=None)
    clean = run_pilot_study(specs, clean_config)
    trials = []
    for trial in range(1, args.chaos_trials + 1):
        print(f"impaired trial {trial}/{args.chaos_trials} ...", file=sys.stderr)
        trial_config = replace(
            config,
            impairment=profile,
            impairment_seed=trial,
            retry=_chaos_retry(args),
        )
        trials.append(run_pilot_study(specs, trial_config))
    if args.metrics and not _write_metrics_snapshot(args, trials[0].metrics):
        return 2
    print("Clean run:   ", build_location_summary(clean).render())
    for index, trial in enumerate(trials, start=1):
        print(f"Trial {index}:     ", build_location_summary(trial).render())
    print()
    report = build_stability_report(clean, trials)
    print(report.render())
    return 0 if report.ok() else 1


def cmd_study(args: argparse.Namespace) -> int:
    if args.chaos_trials and not args.impair:
        print("--chaos-trials requires --impair", file=sys.stderr)
        return 2
    if args.agreement_json and args.detector != "both":
        print("--agreement-json requires --detector both", file=sys.stderr)
        return 2
    if args.fingerprint_json and not (args.fingerprint or args.load):
        print("--fingerprint-json requires --fingerprint", file=sys.stderr)
        return 2
    for flag, name in ((args.resume, "--resume"), (args.probe_budget, "--probe-budget")):
        if flag and not args.store:
            print(f"{name} requires --store", file=sys.stderr)
            return 2
    if args.store and args.load:
        print("--store cannot be combined with --load", file=sys.stderr)
        return 2
    if args.store and args.chaos_trials:
        print(
            "--store holds exactly one study; it cannot journal a "
            "--chaos-trials series",
            file=sys.stderr,
        )
        return 2
    workers = args.workers if args.workers != 0 else None
    try:
        config = StudyConfig(
            workers=workers,
            seed=args.seed,
            metrics=bool(args.metrics),
            trace=args.trace,
            # --load ignores --transport; with --evasion the pair is checked.
            transport=args.transport if args.evasion or not args.load else "udp53",
            evasion=args.evasion,
            detector=args.detector,
            fingerprint=args.fingerprint,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.load:
        if args.impair:
            print("--impair cannot be combined with --load", file=sys.stderr)
            return 2
        from repro.analysis.export import load_study

        study = load_study(args.load)
        print(f"loaded {len(study.records)} records from {args.load}", file=sys.stderr)
    else:
        specs = generate_population(size=args.size, seed=args.seed)
        suffix = "" if workers == 1 else f" across {workers or 'auto'} workers"
        if args.chaos_trials:
            return _run_chaos_study(args, specs, config)
        print(
            f"measuring {len(specs)} probes (seed {args.seed}){suffix} ...",
            file=sys.stderr,
        )
        if args.impair:
            config = replace(
                config,
                impairment=impairment_profile(args.impair),
                impairment_seed=args.seed,
                retry=_chaos_retry(args),
            )
        if args.store:
            from repro.store import ResultStore, StoreError, StoreInterrupted

            store = ResultStore(
                args.store, resume=args.resume, probe_budget=args.probe_budget
            )
            try:
                study = run_pilot_study(specs, config, store=store)
            except StoreInterrupted as exc:
                print(
                    f"interrupted: {exc.done}/{exc.total} probes journaled in "
                    f"{args.store}; rerun with --resume to continue",
                    file=sys.stderr,
                )
                return 3
            except (StoreError, OSError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            print(
                f"journal complete: {len(study.records)} records archived in "
                f"{args.store}",
                file=sys.stderr,
            )
        else:
            study = run_pilot_study(specs, config)
    if args.metrics:
        if study.metrics is None:
            print(
                "no metrics collected (loaded studies carry records only)",
                file=sys.stderr,
            )
        else:
            if not _write_metrics_snapshot(args, study.metrics):
                return 2
            print(study.metrics.render(), file=sys.stderr)
    if args.save:
        from repro.analysis.export import study_to_json

        if not _write_output_file(args.save, study_to_json(study), "study records"):
            return 2
        print(f"saved records to {args.save}", file=sys.stderr)
    detector = study.config.detector if study.config is not None else "heuristic"
    if detector == "cert":
        # Cert-only records carry CertVerdict values, which the
        # heuristic tables (Table 4/5, figures) cannot consume.
        print(_render_cert_summary(study))
        if args.accuracy:
            print(
                "--accuracy scores locator verdicts; run --detector "
                "heuristic or both",
                file=sys.stderr,
            )
        return 0
    print(build_table4(study).render())
    print()
    print(build_table5(study).render())
    print()
    print("Location summary:", build_location_summary(study).render())
    has_evasion = (study.config is not None and study.config.evasion) or any(
        record.evasion_transport is not None for record in study.records
    )
    if has_evasion:
        from repro.analysis.evasion import build_evasion_table

        print()
        print(build_evasion_table(study).render())
    has_fingerprint = (
        study.config is not None and study.config.fingerprint
    ) or any(record.fingerprint_signature for record in study.records)
    if has_fingerprint:
        from repro.analysis.fingerprint_study import build_fingerprint_confusion

        print()
        try:
            confusion = build_fingerprint_confusion(study).to_dict()
            print(build_fingerprint_confusion(study).render())
        except ValueError:
            confusion = {"total": 0, "correct": 0, "matrix": {}}
            print("Fingerprint confusion: no intercepted probes to fingerprint")
        if args.fingerprint_json:
            payload = json.dumps(confusion, indent=2) + "\n"
            if not _write_output_file(
                args.fingerprint_json, payload, "fingerprint confusion"
            ):
                return 2
            print(
                f"saved fingerprint confusion to {args.fingerprint_json}",
                file=sys.stderr,
            )
    if detector == "both":
        from repro.analysis.agreement import build_agreement_table

        agreement = build_agreement_table(study)
        print()
        print(agreement.render())
        if args.agreement_json:
            payload = json.dumps(agreement.to_dict(), indent=2) + "\n"
            if not _write_output_file(
                args.agreement_json, payload, "agreement table"
            ):
                return 2
            print(
                f"saved agreement table to {args.agreement_json}",
                file=sys.stderr,
            )
    print()
    from repro.analysis.replication import build_replication_report

    print(build_replication_report(study).render())
    print()
    print(build_figure3(study).render())
    print()
    print(build_figure4_countries(study).render())
    print()
    print(build_figure4_organizations(study).render())
    if args.accuracy:
        print()
        print(score_study(study).render())
    return 0


def _render_cert_summary(study) -> str:
    """Verdict/cause tallies of a cert-only study."""
    counts: dict[tuple[str, str], int] = {}
    for record in study.records:
        if not record.online:
            continue
        key = (record.cert_verdict or "no-data", record.cert_cause or "-")
        counts[key] = counts.get(key, 0) + 1
    rows = [
        [verdict, cause, count]
        for (verdict, cause), count in sorted(counts.items())
    ]
    return render_table(
        ("cert verdict", "cause", "probes"),
        rows,
        title="Certificate cross-validation summary (online probes)",
    )


def cmd_results(args: argparse.Namespace) -> int:
    """Query result-store archives: list them, filter by verdict, or
    rebuild the paper's tables straight from the journal."""
    from repro.store import (
        StoreError,
        list_stores,
        load_stored_study,
        summarize_store,
    )

    try:
        stores = list_stores(args.dir)
        if not stores:
            print(f"no result stores found under {args.dir}", file=sys.stderr)
            return 2
        first = True
        for path in stores:
            summary = summarize_store(path)
            print(summary.render())
            study = None
            if (args.verdict or args.tables) and summary.kind == "study":
                study = load_stored_study(path)
            if args.verdict and study is not None:
                matching = [
                    r.probe_id for r in study.records if r.verdict == args.verdict
                ]
                print(
                    f"  verdict={args.verdict}: {len(matching)} probes"
                    + (f": {matching}" if matching else "")
                )
            if args.tables and study is not None:
                if not first:
                    print()
                print()
                print(build_table4(study).render())
                print()
                print(build_table5(study).render())
                print()
                print("Location summary:", build_location_summary(study).render())
            first = False
    except (StoreError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_scenarios(args: argparse.Namespace) -> int:
    """Browse the scenario catalog: list names or show one bundle."""
    from repro.campaigns import ScenarioError, find_bundle, load_catalog
    from repro.ioutil import canonical_json

    try:
        if args.scenarios_action == "show":
            bundle = find_bundle(args.name, args.dir)
            print(canonical_json(bundle.summary()), end="")
        else:
            for bundle in load_catalog(args.dir):
                print(
                    f"{bundle.name:<24} epochs={bundle.schedule.epochs:<3} "
                    f"fleet={bundle.population.size:<6} "
                    f"{bundle.description}"
                )
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    """Longitudinal campaigns: run a catalog scenario into a store, or
    rebuild its epoch/trend tables from the journal."""
    from repro.campaigns import (
        LongitudinalCampaign,
        ScenarioError,
        StoreAggregator,
        find_bundle,
    )
    from repro.ioutil import canonical_json
    from repro.store import ResultStore, StoreError, StoreInterrupted

    if args.campaign_action == "run":
        try:
            bundle = find_bundle(args.scenario, args.dir)
        except (ScenarioError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        campaign = LongitudinalCampaign(bundle)
        store = ResultStore(
            args.store, resume=args.resume, probe_budget=args.probe_budget
        )
        aggregator = StoreAggregator(args.store, persist=True)

        def progress(done: int, total: int) -> None:
            print(f"  {done}/{total} probes journaled", file=sys.stderr)

        def epoch_done(epoch: int) -> None:
            # Fold the finished epoch incrementally — the persisted
            # tables trail the journal by at most one epoch.
            aggregator.refresh()
            print(f"epoch {epoch} complete, tables folded", file=sys.stderr)

        try:
            epochs = campaign.run(
                store=store,
                workers=args.workers,
                progress=progress,
                epoch_done=epoch_done,
            )
        except StoreInterrupted as exc:
            aggregator.refresh()
            print(
                f"interrupted: {exc.done}/{exc.total} probes journaled in "
                f"{args.store}; rerun with --resume to continue",
                file=sys.stderr,
            )
            return 3
        except (ScenarioError, StoreError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        aggregator.refresh()
        total = sum(len(records) for records in epochs.values())
        print(
            f"campaign '{bundle.name}' complete: {len(epochs)} epochs, "
            f"{total} records archived in {args.store}",
            file=sys.stderr,
        )
        return 0

    # tables / trend: read-only aggregation over an existing store
    aggregator = StoreAggregator(args.store, persist=False)
    try:
        aggregator.refresh()
        if args.campaign_action == "tables":
            if args.epoch is not None:
                text = canonical_json(aggregator.epoch_table(args.epoch))
            else:
                text = canonical_json(
                    [
                        aggregator.epoch_table(epoch)
                        for epoch in range(aggregator.epoch_count())
                    ]
                )
        else:
            text = canonical_json(aggregator.trend())
    except (StoreError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        if not _write_output_file(args.json, text, f"{args.campaign_action} JSON"):
            return 2
        print(f"wrote {args.campaign_action} to {args.json}", file=sys.stderr)
    else:
        print(text, end="")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve a result store read-only over HTTP."""
    from repro.serve import StoreServer
    from repro.store import StoreError, load_manifest

    try:
        load_manifest(args.store)
    except (StoreError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    server = StoreServer(args.store, host=args.host, port=args.port)
    print(f"serving {args.store} at {server.url}", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Run the wire-codec fuzzer; exit 1 on any oracle violation."""
    import os

    from repro.fuzz import FuzzConfig, run_fuzz, save_entry

    corpus_dir = args.corpus
    if corpus_dir and not os.path.isdir(corpus_dir):
        print(f"note: corpus dir {corpus_dir} not found; skipping replay",
              file=sys.stderr)
        corpus_dir = None
    report = run_fuzz(
        FuzzConfig(
            seed=args.seed,
            iterations=args.iterations,
            corpus_dir=corpus_dir,
        )
    )
    print(report.render())
    if report.violations and args.write_crashers and corpus_dir:
        for index, violation in enumerate(report.violations):
            if not violation.wire:
                continue
            path = save_entry(
                corpus_dir,
                f"crash-seed{args.seed}-{index}",
                violation.wire,
                f"Auto-minimised by `repro fuzz --seed {args.seed}`: "
                f"{violation.detail}",
            )
            print(f"wrote crasher to {path}", file=sys.stderr)
    return 0 if report.ok() else 1


def cmd_case_study(args: argparse.Namespace) -> int:
    spec = ProbeSpec(
        probe_id=args.probe_id,
        organization=organization_by_name("Comcast"),
        firmware=xb6_profile(buggy=True),
    )
    scenario = build_scenario(ScenarioSpec(probe=spec, trace=True))
    print(describe_mechanism(scenario.cpe))
    print()
    client = MeasurementClient(scenario.network, scenario.host)
    result = client.exchange(
        "8.8.8.8", make_query("www.example.com.", QType.A, msg_id=0x5151)
    )
    print("Packet trace of one hijacked resolution:")
    for event in scenario.network.recorder.events:
        print(" ", event.format())
    print()
    assert result.response is not None
    print("Client-visible response:")
    print(result.response.to_text())
    return 0


def cmd_ttl(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    scenario = build_scenario(spec)
    client = MeasurementClient(scenario.network, scenario.host)
    result = ttl_probe(
        client,
        Provider.GOOGLE,
        rng=random.Random(spec.probe_id),
        stop_at_answer=not args.full_sweep,
    )
    print(result.describe())
    return 0


def cmd_dot(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    scenario = build_scenario(spec)
    client = MeasurementClient(scenario.network, scenario.host)
    rng = random.Random(spec.probe_id)
    rows = []
    for provider in Provider:
        statuses = []
        for profile in (EncryptedProfile.OPPORTUNISTIC, EncryptedProfile.STRICT):
            verdict = probe_encrypted_provider(
                client, provider, transport=args.transport, profile=profile, rng=rng
            )
            statuses.append(verdict.status.value)
        rows.append((provider.value, *statuses))
    print(
        render_table(
            ("Resolver", "opportunistic", "strict"),
            rows,
            title=f"{args.transport} location-query outcomes by privacy profile.",
        )
    )
    return 0


def _workers_arg(value: str) -> int:
    count = int(value)
    if count < 0:
        raise argparse.ArgumentTypeError(
            f"workers must be >= 0 (0 = one per core), got {count}"
        )
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Locate DNS interception (IMC'21 reproduction).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("catalog", help="print Table 1").set_defaults(
        handler=cmd_catalog
    )

    diagnose = subparsers.add_parser("diagnose", help="diagnose one household")
    _add_household_arguments(diagnose)
    diagnose.add_argument(
        "-v", "--verbose", action="store_true", help="narrative step-by-step report"
    )
    diagnose.set_defaults(handler=cmd_diagnose)

    subparsers.add_parser(
        "example", help="the §3.4 worked example (Tables 2-3)"
    ).set_defaults(handler=cmd_example)

    study = subparsers.add_parser("study", help="the §4 pilot study")
    study.add_argument("--size", type=int, default=2000)
    study.add_argument("--seed", type=int, default=2021)
    study.add_argument(
        "--workers",
        type=_workers_arg,
        default=1,
        metavar="N",
        help="measure the fleet across N worker processes "
        "(0 = one per core; records are identical for any N)",
    )
    study.add_argument(
        "--accuracy", action="store_true", help="score verdicts vs ground truth"
    )
    study.add_argument(
        "--metrics",
        metavar="PATH",
        help="collect pipeline instrumentation and write the snapshot as "
        "canonical JSON (byte-identical for any --workers value)",
    )
    study.add_argument(
        "--trace",
        choices=TRACE_LEVELS,
        default="probe",
        help="metrics event-log verbosity (with --metrics): off, one event "
        "per probe, or one event per DNS exchange",
    )
    study.add_argument(
        "--impair",
        choices=sorted(IMPAIRMENT_PROFILES),
        help="measure the fleet over impaired links (named LinkProfile)",
    )
    study.add_argument(
        "--chaos-trials",
        type=int,
        default=0,
        metavar="N",
        help="with --impair: run a clean study plus N impaired trials and "
        "score verdict stability (exit 1 on regression)",
    )
    study.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="retransmission budget per exchange under --impair "
        "(default: 5 when impaired, 0 otherwise)",
    )
    study.add_argument(
        "--transport",
        choices=STUDY_TRANSPORTS,
        default="udp53",
        help="with --evasion: encrypted transport intercepted probes retry "
        "their intercepted providers over (dot/doh/doq)",
    )
    study.add_argument(
        "--evasion",
        action="store_true",
        help="run the encryption-evasion axis: after the plaintext locator, "
        "retry intercepted providers over --transport (opportunistic "
        "profile) and report evaded/blocked/downgraded per interceptor "
        "location",
    )
    study.add_argument(
        "--fingerprint",
        action="store_true",
        help="after the locator, run the six ambiguity probes against each "
        "intercepted probe's providers and name the interceptor software "
        "from its reaction vector (prints the confusion summary)",
    )
    study.add_argument(
        "--fingerprint-json",
        metavar="PATH",
        help="with --fingerprint: write the software confusion matrix as "
        "JSON (byte-identical for any --workers value)",
    )
    study.add_argument(
        "--detector",
        choices=STUDY_DETECTORS,
        default="heuristic",
        help="which detector classifies each probe: the content heuristic, "
        "the certificate cross-validator, or both (the agreement study)",
    )
    study.add_argument(
        "--agreement-json",
        metavar="PATH",
        help="with --detector both: write the agreement confusion matrix "
        "as JSON (byte-identical for any --workers value)",
    )
    study.add_argument("--save", metavar="PATH", help="write records as JSON")
    study.add_argument(
        "--load", metavar="PATH", help="analyse previously saved records"
    )
    study.add_argument(
        "--store",
        metavar="DIR",
        help="journal the run into a crash-safe result store (records "
        "stream to disk as they complete; the finished study is archived "
        "as DIR/study.json)",
    )
    study.add_argument(
        "--resume",
        action="store_true",
        help="with --store: skip already-journaled probes and finish an "
        "interrupted study (inputs must hash to the stored fingerprint)",
    )
    study.add_argument(
        "--probe-budget",
        type=int,
        default=None,
        metavar="N",
        help="with --store: measure at most N new probes this invocation, "
        "then exit 3 leaving a resumable journal",
    )
    study.set_defaults(handler=cmd_study)

    results = subparsers.add_parser(
        "results", help="query result-store archives (no re-simulation)"
    )
    results.add_argument(
        "dir", help="a result-store directory, or a directory of stores"
    )
    results.add_argument(
        "--tables",
        action="store_true",
        help="rebuild Tables 4-5 and the location summary from the journal",
    )
    results.add_argument(
        "--verdict",
        metavar="VERDICT",
        help="list probe ids whose journaled verdict matches "
        "(e.g. cpe, within-isp, not-intercepted)",
    )
    results.set_defaults(handler=cmd_results)

    scenarios = subparsers.add_parser(
        "scenarios", help="browse the scenario catalog"
    )
    scenarios_sub = scenarios.add_subparsers(
        dest="scenarios_action", required=True
    )
    scenarios_list = scenarios_sub.add_parser("list", help="list the catalog")
    scenarios_list.add_argument(
        "--dir", default="scenarios", help="catalog directory (default: scenarios)"
    )
    scenarios_show = scenarios_sub.add_parser(
        "show", help="print one scenario's resolved summary as JSON"
    )
    scenarios_show.add_argument("name", help="scenario name from the catalog")
    scenarios_show.add_argument(
        "--dir", default="scenarios", help="catalog directory (default: scenarios)"
    )
    scenarios.set_defaults(handler=cmd_scenarios)

    campaign = subparsers.add_parser(
        "campaign", help="longitudinal campaigns over a time-varying fleet"
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_action", required=True)
    campaign_run = campaign_sub.add_parser(
        "run", help="run a catalog scenario into a longitudinal store"
    )
    campaign_run.add_argument(
        "--scenario", required=True, help="scenario name from the catalog"
    )
    campaign_run.add_argument(
        "--dir", default="scenarios", help="catalog directory (default: scenarios)"
    )
    campaign_run.add_argument(
        "--store", required=True, metavar="DIR", help="store directory to journal into"
    )
    campaign_run.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes (journal bytes are identical for any N)",
    )
    campaign_run.add_argument(
        "--resume", action="store_true",
        help="continue an interrupted campaign in --store",
    )
    campaign_run.add_argument(
        "--probe-budget", type=int, default=None, metavar="N",
        help="journal at most N new probes, then exit 3 (resumable)",
    )
    for action, help_text in (
        ("tables", "print per-epoch aggregation tables from a store"),
        ("trend", "print the cross-epoch trend document from a store"),
    ):
        sub = campaign_sub.add_parser(action, help=help_text)
        sub.add_argument("store", help="a longitudinal store directory")
        if action == "tables":
            sub.add_argument(
                "--epoch", type=int, default=None, metavar="N",
                help="print only epoch N's table",
            )
        sub.add_argument(
            "--json", metavar="PATH", help="write the JSON here instead of stdout"
        )
    campaign.set_defaults(handler=cmd_campaign)

    serve = subparsers.add_parser(
        "serve", help="serve a result store read-only over HTTP"
    )
    serve.add_argument("store", help="the store directory to serve")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8737)
    serve.set_defaults(handler=cmd_serve)

    fuzz = subparsers.add_parser(
        "fuzz", help="differential fuzz of the DNS wire codec"
    )
    fuzz.add_argument(
        "--seed", type=int, default=0, help="case-sequence seed (deterministic)"
    )
    fuzz.add_argument(
        "--iterations", type=int, default=2000, metavar="N",
        help="structure-aware cases to generate (each spawns ~4 mutants)",
    )
    fuzz.add_argument(
        "--corpus",
        default="tests/dnswire/corpus",
        metavar="DIR",
        help="crasher corpus replayed before fuzzing (missing dir = skip)",
    )
    fuzz.add_argument(
        "--write-crashers",
        action="store_true",
        help="save minimised crashers as new corpus entries",
    )
    fuzz.set_defaults(handler=cmd_fuzz)

    case = subparsers.add_parser("case-study", help="the §5 XB6 walk-through")
    case.add_argument("--probe-id", type=int, default=5150)
    case.set_defaults(handler=cmd_case_study)

    ttl = subparsers.add_parser("ttl", help="the §6 TTL-probing extension")
    _add_household_arguments(ttl)
    ttl.add_argument(
        "--full-sweep", action="store_true", help="continue past the first answer"
    )
    ttl.set_defaults(handler=cmd_ttl)

    dot = subparsers.add_parser(
        "dot", help="the §6 encrypted-transport privacy-profile matrix"
    )
    _add_household_arguments(dot)
    dot.add_argument(
        "--transport",
        choices=("dot", "doh", "doq"),
        default="dot",
        help="encrypted transport to probe over (default: dot)",
    )
    dot.set_defaults(handler=cmd_dot)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
