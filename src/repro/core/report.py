"""Narrative diagnostic reports: the pipeline's reasoning, in prose.

Turns a :class:`~repro.core.classifier.ProbeClassification` into the
step-by-step story a network operator (or a curious home user) would
want: what was asked, what came back, what that implies — mirroring how
§3.4 of the paper walks through its example probes.
"""

from __future__ import annotations

from repro.core.classifier import LocatorVerdict, ProbeClassification
from repro.core.detector import InterceptionStatus


def _step1_lines(classification: ProbeClassification) -> list[str]:
    lines = ["Step 1 — location queries:"]
    for (provider, family), verdict in sorted(
        classification.detection.verdicts.items(),
        key=lambda item: (item[0][1], item[0][0].value),
    ):
        observations = ", ".join(
            f"{probe.address} -> {probe.observed_text()}" for probe in verdict.probes
        )
        marker = {
            InterceptionStatus.INTERCEPTED: "INTERCEPTED",
            InterceptionStatus.NOT_INTERCEPTED: "ok",
            InterceptionStatus.NO_RESPONSE: "no response",
        }[verdict.status]
        lines.append(f"  IPv{family} {provider.value:<15} [{marker:^12}] {observations}")
    return lines


def _step2_lines(classification: ProbeClassification) -> list[str]:
    check = classification.cpe_check
    if check is None:
        return ["Step 2 — skipped (nothing intercepted or no public address)."]
    lines = ["Step 2 — version.bind comparison:"]
    for label, text in check.summary_rows():
        lines.append(f"  {label:<15} {text}")
    if check.cpe_is_interceptor:
        lines.append(
            f"  => identical strings ({check.cpe_version!r}): the CPE is the interceptor."
        )
    elif check.cpe_version is not None:
        lines.append(
            "  => the CPE answers version.bind but the strings differ: "
            "it serves DNS yet does not intercept."
        )
    else:
        lines.append("  => the CPE yielded no version string: not implicated.")
    return lines


def _step3_lines(classification: ProbeClassification) -> list[str]:
    check = classification.isp_check
    if check is None:
        return ["Step 3 — skipped (Step 2 already located the interceptor)."]
    lines = ["Step 3 — bogon queries:"]
    for probe in check.probes:
        outcome = probe.observed_text() if probe.answered else "timeout"
        lines.append(f"  {probe.kind:<13} to {probe.destination}: {outcome}")
    if check.within_isp:
        lines.append(
            "  => an unroutable destination was answered: the interceptor "
            "sits inside the ISP."
        )
    else:
        lines.append(
            "  => no answer: the interceptor is beyond the ISP, or it "
            "discards bogon-destined queries (undetermined)."
        )
    return lines


def _transparency_lines(classification: ProbeClassification) -> list[str]:
    result = classification.transparency
    if result is None or not result.observations:
        return []
    lines = ["Transparency — whoami.akamai.com:"]
    for obs in result.observations:
        answer = obs.answer_address or "error/timeout"
        suffix = " (non-target egress: interception confirmed)" if (
            obs.confirms_interception
        ) else ""
        lines.append(f"  via {obs.provider.value:<15} -> {answer}{suffix}")
    lines.append(f"  => classification: {result.classification.value}")
    return lines


_VERDICT_SUMMARY = {
    LocatorVerdict.NOT_INTERCEPTED: "No interception observed on this path.",
    LocatorVerdict.CPE: (
        "This household's own gateway (CPE) intercepts DNS: every query to "
        "a public resolver is answered by the router's embedded forwarder."
    ),
    LocatorVerdict.WITHIN_ISP: (
        "DNS queries are intercepted inside the ISP, before they leave the "
        "provider's network."
    ),
    LocatorVerdict.UNKNOWN: (
        "DNS queries are intercepted, but the interceptor could not be "
        "localised: it is beyond the ISP, or it ignores unroutable "
        "destinations."
    ),
    LocatorVerdict.NO_DATA: "No measurement produced a usable response.",
}


def render_diagnosis(classification: ProbeClassification) -> str:
    """The full narrative report."""
    lines: list[str] = []
    lines.extend(_step1_lines(classification))
    lines.append("")
    lines.extend(_step2_lines(classification))
    lines.append("")
    lines.extend(_step3_lines(classification))
    transparency = _transparency_lines(classification)
    if transparency:
        lines.append("")
        lines.extend(transparency)
    lines.append("")
    lines.append(f"Verdict: {classification.verdict.value}")
    lines.append(_VERDICT_SUMMARY[classification.verdict])
    return "\n".join(lines)
