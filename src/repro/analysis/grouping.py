"""Grouping rules shared by the tables and figures.

Table 5 groups ``version.bind`` strings into wildcard families
(``dnsmasq-*``, ``*-RedHat``, ...); the figures group probes by
organization and country, ranked by interception counts.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from repro.core.study import ProbeRecord


def version_string_family(version: str) -> str:
    """Map a version.bind string to its Table-5 wildcard family."""
    if version.startswith("dnsmasq-pi-hole"):
        return "dnsmasq-pi-hole-*"
    if version.startswith("dnsmasq"):
        return "dnsmasq-*"
    if version.startswith("unbound"):
        return "unbound*"
    if "-RedHat" in version:
        return "*-RedHat"
    if version.startswith("PowerDNS Recursor"):
        return "PowerDNS Recursor*"
    if version.startswith("Q9-"):
        return "Q9-*"
    if "-Debian" in version:
        return "*-Debian"
    return version


def count_version_families(records: Iterable[ProbeRecord]) -> Counter:
    """Table 5: version.bind family -> number of CPE-intercepted probes."""
    counter: Counter = Counter()
    for record in records:
        if record.cpe_version_string is not None:
            counter[version_string_family(record.cpe_version_string)] += 1
    return counter


def top_groups(
    records: Iterable[ProbeRecord],
    key: str,  # "organization" or "country"
    limit: int = 15,
    predicate=None,
) -> list[tuple[str, list[ProbeRecord]]]:
    """The ``limit`` groups with the most matching records, descending."""
    groups: dict[str, list[ProbeRecord]] = {}
    for record in records:
        if predicate is not None and not predicate(record):
            continue
        groups.setdefault(getattr(record, key), []).append(record)
    ranked = sorted(groups.items(), key=lambda item: (-len(item[1]), item[0]))
    return ranked[:limit]
