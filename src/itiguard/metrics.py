"""Corpus-level statistics over validation reports.

A corpus manifest names each file's model tag and city count, and
load_manifest is the one place that checks them. A validated file is an
(entry, report) pair; aggregate() folds the pairs into per-(model, cities)
rows: the share of itineraries with at least one issue, the share of
invalid segments, and the mean issue count. Segments whose route data could
not be resolved are excluded from the segment percentage on both sides of
the division.

"Invalid segments" counts transit-kind issues only (overlap, too short, too
long). Stay violations sit on stops, not segments; pass include_stays=True
to fold them in, which widens the denominator to stays + transits.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from pathlib import Path
from typing import NamedTuple

from .model import _SURROGATE_RE, _new_tuple, load_json, read_file, shorten
from .validation import SEGMENT_ISSUE_KINDS, IssueKind, ValidationReport

TABLE_HEADERS = ("Model", "Cities", "Invalid Itin.", "Invalid Seg.", "Avg Issues/Itn.")


class CorpusStats(NamedTuple):
    """Aggregate row for one (model_tag, num_cities) group."""

    model_tag: str
    num_cities: int
    total: int
    invalid_itineraries_pct: float
    invalid_segments_pct: float
    avg_issues_per_itinerary: float
    issue_count: int
    segment_issue_count: int
    unverifiable_count: int


class ManifestEntry(NamedTuple):
    """One corpus file: where it is and which group it belongs to."""

    file: str
    model_tag: str
    num_cities: int


def load_manifest(path: str | Path) -> list[ManifestEntry]:
    """Read a corpus manifest: a JSON array of {file, model_tag, num_cities},
    with num_cities a JSON integer of at least 1 and a model_tag that UTF-8
    can encode, since the reports print it."""
    raw = load_json(read_file(path))
    if not isinstance(raw, list):
        raise ValueError(f"manifest must be a JSON array, got {type(raw).__name__}")
    entries = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict):
            raise ValueError(f"manifest entry {i} is not an object")
        try:
            file, model_tag, num_cities = item["file"], item["model_tag"], item["num_cities"]
        except KeyError as err:
            raise ValueError(f"manifest entry {i} is missing key {err}") from None
        if isinstance(num_cities, bool) or not isinstance(num_cities, int):
            raise ValueError(f"manifest entry {i} has a num_cities that is not a whole number")
        if num_cities < 1:
            raise ValueError(f"manifest entry {i} has a num_cities below 1")
        if not isinstance(file, str) or not isinstance(model_tag, str):
            raise ValueError(f"manifest entry {i} needs strings for file and model_tag")
        # isascii first: an ASCII tag holds no surrogate, and it is the cheaper test.
        if not model_tag.isascii() and _SURROGATE_RE.search(model_tag):
            raise ValueError(f"manifest entry {i} has a model_tag that UTF-8 cannot encode")
        entries.append(_new_tuple(ManifestEntry, (file, model_tag, num_cities)))
    return entries


_SEGMENT_AND_STAY_KINDS = SEGMENT_ISSUE_KINDS | {IssueKind.STAY_TOO_SHORT}


def _stats_for_group(
    model_tag: str, num_cities: int, reports: list[ValidationReport], include_stays: bool
) -> CorpusStats:
    countable = _SEGMENT_AND_STAY_KINDS if include_stays else SEGMENT_ISSUE_KINDS
    total = len(reports)
    issue_total = 0
    segment_issue_total = 0
    invalid_itineraries = 0
    unverifiable_total = 0
    for report in reports:
        issues = report.issues
        if issues:
            invalid_itineraries += 1
            issue_total += len(issues)
            for issue in issues:
                if issue.kind in countable:
                    segment_issue_total += 1
        unverifiable_total += len(report.unverifiable_segments)
    slots_per_itinerary = num_cities - 1
    if include_stays:
        slots_per_itinerary += num_cities
    denominator = total * slots_per_itinerary - unverifiable_total
    segments_pct = 100.0 * segment_issue_total / denominator if denominator > 0 else 0.0
    return CorpusStats(
        model_tag=model_tag,
        num_cities=num_cities,
        total=total,
        invalid_itineraries_pct=100.0 * invalid_itineraries / total,
        invalid_segments_pct=segments_pct,
        avg_issues_per_itinerary=issue_total / total,
        issue_count=issue_total,
        segment_issue_count=segment_issue_total,
        unverifiable_count=unverifiable_total,
    )


def aggregate(
    records: list[tuple[ManifestEntry, ValidationReport]], *, include_stays: bool = False
) -> list[CorpusStats]:
    """Fold (entry, report) pairs into one CorpusStats per (model_tag,
    num_cities) group.

    Groups come back sorted by tag then city count; no records give no
    groups.
    """
    groups: dict[tuple[str, int], list[ValidationReport]] = {}
    for entry, report in records:
        groups.setdefault((entry.model_tag, entry.num_cities), []).append(report)
    return [
        _stats_for_group(tag, cities, reports, include_stays)
        for (tag, cities), reports in sorted(groups.items())
    ]


def _stat_cells(stats: CorpusStats, percent: str) -> tuple[str, ...]:
    return (
        stats.model_tag,
        str(stats.num_cities),
        f"{stats.invalid_itineraries_pct:.2f}{percent}",
        f"{stats.invalid_segments_pct:.2f}{percent}",
        f"{stats.avg_issues_per_itinerary:.2f}",
    )


def render_stats(stats: list[CorpusStats], format: str = "table") -> str:
    """Render rows as an aligned text table or CSV.

    CSV carries the same numbers without the % sign so it reparses cleanly.
    """
    if format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(TABLE_HEADERS)
        writer.writerows(_stat_cells(row, "") for row in stats)
        return buffer.getvalue()
    if format != "table":
        raise ValueError(f"unknown format {shorten(repr(format))}, expected 'table' or 'csv'")
    rows = [TABLE_HEADERS] + [_stat_cells(s, "%") for s in stats]
    widths = [max(len(row[col]) for row in rows) for col in range(len(TABLE_HEADERS))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines) + "\n"


def failure_mode_breakdown(
    records: list[tuple[ManifestEntry, ValidationReport]],
) -> dict[str, Counter]:
    """Tally issue kinds per model tag over (entry, report) pairs;
    distinguishes under- from over-estimation of travel time across a
    corpus."""
    breakdown: dict[str, Counter] = {}
    for entry, report in records:
        counter = breakdown.get(entry.model_tag)
        if counter is None:
            counter = breakdown[entry.model_tag] = Counter()
        for issue in report.issues:
            counter[issue.kind] += 1
    return breakdown
