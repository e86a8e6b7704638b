from __future__ import annotations

import csv
import io
import json
import random

import pytest

from itiguard.metrics import (
    TABLE_HEADERS,
    ManifestEntry,
    aggregate,
    failure_mode_breakdown,
    load_manifest,
    render_stats,
)
from itiguard.validation import Issue, IssueKind, ValidationReport, validate

SEGMENT_KINDS = (IssueKind.OVERLAP, IssueKind.TRANSIT_TOO_SHORT, IssueKind.TRANSIT_TOO_LONG)


def report(
    segment_issues: int = 0,
    stay_issues: int = 0,
    unverifiable: int = 0,
    route_unavailable: int = 0,
) -> ValidationReport:
    """Synthetic report with the requested issue counts; indexes are arbitrary."""
    issues = []
    for i in range(segment_issues):
        issues.append(Issue(SEGMENT_KINDS[i % 3], i, observed=0, required=300))
    for i in range(stay_issues):
        issues.append(Issue(IssueKind.STAY_TOO_SHORT, i, observed=0, required=2880))
    marks = list(range(unverifiable))
    for i in range(route_unavailable):
        issues.append(Issue(IssueKind.ROUTE_DATA_UNAVAILABLE, i))
        if i not in marks:
            marks.append(i)
    return ValidationReport(issues=tuple(issues), unverifiable_segments=tuple(marks))


def records(
    model: str, cities: int, reports: list[ValidationReport]
) -> list[tuple[ManifestEntry, ValidationReport]]:
    return [(ManifestEntry(f"{model}-{i}.json", model, cities), r) for i, r in enumerate(reports)]


class TestAggregate:
    def test_small_group_arithmetic(self):
        # 4 itineraries of 4 cities: 3 segment slots each, 12 total.
        reports = [report(segment_issues=2), report(segment_issues=1), report(), report()]
        (row,) = aggregate(records("m", 4, reports))
        assert row.total == 4
        assert row.invalid_itineraries_pct == pytest.approx(50.0)
        assert row.invalid_segments_pct == pytest.approx(100.0 * 3 / 12)
        assert row.avg_issues_per_itinerary == pytest.approx(0.75)
        assert row.issue_count == 3
        assert row.segment_issue_count == 3
        assert row.unverifiable_count == 0

    def test_all_valid(self):
        (row,) = aggregate(records("m", 4, [report() for _ in range(10)]))
        assert row.invalid_itineraries_pct == 0.0
        assert row.invalid_segments_pct == 0.0
        assert row.avg_issues_per_itinerary == 0.0

    def test_empty_raises(self):
        assert aggregate([]) == []

    def test_groups_sorted_by_tag_then_cities(self):
        rows = aggregate(
            records("beta", 4, [report()])
            + records("alpha", 6, [report()])
            + records("alpha", 4, [report()])
        )
        assert [(r.model_tag, r.num_cities) for r in rows] == [
            ("alpha", 4),
            ("alpha", 6),
            ("beta", 4),
        ]

    def test_unverifiable_segments_shrink_denominator(self):
        # 2 itineraries x 3 slots = 6, minus 2 unverifiable = 4.
        reports = [report(segment_issues=1, unverifiable=2), report()]
        (row,) = aggregate(records("m", 4, reports))
        assert row.invalid_segments_pct == pytest.approx(25.0)
        assert row.unverifiable_count == 2

    def test_all_slots_unverifiable_gives_zero(self):
        (row,) = aggregate(records("m", 2, [report(unverifiable=1)]))
        assert row.invalid_segments_pct == 0.0

    def test_every_leg_of_a_group_unverifiable_gives_zero(self):
        # 2 itineraries x 3 legs, all 6 unverifiable: an empty denominator.
        (row,) = aggregate(records("m", 4, [report(unverifiable=3), report(unverifiable=3)]))
        assert row.invalid_segments_pct == 0.0
        assert row.unverifiable_count == 6

    def test_one_verifiable_slot_is_a_whole_denominator(self):
        (row,) = aggregate(records("m", 2, [report(segment_issues=1)]))
        assert row.invalid_segments_pct == 100.0

    def test_stays_excluded_from_segment_pct_by_default(self):
        reports = [report(stay_issues=2)]
        (row,) = aggregate(records("m", 4, reports))
        assert row.segment_issue_count == 0
        assert row.invalid_segments_pct == 0.0
        # But the itinerary is still invalid and the issues still average in.
        assert row.invalid_itineraries_pct == 100.0
        assert row.avg_issues_per_itinerary == 2.0

    def test_include_stays_widens_slots(self):
        # 4 cities: 3 transit slots + 4 stay slots = 7.
        reports = [report(segment_issues=1, stay_issues=1)]
        (row,) = aggregate(records("m", 4, reports), include_stays=True)
        assert row.segment_issue_count == 2
        assert row.invalid_segments_pct == pytest.approx(100.0 * 2 / 7)

    def test_reference_sample_counts(self, sample_invalid, demo_provider):
        # One stay issue and two transit issues: three issues, two invalid segments.
        (row,) = aggregate(records("m", 4, [validate(sample_invalid, demo_provider)]))
        assert (row.issue_count, row.segment_issue_count) == (3, 2)

    def test_route_unavailable_counts_as_issue_not_segment(self):
        (row,) = aggregate(records("m", 4, [report(route_unavailable=1)]))
        assert row.invalid_itineraries_pct == 100.0
        assert row.avg_issues_per_itinerary == 1.0
        assert row.segment_issue_count == 0
        # The slot leaves the denominator too: 3 - 1 = 2 verifiable slots.
        assert row.unverifiable_count == 1

    def test_model_level_arithmetic(self):
        # Mirrors the bundled corpus shape in miniature: counts of
        # itineraries with 2, 1, and 0 bad segments.
        reports = (
            [report(segment_issues=2) for _ in range(3)]
            + [report(segment_issues=1) for _ in range(5)]
            + [report() for _ in range(12)]
        )
        (row,) = aggregate(records("m", 4, reports))
        assert row.invalid_itineraries_pct == pytest.approx(100.0 * 8 / 20)
        assert row.invalid_segments_pct == pytest.approx(100.0 * 11 / 60)
        assert row.avg_issues_per_itinerary == pytest.approx(11 / 20)

    def test_counts_are_additive_across_groups(self):
        rng = random.Random(7)
        recs = []
        for _ in range(200):
            recs += records(
                rng.choice(["a", "b"]),
                rng.choice([4, 6]),
                [
                    report(
                        segment_issues=rng.randint(0, 3),
                        stay_issues=rng.randint(0, 2),
                        unverifiable=rng.randint(0, 1),
                    )
                ],
            )
        rows = aggregate(recs)
        assert sum(r.total for r in rows) == 200
        assert sum(r.issue_count for r in rows) == sum(len(rep.issues) for _, rep in recs)
        assert sum(r.unverifiable_count for r in rows) == sum(
            len(rep.unverifiable_segments) for _, rep in recs
        )


class TestRender:
    def rows(self):
        reports = [report(segment_issues=1), report()] + [report() for _ in range(2)]
        return aggregate(records("model-a", 4, reports))

    def test_table(self):
        text = render_stats(self.rows())
        lines = text.splitlines()
        assert lines[0].split() == ["Model", "Cities", "Invalid", "Itin.", "Invalid", "Seg.", "Avg", "Issues/Itn."]
        assert set(lines[1]) <= {"-", " "}
        assert "25.00%" in lines[2]
        assert "8.33%" in lines[2]
        assert text.endswith("\n")

    def test_empty_table_is_header_only(self):
        text = render_stats([])
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("Model")

    def test_csv_round_trip(self):
        text = render_stats(self.rows(), format="csv")
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0] == list(TABLE_HEADERS)
        assert parsed[1] == ["model-a", "4", "25.00", "8.33", "0.25"]

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown format"):
            render_stats([], format="yaml")


class TestBreakdown:
    def test_tallies_by_model(self):
        recs = records("a", 4, [report(segment_issues=2, stay_issues=1)]) + records(
            "b", 4, [report(segment_issues=1)]
        )
        breakdown = failure_mode_breakdown(recs)
        assert breakdown["a"][IssueKind.OVERLAP] == 1
        assert breakdown["a"][IssueKind.TRANSIT_TOO_SHORT] == 1
        assert breakdown["a"][IssueKind.STAY_TOO_SHORT] == 1
        assert breakdown["b"][IssueKind.OVERLAP] == 1
        assert sum(breakdown["a"].values()) == 3

    def test_recount_matches_flat_scan(self):
        rng = random.Random(11)
        recs = [
            record
            for _ in range(150)
            for record in records(
                rng.choice(["a", "b", "c"]),
                4,
                [report(segment_issues=rng.randint(0, 4), stay_issues=rng.randint(0, 2))],
            )
        ]
        breakdown = failure_mode_breakdown(recs)
        total = sum(sum(counter.values()) for counter in breakdown.values())
        assert total == sum(len(rep.issues) for _, rep in recs)

    def test_no_records(self):
        assert failure_mode_breakdown([]) == {}


class TestManifest:
    def test_load(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(
            json.dumps(
                [
                    {"file": "a.json", "model_tag": "m", "num_cities": 4},
                    {"file": "b.json", "model_tag": "m", "num_cities": 6},
                ]
            )
        )
        entries = load_manifest(path)
        assert [e.file for e in entries] == ["a.json", "b.json"]
        assert entries[1].num_cities == 6

    def test_one_city_accepted(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('[{"file": "a.json", "model_tag": "m", "num_cities": 1}]')
        assert load_manifest(path)[0].num_cities == 1

    def test_not_an_array(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="JSON array"):
            load_manifest(path)

    def test_entry_not_an_object(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('["a.json"]')
        with pytest.raises(ValueError, match="entry 0"):
            load_manifest(path)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('[{"file": "a.json", "model_tag": "m"}]')
        with pytest.raises(ValueError, match="missing key"):
            load_manifest(path)

    @pytest.mark.parametrize(
        "entry",
        [
            '{"file": "a.json", "model_tag": "m", "num_cities": null}',
            '{"file": "a.json", "model_tag": "m", "num_cities": Infinity}',
            '{"file": "a.json", "model_tag": 1, "num_cities": 4}',
            '{"file": ["a.json"], "model_tag": "m", "num_cities": 4}',
        ],
        ids=["cities-null", "cities-infinity", "tag-number", "file-list"],
    )
    def test_wrong_value_type(self, tmp_path, entry):
        path = tmp_path / "manifest.json"
        path.write_text(f"[{entry}]")
        with pytest.raises(ValueError, match="manifest entry 0"):
            load_manifest(path)
