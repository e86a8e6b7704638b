"""Pins what validate() and correct() produce on a large seeded corpus.

The digest below was recorded before the check and repair paths moved to
int minutes; any rewrite of those paths must reproduce the same reports,
corrected documents and traces byte for byte. The corpus includes legs
between identical airports and routes missing from the provider table,
and runs under the default policy and under one whose multiplier makes
int(t_min * multiplier) truncate.
"""

from __future__ import annotations

import hashlib
import json
import random

from itiguard.correction import correct
from itiguard.durations import FixtureProvider
from itiguard.model import render_itinerary
from itiguard.validation import ValidationPolicy, validate
from support import random_broken_itinerary

ITINERARIES = 3000
POLICIES = (
    ValidationPolicy(),
    ValidationPolicy(min_stay_minutes=20 * 60, buffer_minutes=95, max_multiplier=1.37),
)
EXPECTED_SHA256 = "cc088608e1d81fb26bb3e3a09b2155ef721704572dbcb9b787664a4117caa7fa"


def corpus_digest() -> str:
    rng = random.Random(20251018)
    digest = hashlib.sha256()
    for n in range(ITINERARIES):
        itin, table = random_broken_itinerary(rng)
        provider = FixtureProvider(table)
        policy = POLICIES[n % len(POLICIES)]
        report = validate(itin, provider, policy)
        fixed, trace = correct(itin, provider, policy)
        digest.update(json.dumps(report.to_dict(), sort_keys=True).encode())
        digest.update(render_itinerary(fixed).encode())
        digest.update(json.dumps(trace.to_dict(), sort_keys=True).encode())
    return digest.hexdigest()


def test_reports_outputs_and_traces_unchanged():
    assert corpus_digest() == EXPECTED_SHA256
