"""Golden test for the hypercube verifiers: every report must reproduce the
stored ``repr`` exactly (see ``make_verifier_reference.py``)."""

import json

import pytest

from make_verifier_reference import PATH, cases

REFERENCE = json.loads(PATH.read_text(encoding="utf-8"))
CASES = dict(cases())


def test_reference_covers_every_case():
    assert set(REFERENCE) == set(CASES)


@pytest.mark.parametrize("key", sorted(CASES))
def test_report_repr_matches_reference(key):
    assert repr(CASES[key]()) == REFERENCE[key]
