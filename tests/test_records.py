"""The result records are NamedTuples: immutable, hashable when their fields
are, built by keyword, in their declared field order."""

import pickle

import pytest

from foursq import (Certificate, ConicPoint, PellNumber, SearchResult,
                    SearchStats, TripleCandidate, VerifyOutcome, make_main,
                    verify_four)
from foursq.symbolic import IdentityReport, IdentityResult

CERT = dict(r_ab=2, r_ac=3, r_bc=5, r_abc=5)  # {1, 3, 8}
STATS = dict(pairs_scanned=1, candidates_tested=2, elapsed=0.5)
ITEM = dict(name="I1", description="a*b + 1 = r^2", passed=True,
            residual=None, note="")

# each type with keyword arguments in its field order
RECORDS = [
    (Certificate, CERT),
    (VerifyOutcome, dict(ok=True, certificate=Certificate(**CERT),
                         first_failure=None, failing_value=None)),
    (ConicPoint, dict(x=4, y=1)),
    (PellNumber, dict(u=2, v=1)),
    (TripleCandidate, dict(n=0, variant="main", x=1, y=0, a=5, r=6, b=7,
                           c=24, s=29, admissible=True)),
    (SearchStats, STATS),
    (SearchResult, dict(bound=24, triples=((5, 7, 24, Certificate(6, 11, 13,
                                                                  29)),),
                        stats=SearchStats(**STATS))),
    (IdentityResult, ITEM),
    (IdentityReport, dict(items=(IdentityResult(**ITEM),))),
]


@pytest.mark.parametrize("cls,fields", RECORDS,
                         ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_is_an_immutable_hashable_keyword_tuple(cls, fields):
    record = cls(**fields)
    assert cls._fields == tuple(fields)
    assert record == tuple(fields.values())
    assert record == cls(*fields.values())
    assert hash(record) == hash(cls(**fields))
    assert pickle.loads(pickle.dumps(record)) == record
    first = cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, getattr(record, first))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_records_built_by_the_library_match_their_keyword_form():
    assert verify_four(1, 3, 8) == VerifyOutcome(
        ok=True, certificate=Certificate(**CERT), first_failure=None,
        failing_value=None)
    assert make_main(0) == TripleCandidate(**RECORDS[4][1])


def test_identity_result_note_defaults_to_empty():
    fields = {k: v for k, v in ITEM.items() if k != "note"}
    assert IdentityResult(**fields).note == ""


def test_identity_report_looks_up_items_by_name():
    item = IdentityResult(**ITEM)
    report = IdentityReport(items=(item,))
    assert report["I1"] is item
    with pytest.raises(KeyError):
        report["I2"]
    assert (report.core_total, report.core_passed, report.core_ok) == (
        1, 1, True)


def test_conic_point_checks_every_route_to_a_point():
    with pytest.raises(ValueError, match="not on"):
        ConicPoint(2, 1)
    with pytest.raises(ValueError, match="not on"):
        ConicPoint(x=2, y=1)
    pt = ConicPoint(4, 1)
    with pytest.raises(ValueError, match="not on"):
        pt._replace(x=2)
    with pytest.raises(ValueError, match="not on"):
        ConicPoint._make((2, 1))
    assert pt._replace(x=0, y=-1) == (0, -1)
    assert type(pt._replace(x=0, y=-1)) is ConicPoint
