"""JSON round-trips for the result types something decodes again.

Diagnoses come back out of the schedule cache (``ScheduleCache.get``), so
``to_dict`` -> JSON -> ``from_dict`` must be lossless for them; stage
rows and conformance reports are only ever encoded, so for them the
contract is that the encoding is JSON-safe.
"""

from __future__ import annotations

import json

from repro.diagnose.certificates import Diagnosis, Refutation
from repro.trace.export import stage_rows
from repro.trace.tracer import TraceRecorder


def through_json(payload: dict) -> dict:
    return json.loads(json.dumps(payload, sort_keys=True))


def test_profile_exotic_detail_values_are_json_safe():
    rec = TraceRecorder()
    with rec.stage("x", set={3, 1, 2}, obj=object(), none=None):
        pass
    detail = through_json({"stages": stage_rows(rec.events)})["stages"][0][
        "detail"
    ]
    assert detail["set"] == [1, 2, 3]
    assert isinstance(detail["obj"], str)  # repr fallback
    assert detail["none"] is None


def test_refutation_json_round_trip():
    refutation = Refutation(
        kind="link-overload",
        detail="forced link saturated",
        messages=("M1", "M2"),
        links=((3, 7),),
        window=(0.0, 12.0),
        demand=14.0,
        capacity=12.0,
    )
    back = Refutation.from_dict(through_json(refutation.to_dict()))
    assert back == refutation


def test_diagnosis_json_round_trip():
    diagnosis = Diagnosis(
        tau_in=16.0,
        refutations=(
            Refutation(kind="period", detail="tau_in below tau_c",
                       demand=20.0, capacity=16.0),
            Refutation(kind="lp-farkas", detail="assignment LP infeasible",
                       scope="assignment"),
        ),
        checks=("window", "link-overload"),
        elapsed_ms=3.25,
    )
    back = Diagnosis.from_dict(through_json(diagnosis.to_dict()))
    assert back == diagnosis
    assert back.refuted  # instance-scoped certificate survived
    assert back.to_dict() == diagnosis.to_dict()
