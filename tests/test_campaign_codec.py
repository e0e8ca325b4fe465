"""The campaign registry's one outcome codec, generatively.

For each kind that declares an outcome type (chaos, zoo, heal, verify),
hypothesis draws outcomes and checks that a journal round trip —
``decode(json.loads(json.dumps(encode(o))))`` — rebuilds the outcome
exactly and re-encodes to the same JSON bytes: tuples (empty ones
too), ±inf floats, nested counterexamples and ``obs`` as ``None`` or a
dict.  Payloads written before a defaulted field existed decode with
that field's default.
"""

import dataclasses
import json
import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.experiments.e13_algorithm_zoo import ZooCellOutcome
from repro.experiments.e14_resilience import HealCellOutcome
from repro.experiments.grid import get_campaign
from repro.faults.campaign import FaultRunOutcome
from repro.verify.report import Counterexample, VerifyCellOutcome

text = st.text(max_size=8)
ints = st.integers()
# NaN never equals itself, so it could not round-trip to an equal
# outcome; every other float can, infinities included.
floats = st.floats(allow_nan=False) | st.sampled_from([math.inf, -math.inf])


def tuples(elements):
    return st.lists(elements, max_size=3).map(tuple)


json_values = st.recursive(
    st.none() | st.booleans() | ints | floats | text,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(text, children, max_size=3),
    max_leaves=8,
)
obs = st.none() | st.dictionaries(text, json_values, max_size=3)

#: Outcomes per kind.  Fields left out are drawn from their annotations
#: (strings, ints, bools and tuples of those).
OUTCOMES = {
    "chaos": st.builds(
        FaultRunOutcome,
        distance=floats,
        respawn_denied=ints,
        crash_tally=tuples(st.tuples(ints, ints)),
        obs=obs,
    ),
    "zoo": st.builds(
        ZooCellOutcome,
        distance=floats,
        tau_avg=floats,
        tau_histogram=tuples(st.tuples(st.just("+Inf") | ints, ints)),
        extras=tuples(st.tuples(text, floats)),
        curve=tuples(floats),
        obs=obs,
    ),
    "heal": st.builds(HealCellOutcome, distance=floats, final_step_size=floats),
    "verify": st.builds(
        VerifyCellOutcome,
        reduction_factor=floats,
        counterexamples=tuples(
            st.builds(
                Counterexample,
                schedule=tuples(ints),
                findings=tuples(text),
                replay_ok=st.booleans(),
            )
        ),
    ),
}


def _journal_round_trip(campaign, outcome):
    """The payload as a journal line stores it, decoded again."""
    return campaign.decode(json.loads(json.dumps(campaign.encode(outcome))))


def _encoded_bytes(campaign, outcome):
    return json.dumps(campaign.encode(outcome), sort_keys=True)


@pytest.mark.parametrize("kind", sorted(OUTCOMES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_outcomes_survive_the_journal_round_trip(kind, data):
    campaign = get_campaign(kind)
    outcome = data.draw(OUTCOMES[kind])
    rebuilt = _journal_round_trip(campaign, outcome)
    assert rebuilt == outcome
    assert type(rebuilt) is campaign.outcome_type
    assert _encoded_bytes(campaign, rebuilt) == _encoded_bytes(
        campaign, outcome
    )


#: Every defaulted outcome field: older journals may lack it.
DEFAULTED = [
    (kind, field.name)
    for kind in sorted(OUTCOMES)
    for field in dataclasses.fields(get_campaign(kind).outcome_type)
    if field.default is not dataclasses.MISSING
    or field.default_factory is not dataclasses.MISSING
]


def test_defaulted_fields_are_the_lineage_and_obs_fields():
    assert DEFAULTED == [
        ("chaos", "respawn_denied"),
        ("chaos", "crash_tally"),
        ("chaos", "obs"),
        ("zoo", "obs"),
    ]


@pytest.mark.parametrize("kind, name", DEFAULTED)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_a_missing_defaulted_field_decodes_to_its_default(kind, name, data):
    campaign = get_campaign(kind)
    outcome = data.draw(OUTCOMES[kind])
    payload = json.loads(json.dumps(campaign.encode(outcome)))
    del payload[name]
    default = dataclasses.replace(outcome, **{name: _default(outcome, name)})
    assert campaign.decode(payload) == default


@settings(max_examples=30, deadline=None)
@given(outcome=OUTCOMES["chaos"])
def test_a_pre_lineage_chaos_payload_decodes(outcome):
    """A chaos payload from before ``respawn_denied``, ``crash_tally``
    and ``obs`` existed."""
    chaos = get_campaign("chaos")
    payload = json.loads(json.dumps(chaos.encode(outcome)))
    for name in ("respawn_denied", "crash_tally", "obs"):
        del payload[name]
    rebuilt = chaos.decode(payload)
    assert rebuilt == dataclasses.replace(
        outcome, respawn_denied=0, crash_tally=(), obs=None
    )


def _default(outcome, name):
    field = {f.name: f for f in dataclasses.fields(outcome)}[name]
    if field.default_factory is not dataclasses.MISSING:
        return field.default_factory()
    return field.default
