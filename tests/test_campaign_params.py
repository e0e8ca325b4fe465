"""A CLI run = a served job, drawn over every campaign kind.

For each registered kind, hypothesis draws a value for every param in
the kind's table (``seeds`` and ``base_seed`` included): list params
from the kind's valid names, ints inside every ``build``'s range, bools,
and strs from their choices.  The ``repro <kind>`` argv written from the
table for those values and the served spec holding the same values must
build the same config: the CLI fingerprint equals the served job's
journal fingerprint, so a served job's journal resumes under the CLI.
Nothing runs, so each example costs a parse and two config builds.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import build_parser
from repro.experiments.grid import campaign_names, get_campaign
from repro.sched.registry import scheduler_names
from repro.serve.specs import journal_fingerprint, parse_job_spec

#: Valid values of the str params that declare no choices.
NAMED = {"adversary": scheduler_names}

PARSER = build_parser()


def _values(param):
    if param.is_list:
        names = sorted(param.type())
        return st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True)
    if param.type is bool:
        return st.booleans()
    if param.type is int:
        return st.integers(0, 10**6) if param.name == "base_seed" else st.integers(1, 64)
    if param.choices is not None:
        return st.sampled_from(param.choices)
    return st.sampled_from(NAMED[param.name]())


def _argv(campaign, values):
    """The ``repro <kind>`` argv that asks for ``values``."""
    argv = [campaign.name]
    for param in campaign.all_params:
        value = values[param.name]
        if param.type is not bool:
            argv += [param.option, ",".join(value) if param.is_list else str(value)]
        elif value != param.cli_value:
            argv.append(param.option)
    return argv


# The example count comes from the Hypothesis profile (tests/conftest.py):
# 6 per kind in tier-1 and 40 under ``--hypothesis-profile ci``.
@pytest.mark.parametrize("kind", campaign_names())
@settings(deadline=None)
@given(data=st.data())
def test_cli_argv_and_served_spec_build_one_config(kind, data):
    campaign = get_campaign(kind)
    values = {
        param.name: data.draw(_values(param), label=param.name)
        for param in campaign.all_params
    }
    args = PARSER.parse_args(_argv(campaign, values))
    cli = campaign.fingerprint(campaign.build(campaign.params_from_args(args)))
    served = parse_job_spec({"kind": kind, "params": values})
    assert journal_fingerprint(served) == cli
