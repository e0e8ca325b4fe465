"""Structural checks over every experiment's config presets.

The benches choose quick()/full() presets by environment variable; these
tests pin that both presets construct, that full shrinks no numeric or
sequence field of quick and grows at least one, that the campaign-backed
presets (E13-E15) keep their journal fingerprints, and that the
registry's drivers all follow the run(config) -> ExperimentResult
protocol (signature level — the drivers' behaviour is covered by
test_exp_drivers.py)."""

import dataclasses
import inspect

import pytest

from repro.cli import REGISTRY
from repro.experiments.grid import get_campaign

#: The campaign each campaign-backed experiment grids.
CAMPAIGN_OF = {"E13": "zoo", "E14": "heal", "E15": "verify"}

#: Journal fingerprint of each campaign-backed preset: ``repro run``
#: grids exactly these configs, so a preset refactor must keep them.
PRESET_FINGERPRINTS = {
    ("E13", "quick"): (
        "3f95284e68d1550ea342943469db00fce910361d746f4fba9d2b7c36d2db0da2"
    ),
    ("E13", "full"): (
        "a9ef553e66f1304aa8fdf59f45fc53475e034ed6997e4d9a98c5ad0ae1271cd8"
    ),
    ("E14", "quick"): (
        "77e04eebdd679a6a4e12e61cb5116fee3618446a6d1c7f927e5118620228f9a0"
    ),
    ("E14", "full"): (
        "6b3bdaf883db4dfe4613fa7c51b62d9170196b59c0dafd0b836e99acdc1ac3d2"
    ),
    ("E15", "quick"): (
        "30200d410192f113db3ba4bd17a5f504641a430a277997fbc4a791b2952e6c58"
    ),
    ("E15", "full"): (
        "97a1917b5284824c97035dc744550365d9a897e4e134c065d6fa2645d59936a6"
    ),
}


@pytest.mark.parametrize("key", sorted(REGISTRY))
def test_presets_construct(key):
    _module, config_cls = REGISTRY[key]
    quick = config_cls.quick()
    full = config_cls.full()
    assert dataclasses.is_dataclass(quick)
    assert type(quick) is type(full) is config_cls


def _size_changes(quick, full, path=""):
    """``(path, quick, full)`` for every numeric or sequence field whose
    size differs between the presets, nested dataclasses included;
    sequences are sized by length."""
    if dataclasses.is_dataclass(quick):
        changes = []
        for field in dataclasses.fields(quick):
            changes += _size_changes(
                getattr(quick, field.name),
                getattr(full, field.name),
                f"{path}{field.name}.",
            )
        return changes
    if isinstance(quick, (list, tuple)):
        quick, full = len(quick), len(full)
    elif not isinstance(quick, (int, float)) or isinstance(quick, bool):
        return []
    return [(path.rstrip("."), quick, full)] if full != quick else []


@pytest.mark.parametrize("key", sorted(REGISTRY))
def test_full_not_smaller_than_quick(key):
    """No numeric or sequence field of full is smaller than quick's, and
    at least one is larger (full presets exist to tighten statistics)."""
    _module, config_cls = REGISTRY[key]
    changes = _size_changes(config_cls.quick(), config_cls.full())
    shrunk = [change for change in changes if change[2] < change[1]]
    assert not shrunk
    assert changes  # full() genuinely scales something up


@pytest.mark.parametrize("key", sorted(REGISTRY))
def test_driver_protocol(key):
    module, config_cls = REGISTRY[key]
    assert hasattr(module, "run")
    signature = inspect.signature(module.run)
    assert len(signature.parameters) == 1
    # The module documents itself (the CLI list command shows this line).
    assert (module.__doc__ or "").strip()


@pytest.mark.parametrize("key, scale", sorted(PRESET_FINGERPRINTS))
def test_campaign_preset_fingerprints(key, scale):
    _module, config_cls = REGISTRY[key]
    config = getattr(config_cls, scale)()
    campaign = get_campaign(CAMPAIGN_OF[key])
    fingerprint = campaign.fingerprint(config)
    assert fingerprint == PRESET_FINGERPRINTS[key, scale]
