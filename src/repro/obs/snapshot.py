"""Metric-snapshot files: deterministic JSONL plus text expositions.

A snapshot file is a JSON-lines artifact — one self-describing dict per
line (``kind`` tells a reader what it is looking at), written atomically
via :func:`repro.durable.atomic_io.atomic_write` with sorted keys so
reruns with the same seeds produce byte-identical files (the property
the CI obs job pins with ``cmp``).  Wall-clock quantities never enter a
snapshot (lint rule ``RPD204``); span durations go to the separate
causal span spill and its stitched Chrome trace (:mod:`repro.obs.causal`).

Line kinds the CLI writes:

* ``{"kind": "cell", "spec": ..., "seed": ..., "metrics": {...}}`` —
  one chaos-campaign cell's :func:`~repro.obs.paper.paper_metrics`;
* ``{"kind": "aggregate", "metrics": {...}}`` — the campaign-wide
  :func:`~repro.obs.paper.merge_paper_metrics` roll-up;
* ``{"kind": "experiment", "id": "E4", "metrics": {...}}`` — one
  experiment's exported observability block (``repro run --metrics``);
* ``{"kind": "run", "label": ..., ...}`` — one sanitize cell summary.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Sequence, Union

from repro.durable.atomic_io import atomic_write
from repro.errors import ConfigurationError

PathLike = Union[str, pathlib.Path]


def write_snapshot_jsonl(path: PathLike, lines: Sequence[Dict[str, object]]) -> None:
    """Atomically write snapshot lines (sorted keys — deterministic)."""
    text = "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)
    atomic_write(path, text.encode("utf-8"))


def load_snapshot_jsonl(path: PathLike) -> List[Dict[str, object]]:
    """Read a snapshot file back (blank lines skipped)."""
    path = pathlib.Path(path)
    lines: List[Dict[str, object]] = []
    for number, raw in enumerate(path.read_text().splitlines(), start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"{path}:{number}: not valid JSON ({error})"
            ) from None
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"{path}:{number}: snapshot lines must be JSON objects"
            )
        lines.append(payload)
    return lines


def _flatten(prefix: str, value: object, out: Dict[str, object]) -> None:
    if isinstance(value, bool):
        out[prefix] = int(value)
    elif isinstance(value, (int, float)):
        out[prefix] = value
    elif isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}_{key}", value[key], out)
    # lists (histograms, window counts) are handled by the caller


def prometheus_exposition(
    metrics: Dict[str, object], prefix: str = "repro"
) -> str:
    """Render one ``metrics`` dict (a :func:`~repro.obs.paper.
    paper_metrics` / aggregate block) Prometheus-style.

    Scalars become gauges (``_total``-suffixed names become counters);
    a ``tau_histogram`` cumulative-bucket list becomes a histogram
    series.  This is the file-based twin of
    :meth:`~repro.obs.registry.MetricsRegistry.render_prometheus`.
    """
    scalars: Dict[str, object] = {}
    for key in sorted(metrics):
        if key in ("tau_histogram", "window_counts"):
            continue
        _flatten(f"{prefix}_{key}", metrics[key], scalars)
    lines: List[str] = []
    for name in sorted(scalars):
        kind = "counter" if name.endswith("_total") else "gauge"
        lines.append(f"# TYPE {name} {kind}")
        lines.append(f"{name} {scalars[name]}")
    histogram = metrics.get("tau_histogram")
    if histogram:
        name = f"{prefix}_tau_delay"
        lines.append(f"# TYPE {name} histogram")
        count = 0
        for le, cumulative in histogram:
            lines.append(f'{name}_bucket{{le="{le}"}} {cumulative}')
            count = cumulative
        lines.append(f"{name}_count {count}")
    return "\n".join(lines) + "\n"
