"""Job specs: what a client may ask the server to run.

A submission body is ``{"kind": ..., "params": {...}}`` where ``kind``
names one of the repo's gridded entry points (``chaos``, ``sanitize``,
``zoo``, ``heal``, ``verify``) or a single ``experiment`` driver.
:func:`parse_job_spec` validates the payload the same way the CLI does
— unknown kinds, unknown params and bad values raise
:class:`~repro.errors.ConfigurationError` (the server's HTTP 400) —
and canonicalizes it into a :class:`JobSpec` carrying the existing
jobs-excluded journal fingerprint of the underlying config.  Two
consequences do all the heavy lifting for the service layer:

* the fingerprint keys the **certified result cache**: every run is
  deterministic given its spec, so byte-equality of repeated results is
  a theorem, not a hope (DESIGN.md §17);
* the fingerprint also pins the **job journal**: a worker killed
  mid-job leaves a journal any retry resumes — and because it is the
  same fingerprint the CLI computes, ``python -m repro <kind> --journal
  ... --resume`` reproduces an interrupted job's report byte-identically
  outside the server too.

Campaign kinds come from the registry in :mod:`repro.experiments.grid`:
each declares its parameter table and how its config is built, so this
module branches only for ``experiment``.  :func:`execute_spec` is the
worker-process entry point: it rebuilds the config from the canonical
params and runs the matching campaign (or experiment module) with the
journal/shutdown/progress plumbing attached.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.durable.journal import config_fingerprint
from repro.errors import ConfigurationError
from repro.experiments.grid import campaign_names, get_campaign

#: ``experiment`` params: name -> (default, coercion); ``None`` defaults
#: mean "required".  Campaign kinds declare theirs on their registered
#: class (:attr:`repro.experiments.grid.Campaign.serve_params`).
_EXPERIMENT_PARAMS: Dict[str, Tuple[Any, Callable[[Any], Any]]] = {
    "id": (None, lambda v: str(v).upper()),
    "scale": ("quick", str),
}


def job_kinds() -> Tuple[str, ...]:
    """Submission kinds the server accepts: ``experiment`` plus every
    registered campaign."""
    return ("experiment",) + campaign_names()


#: The built-in submission kinds.
JOB_KINDS = job_kinds()


@dataclass(frozen=True)
class JobSpec:
    """One validated, canonicalized submission.

    Attributes:
        kind: Which entry point runs (:data:`JOB_KINDS`).
        params: Canonical parameter mapping (defaults filled, values
            coerced) — JSON-safe, so it crosses the worker-process
            boundary and the journal untouched.
        fingerprint: The underlying config's jobs-excluded journal
            fingerprint, wrapped with the kind — the cache key and the
            journal identity.
        jobs: Worker processes *inside* the job (an execution knob:
            excluded from the fingerprint, like ``--jobs`` everywhere
            else in the repo).
    """

    kind: str
    params: Mapping[str, Any]
    fingerprint: str
    jobs: int = 1

    def payload(self) -> Dict[str, Any]:
        """The JSON-safe round-trippable form (feeds ``execute_spec``)."""
        return {
            "kind": self.kind,
            "params": dict(self.params),
            "jobs": self.jobs,
        }


def _canonical_params(kind: str, raw: Mapping[str, Any]) -> Dict[str, Any]:
    schema = (
        _EXPERIMENT_PARAMS
        if kind == "experiment"
        else get_campaign(kind).serve_params
    )
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigurationError(
            f"unknown {kind} param(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(schema))})"
        )
    params: Dict[str, Any] = {}
    for name, (default, coerce) in schema.items():
        if name in raw:
            try:
                value = coerce(raw[name])
            except (TypeError, ValueError) as error:
                raise ConfigurationError(
                    f"bad {kind} param {name!r}: {error}"
                ) from None
        elif default is None:
            raise ConfigurationError(f"{kind} spec requires param {name!r}")
        else:
            value = default
        if isinstance(value, tuple):
            value = list(value)
        params[name] = value
    return params


def parse_job_spec(payload: Any) -> JobSpec:
    """Validate a submission body into a :class:`JobSpec`.

    Validation is *eager*: the underlying config object is actually
    constructed (so every range/name check the CLI would perform fires
    here, before the job is admitted), then thrown away — workers
    rebuild it from the canonical params.
    """
    if not isinstance(payload, dict):
        raise ConfigurationError("job spec must be a JSON object")
    unknown = sorted(set(payload) - {"kind", "params", "jobs"})
    if unknown:
        raise ConfigurationError(
            f"unknown job spec field(s): {', '.join(unknown)} "
            "(allowed: kind, params, jobs)"
        )
    kind = payload.get("kind")
    kinds = job_kinds()
    if kind not in kinds:
        raise ConfigurationError(
            f"unknown job kind {kind!r} (choose from {', '.join(kinds)})"
        )
    raw = payload.get("params", {})
    if not isinstance(raw, dict):
        raise ConfigurationError("job spec 'params' must be a JSON object")
    try:
        jobs = int(payload.get("jobs", 1))
    except (TypeError, ValueError):
        raise ConfigurationError("job spec 'jobs' must be an integer") from None
    if jobs < 1:
        raise ConfigurationError(f"job spec 'jobs' must be >= 1, got {jobs}")
    params = _canonical_params(kind, raw)
    fingerprint = config_fingerprint(
        {"kind": kind, "fingerprint": _inner_fingerprint(kind, params)}
    )
    return JobSpec(kind=kind, params=params, fingerprint=fingerprint, jobs=jobs)


def result_digest(result: Mapping[str, Any]) -> str:
    """sha256 over the canonical JSON bytes of a job result — the
    digest a client (and the cache) verifies byte-identity against."""
    canonical = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def _experiment_registry():
    from repro.cli import REGISTRY

    return REGISTRY


def _inner_fingerprint(kind: str, params: Mapping[str, Any]) -> str:
    """The jobs-excluded fingerprint of the config ``params`` denote
    (which also validates them: the config is really constructed)."""
    if kind != "experiment":
        campaign = get_campaign(kind)
        return campaign.fingerprint(campaign.build(params))
    registry = _experiment_registry()
    if params["id"] not in registry:
        raise ConfigurationError(
            f"unknown experiment id {params['id']!r} "
            f"(choose from {', '.join(registry)})"
        )
    if params["scale"] not in ("quick", "full"):
        raise ConfigurationError(
            f"experiment scale must be quick or full, got {params['scale']!r}"
        )
    return config_fingerprint({"id": params["id"], "scale": params["scale"]})


def journal_fingerprint(spec: JobSpec) -> str:
    """The *inner* fingerprint the job's journal is pinned to — the one
    the matching CLI command computes, so a server-side journal resumes
    under ``python -m repro <kind> --journal ... --resume`` unchanged."""
    return _inner_fingerprint(spec.kind, spec.params)


# ----------------------------------------------------------------------
# Worker-side execution
# ----------------------------------------------------------------------
def execute_spec(
    payload: Mapping[str, Any],
    journal: Optional[Any] = None,
    shutdown: Optional[Any] = None,
    metrics: Optional[Any] = None,
    progress: Optional[Callable[[int], None]] = None,
) -> Dict[str, Any]:
    """Run one validated spec payload to completion; returns the result
    dict the cache certifies (deterministic: canonical-JSON stable).

    ``journal``/``shutdown`` plumb straight into the underlying driver
    (cell-granular durability and safe-point stops, DESIGN.md §12).
    ``progress`` fires with a running completed-cell count — the
    supervisor's heartbeat and the ``/jobs/<id>/progress`` feed.
    """
    from repro.obs.causal import trace_span

    spec = parse_job_spec(dict(payload))
    cells = [0]

    def on_cell(_seed: Any, _outcome: Any) -> None:
        cells[0] += 1
        if progress is not None:
            progress(cells[0])

    with trace_span("spec.execute", kind=spec.kind):
        return _dispatch_spec(spec, journal, shutdown, metrics, on_cell)


def _dispatch_spec(
    spec: JobSpec,
    journal: Optional[Any],
    shutdown: Optional[Any],
    metrics: Optional[Any],
    on_cell: Callable[[Any, Any], None],
) -> Dict[str, Any]:
    if spec.kind == "experiment":
        from repro.cli import preset

        module, config_cls = _experiment_registry()[spec.params["id"]]
        result = module.run(preset(config_cls, spec.params["scale"], spec.jobs))
        return {
            "kind": "experiment",
            "passed": bool(result.passed),
            "report": None,
            "text": result.render(plot=False),
        }
    campaign = get_campaign(spec.kind)
    report = campaign.run(
        campaign.build(spec.params, jobs=spec.jobs),
        journal=journal,
        shutdown=shutdown,
        metrics=metrics,
        progress=on_cell,
    )
    return {
        "kind": spec.kind,
        "passed": bool(report.passed),
        "report": json.loads(report.to_json()),
        "text": report.render(),
    }
