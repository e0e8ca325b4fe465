"""Causal tracing across processes: correlation ids, span spills, a
cross-process stitcher, and a crash flight recorder (DESIGN.md §18).

The serve tier runs one logical job across at least three OS processes
— the HTTP server/supervisor, one worker per attempt, and the worker's
ensemble pool — and a ``--trace`` campaign forks its pool the same way.
An in-memory recorder would die at each fork, with private ids in every
process, so this module makes the *job* the unit of tracing instead of
the process, and is the repo's only span recorder:

* **Trace ids.**  Every job carries a trace id, minted from the job
  fingerprint (:func:`mint_trace_id`) or accepted from an
  ``X-Repro-Trace-Id`` header.  Span ids are a pure function of
  ``(trace_id, name, key)`` (:func:`span_id`), so two processes that
  never exchange a byte still agree on each other's span ids — the
  supervisor can point a flow at the request span the server recorded,
  and a resumed attempt re-emits a journal-restored seed under the
  *same* id as the attempt that computed it.
* **One span call.**  :func:`trace_span` spans a block on the installed
  :class:`CausalRecorder` and costs nothing when none is installed —
  the one-liner every instrumented driver uses.
* **Spill files.**  Each process appends its spans to a per-process
  JSONL spill (:class:`CausalRecorder`) via the durable
  :func:`~repro.durable.atomic_io.append_line`, so a SIGKILL loses at
  most a torn final line, which readers tolerate.  Clocks are
  injectable (lint rule RPL106) and optional: records without a clock
  carry no wall-clock fields at all.
* **Stitching.**  :func:`stitch_records` merges any set of spills into
  one Chrome/Perfetto ``traceEvents`` payload.  ``mode="wall"`` is the
  causal timeline — one lane per (role, attempt), flow arrows
  (``ph: "s"``/``"f"``) linking request → admission → attempt(s) →
  chunks.  ``mode="logical"`` is the deterministic projection: only
  ``det`` records survive, wall-clock fields and harness weather are
  dropped, duplicates (journal re-emissions) collapse by span id, and
  timestamps are synthesized from a sorted causal order — so the
  stitched bytes are identical across ``--jobs`` values and across a
  SIGKILL + journal-resume of the same job.
* **Flight recorder.**  :class:`FlightRecorder` keeps the last N
  span/metric/health events in a bounded ring and dumps them atomically
  on crash, stall-reroute, retry-ladder escalation, or digest-mismatch
  alarm.  Deterministic events ("events") and wall-clock weather
  ("weather") are kept apart so the deterministic section of a dump is
  a pure function of the seed.

Span *names* are dotted lowercase literals (``"serve.attempt"``,
``"ensemble.seed"``) — never interpolated (lint rule RPL107): names are
the cardinality axis of every trace viewer, and per-value names explode
it.  Variable data rides in ``key`` and ``args``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import re
import threading
from collections import deque
from contextlib import contextmanager, nullcontext
from typing import (
    IO,
    Any,
    Callable,
    ContextManager,
    Deque,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.durable.atomic_io import append_line, atomic_write

PathLike = Union[str, pathlib.Path]

#: Spill files end with this suffix; the stitcher globs for it.
SPILL_SUFFIX = ".spans.jsonl"

#: Accepted shape of an externally supplied trace id (hex, 8-64 chars).
TRACE_ID_RE = re.compile(r"^[0-9a-f]{8,64}$")


def span_id(trace_id: str, name: str, key: str = "") -> str:
    """Deterministic 16-hex span id for ``(trace, name, key)``.

    Being a pure function of its inputs is the whole design: every
    process derives the same id for the same logical span without
    coordination, which is what lets flows cross process boundaries
    and journal re-emissions deduplicate.
    """
    payload = f"{trace_id}\x00{name}\x00{key}".encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


def mint_trace_id(fingerprint: str) -> str:
    """The default trace id for a job: derived from its fingerprint, so
    resubmissions of the same spec join the same trace."""
    payload = f"trace\x00{fingerprint}".encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


def _json_safe(value: Any) -> Any:
    """Clamp span args to JSON scalars (cardinality-safe, serializable)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


class TraceContext:
    """The portable half of a trace: what a child process needs to keep
    recording into the same causal timeline."""

    def __init__(
        self,
        trace_id: str,
        role: str = "worker",
        attempt: int = 0,
        parent_id: Optional[str] = None,
        spill: Optional[str] = None,
        flight: Optional[str] = None,
    ) -> None:
        self.trace_id = trace_id
        self.role = role
        self.attempt = attempt
        self.parent_id = parent_id
        self.spill = spill
        self.flight = flight

    def to_payload(self) -> Dict[str, Any]:
        return {
            "trace": self.trace_id,
            "role": self.role,
            "attempt": self.attempt,
            "parent": self.parent_id,
            "spill": self.spill,
            "flight": self.flight,
        }

    @classmethod
    def from_payload(
        cls, payload: Optional[Mapping[str, Any]]
    ) -> Optional["TraceContext"]:
        if not payload or not payload.get("trace"):
            return None
        return cls(
            trace_id=str(payload["trace"]),
            role=str(payload.get("role", "worker")),
            attempt=int(payload.get("attempt", 0) or 0),
            parent_id=payload.get("parent"),
            spill=payload.get("spill"),
            flight=payload.get("flight"),
        )


class CausalRecorder:
    """Appends one process's spans to a durable JSONL spill file.

    Thread-safe for :meth:`record` (the supervisor records from several
    worker threads); the stack-based :meth:`span`/:meth:`event`
    conveniences assume a single-threaded caller (the worker process).
    Without a ``clock`` no wall-clock field is ever written — such a
    spill is deterministic given the seed.
    """

    def __init__(
        self,
        path: PathLike,
        role: str,
        trace_id: Optional[str] = None,
        attempt: int = 0,
        parent_id: Optional[str] = None,
        clock: Optional[Callable[[], float]] = None,
        flight: Optional["FlightRecorder"] = None,
    ) -> None:
        self.path = pathlib.Path(path)
        self.role = role
        self.trace_id = trace_id
        self.attempt = attempt
        self.parent_id = parent_id
        self._clock = clock
        self._flight = flight
        self._lock = threading.Lock()
        self._handle: Optional[IO[str]] = None
        self._seq = 0
        self._stack: List[str] = []
        self._auto: Dict[str, int] = {}
        self._scope = f"a{attempt}."

    # -- plumbing -------------------------------------------------------
    def _open(self) -> IO[str]:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        return self._handle

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def current_span(self) -> Optional[str]:
        """Innermost open span id (or the cross-process parent)."""
        return self._stack[-1] if self._stack else self.parent_id

    def auto_key(self, name: str) -> str:
        """The next automatic key for ``name``: ``a<attempt>.<n>``, or
        ``<scope><n>`` inside :meth:`anchored`."""
        with self._lock:
            index = self._auto.get(name, 0)
            self._auto[name] = index + 1
        return f"{self._scope}{index}"

    @contextmanager
    def anchored(self, parent: Optional[str], scope: str):
        """Record the enclosed block as work handed out by span ``parent``.

        A forked pool worker inherits this recorder with the open spans
        and key counters its parent had at fork time, which belong to
        whatever the parent was doing then.  Inside the block, spans nest
        under ``parent`` and automatic keys start afresh under ``scope``,
        so sibling workers never mint the same span id.
        """
        saved = self._stack, self._auto, self._scope
        self._stack = [] if parent is None else [parent]
        self._auto, self._scope = {}, scope
        try:
            yield
        finally:
            self._stack, self._auto, self._scope = saved

    # -- recording ------------------------------------------------------
    def record(
        self,
        name: str,
        key: str = "",
        trace: Optional[str] = None,
        parent: Optional[str] = None,
        flow: Optional[str] = None,
        det: bool = False,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
        role: Optional[str] = None,
        attempt: Optional[int] = None,
        **args: Any,
    ) -> Optional[str]:
        """Write one span record; returns its id (None when no trace).

        ``trace`` defaults to the recorder's trace id; multi-tenant
        recorders (supervisor, server) pass it per record.  ``det``
        marks records that survive into the logical projection — their
        ``key`` and ``args`` must be pure functions of the seed.
        """
        trace = trace if trace is not None else self.trace_id
        if trace is None:
            return None
        sid = span_id(trace, name, key)
        record: Dict[str, Any] = {
            "trace": trace,
            "span": sid,
            "name": name,
            "key": key,
            "role": role if role is not None else self.role,
            "attempt": self.attempt if attempt is None else int(attempt),
            "det": bool(det),
        }
        if parent is not None:
            record["parent"] = parent
        if flow is not None:
            record["flow"] = flow
        if args:
            record["args"] = {k: _json_safe(v) for k, v in sorted(args.items())}
        if t0 is not None:
            record["t0"] = round(float(t0), 6)
        if t1 is not None:
            record["t1"] = round(float(t1), 6)
        with self._lock:
            self._seq += 1
            record["seq"] = self._seq
            append_line(self._open(), json.dumps(record, sort_keys=True))
        if self._flight is not None:
            self._flight.record("span", name, volatile=True, key=key)
        return sid

    @contextmanager
    def span(
        self,
        name: str,
        key: Optional[str] = None,
        det: bool = False,
        flow: Optional[str] = None,
        **args: Any,
    ):
        """Record the enclosed block as a span (single-threaded use)."""
        if self.trace_id is None:
            yield None
            return
        if key is None:
            key = self.auto_key(name)
        parent = self.current_span()
        t0 = self._clock() if self._clock is not None else None
        sid = span_id(self.trace_id, name, key)
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            t1 = self._clock() if self._clock is not None else None
            self.record(
                name, key=key, parent=parent, flow=flow, det=det,
                t0=t0, t1=t1, **args
            )

    def event(
        self,
        name: str,
        key: str = "",
        det: bool = False,
        flow: Optional[str] = None,
        **args: Any,
    ) -> Optional[str]:
        """Record a zero-duration event under the innermost open span."""
        if self.trace_id is None:
            return None
        parent = self.current_span()
        now = self._clock() if self._clock is not None else None
        return self.record(
            name, key=key, parent=parent, flow=flow, det=det,
            t0=now, t1=now, **args
        )


#: Process-wide active causal recorder (None = causal tracing off).
_ACTIVE_CAUSAL: Optional[CausalRecorder] = None


def install_causal_recorder(recorder: Optional[CausalRecorder]) -> None:
    """Install (or clear, with ``None``) the process's causal recorder."""
    global _ACTIVE_CAUSAL
    _ACTIVE_CAUSAL = recorder


def get_causal_recorder() -> Optional[CausalRecorder]:
    return _ACTIVE_CAUSAL


def trace_span(name: str, **args: Any) -> ContextManager[Optional[str]]:
    """Span the enclosed block on the installed causal recorder.

    A serve worker or a ``--trace`` campaign installs one, so driver
    spans such as ``campaign.spec`` land in its spill with no driver
    changes; with none installed this is a no-op yielding ``None``.
    """
    recorder = _ACTIVE_CAUSAL
    if recorder is None:
        return nullcontext()
    return recorder.span(name, **args)  # repro: allow(RPL107)


class FlightRecorder:
    """Bounded ring buffer of recent events, dumped on incidents.

    ``volatile=True`` events (wall-clock weather: span mirrors,
    progress heartbeats) and deterministic health events are kept in
    the same ring but dumped into separate sections, so the ``events``
    section of a dump is reproducible given the seed while ``weather``
    captures what actually happened this run.
    """

    def __init__(
        self,
        capacity: int = 256,
        context: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.capacity = int(capacity)
        self.context = dict(context or {})
        self._lock = threading.Lock()
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=self.capacity)
        self._total = 0

    def record(
        self, kind: str, name: str, volatile: bool = False, **args: Any
    ) -> None:
        event: Dict[str, Any] = {"kind": kind, "name": name}
        if volatile:
            event["volatile"] = True
        if args:
            event["args"] = {k: _json_safe(v) for k, v in sorted(args.items())}
        with self._lock:
            self._total += 1
            event["n"] = self._total
            self._ring.append(event)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            ring = [dict(event) for event in self._ring]
            total = self._total
        events = [e for e in ring if not e.get("volatile")]
        weather = [e for e in ring if e.get("volatile")]
        for section in (events, weather):
            for event in section:
                event.pop("volatile", None)
        return {
            "context": dict(self.context),
            "capacity": self.capacity,
            "recorded_total": total,
            "dropped": max(0, total - len(ring)),
            "events": events,
            "weather": weather,
        }

    def dump(self, path: PathLike, reason: str) -> Dict[str, Any]:
        """Atomically write the ring to ``path``; returns the payload."""
        payload = self.snapshot()
        payload["reason"] = reason
        atomic_write(
            path,
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
        )
        return payload


#: Process-wide active flight recorder (None = flight recording off).
_ACTIVE_FLIGHT: Optional[FlightRecorder] = None


def install_flight_recorder(recorder: Optional[FlightRecorder]) -> None:
    global _ACTIVE_FLIGHT
    _ACTIVE_FLIGHT = recorder


def get_flight_recorder() -> Optional[FlightRecorder]:
    return _ACTIVE_FLIGHT


def flight_note(
    kind: str, name: str, volatile: bool = False, **args: Any
) -> None:
    """Record onto the active flight recorder (no-op without one)."""
    recorder = _ACTIVE_FLIGHT
    if recorder is not None:
        recorder.record(kind, name, volatile=volatile, **args)  # repro: allow(RPL107)


# ----------------------------------------------------------------------
# Stitching: spill files -> one Chrome/Perfetto traceEvents payload.
# ----------------------------------------------------------------------

def read_spill(path: PathLike) -> List[Dict[str, Any]]:
    """Read one spill file, tolerating a torn final line and absence."""
    records: List[Dict[str, Any]] = []
    try:
        text = pathlib.Path(path).read_text(encoding="utf-8")
    except OSError:
        return records
    for raw in text.splitlines():
        raw = raw.strip()
        if not raw:
            continue
        try:
            record = json.loads(raw)
        except ValueError:
            continue  # torn tail (or foreign line): skip, never fail
        if isinstance(record, dict) and "span" in record and "name" in record:
            records.append(record)
    return records


def read_spills(paths: Iterable[PathLike]) -> List[Dict[str, Any]]:
    records: List[Dict[str, Any]] = []
    for path in paths:
        records.extend(read_spill(path))
    return records


def find_spills(root: PathLike) -> List[pathlib.Path]:
    """All spill files under ``root`` (sorted — deterministic input
    order for the stitcher)."""
    return sorted(pathlib.Path(root).rglob(f"*{SPILL_SUFFIX}"))


def _lane(record: Mapping[str, Any]) -> Tuple[str, int]:
    return str(record.get("role", "?")), int(record.get("attempt", 0) or 0)


def _wall_sort_key(record: Mapping[str, Any]) -> Tuple[Any, ...]:
    return (
        float(record.get("t0", 0.0) or 0.0),
        str(record.get("role", "")),
        int(record.get("attempt", 0) or 0),
        int(record.get("seq", 0) or 0),
        str(record.get("name", "")),
        str(record.get("key", "")),
    )


def stitch_records(
    records: Sequence[Mapping[str, Any]],
    mode: str = "wall",
    trace_id: Optional[str] = None,
) -> Dict[str, Any]:
    """Merge spill records into one ``traceEvents`` payload.

    ``mode="wall"``: the full causal timeline.  One lane (pid) per
    (role, attempt), complete events with wall timestamps relative to
    the earliest record, and a flow arrow (``ph: "s"`` → ``ph: "f"``)
    into every record that names a ``flow`` source present in the
    merged set — a retried job renders as one connected timeline.

    ``mode="logical"``: the deterministic projection.  Only ``det``
    records survive; duplicates (a resumed attempt re-emitting
    journal-restored seeds) collapse by span id; wall-clock fields,
    roles, attempts, parents and flows are dropped; timestamps are the
    index in the ``(name, key)``-sorted order.  The output bytes are a
    pure function of the set of logical spans — identical across
    ``--jobs`` values and across kill + resume.
    """
    if mode not in ("wall", "logical"):
        raise ValueError(f"unknown stitch mode {mode!r}")
    pool = [
        record
        for record in records
        if trace_id is None or record.get("trace") == trace_id
    ]
    if mode == "logical":
        unique: Dict[str, Dict[str, Any]] = {}
        for record in pool:
            if not record.get("det"):
                continue
            sid = str(record["span"])
            if sid not in unique:
                unique[sid] = {
                    "name": str(record.get("name", "")),
                    "key": str(record.get("key", "")),
                    "span": sid,
                    "args": dict(record.get("args", {}) or {}),
                }
        ordered = sorted(unique.values(), key=lambda r: (r["name"], r["key"]))
        events = []
        for index, record in enumerate(ordered):
            args = {"span": record["span"], "key": record["key"]}
            args.update(record["args"])
            events.append(
                {
                    "name": record["name"],
                    "ph": "X",
                    "ts": index,
                    "dur": 1,
                    "pid": 0,
                    "tid": 0,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    lanes = sorted({_lane(record) for record in pool})
    pid_of = {lane: index + 1 for index, lane in enumerate(lanes)}
    starts = [float(r["t0"]) for r in pool if r.get("t0") is not None]
    origin = min(starts) if starts else 0.0

    def rel(record: Mapping[str, Any], field: str) -> float:
        value = record.get(field)
        if value is None:
            return 0.0
        return round((float(value) - origin) * 1e6, 1)

    events = []
    for lane in lanes:
        label = lane[0] if lane[1] == 0 else f"{lane[0]} attempt {lane[1]}"
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid_of[lane],
                "tid": 0,
                "args": {"name": label},
            }
        )
    by_span: Dict[str, Mapping[str, Any]] = {}
    for record in sorted(pool, key=_wall_sort_key):
        by_span.setdefault(str(record["span"]), record)
    for record in sorted(pool, key=_wall_sort_key):
        pid = pid_of[_lane(record)]
        start = rel(record, "t0")
        end = rel(record, "t1")
        args: Dict[str, Any] = {
            "span": record["span"],
            "key": record.get("key", ""),
        }
        if record.get("parent"):
            args["parent"] = record["parent"]
        args.update(record.get("args", {}) or {})
        events.append(
            {
                "name": record.get("name", ""),
                "ph": "X",
                "ts": start,
                "dur": max(0.0, end - start),
                "pid": pid,
                "tid": 0,
                "args": args,
            }
        )
        flow = record.get("flow")
        source = by_span.get(str(flow)) if flow else None
        if source is not None:
            source_ts = min(rel(source, "t1"), start)
            events.append(
                {
                    "name": "causal",
                    "cat": "causal",
                    "ph": "s",
                    "id": record["span"],
                    "pid": pid_of[_lane(source)],
                    "tid": 0,
                    "ts": source_ts,
                }
            )
            events.append(
                {
                    "name": "causal",
                    "cat": "causal",
                    "ph": "f",
                    "bp": "e",
                    "id": record["span"],
                    "pid": pid,
                    "tid": 0,
                    "ts": start,
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def stitch_spills(
    paths: Iterable[PathLike],
    mode: str = "wall",
    trace_id: Optional[str] = None,
) -> Dict[str, Any]:
    """Read + merge spill files (see :func:`stitch_records`)."""
    return stitch_records(read_spills(paths), mode=mode, trace_id=trace_id)


def write_stitched_trace(path: PathLike, payload: Mapping[str, Any]) -> None:
    """Atomically write a stitched payload with sorted keys, so logical
    stitches are byte-comparable with ``cmp``."""
    atomic_write(
        path, json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
