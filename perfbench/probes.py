"""Layer probes: time calls into each ``repro`` module from outside it.

Nothing here edits ``src/repro``.  Every probe is a wrapper installed on
an attribute the measured code already looks up at call time:

* class attributes: each adversary's ``select``, the objectives'
  ``stochastic_gradient``, the simulator's ``run``/``run_fast`` loops,
  the sanitizer's ``drain``/``finish``, the journal's methods;
* module globals, placed where each caller binds them: the opcode
  ``DISPATCH_TABLE`` in ``repro.runtime.simulator`` and
  ``repro.shm.memory``, the run drivers, ``run_ensemble``, the record
  sort and trajectory helpers, the lemma certifiers, ``append_line``.

Per-step probes (select, dispatch, gradient, stop predicate) only add to
a ``[calls, ns]`` cell; everything coarser also records a span.  Spans
stay in memory and are written at the end as one Chrome/Perfetto trace
in the ``traceEvents`` format ``repro.obs.spans.SpanRecorder`` writes,
plus a self-time table.

Probe hygiene: :func:`calibrate` times the per-step wrapper around an
empty call, and :func:`layer_metrics` subtracts that cost
from every ``*_ns`` figure and from the loop time.  No probe gives a
scheduler an ``on_step`` hook, so the simulator stays on its elided
``run_fast`` path (``runtime.fast_loop_steps`` shows it).
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench import common

perf_ns = time.perf_counter_ns

#: Scheduler classes per adversary name, as ``(module, class)``.
ADVERSARIES = {
    "round-robin": ("repro.sched.round_robin", "RoundRobinScheduler"),
    "random": ("repro.sched.random_sched", "RandomScheduler"),
    "bounded-delay": ("repro.sched.bounded_delay", "BoundedDelayScheduler"),
    "stale-attack": ("repro.sched.stale_attack", "StaleGradientAttack"),
    "contention-max": ("repro.sched.contention_max", "ContentionMaximizer"),
}

#: Opcode index -> metric fragment (the order of ``repro.shm.ops``).
OPCODES = common.OP_NAMES + ("noop",)


def hot(fn: Callable, cell: List[int]) -> Callable:
    """Per-step wrapper: count the call and add its time to ``cell``."""

    def wrapper(*args):
        t0 = perf_ns()
        result = fn(*args)
        cell[1] += perf_ns() - t0
        cell[0] += 1
        return result

    return wrapper


def calibrate(calls: int = 200_000, repeats: int = 5) -> Dict[str, float]:
    """Cost of :func:`hot` itself, measured around an empty call.

    ``clock_ns`` is what the wrapper reports for a call that does
    nothing beyond the call itself (to subtract from each ``*_ns``);
    ``wrapper_ns`` is the whole extra wall time one wrapped call costs
    (to subtract from the loop time that contains the calls).
    """

    def empty(_a, _b):
        return None

    clock, wrapper = [], []
    for _ in range(repeats):
        cell = [0, 0]
        wrapped = hot(empty, cell)
        t0 = perf_ns()
        for _ in range(calls):
            empty(1, 2)
        base = (perf_ns() - t0) / calls
        t0 = perf_ns()
        for _ in range(calls):
            wrapped(1, 2)
        total = (perf_ns() - t0) / calls
        clock.append(max(0.0, cell[1] / calls - base))
        wrapper.append(max(0.0, total - base))
    return {
        "clock_ns": statistics.median(clock),
        "wrapper_ns": statistics.median(wrapper),
    }


class LayerProbes:
    """One traced pass: install, run the workload, uninstall, report.

    ``per_step=False`` installs only the campaign-level probes (pool,
    ensemble, journal); a ``--jobs 2`` pass uses that, because forked
    pool workers would inherit per-step wrappers whose numbers never
    reach this process.
    """

    def __init__(self, per_step: bool = True) -> None:
        self.per_step = per_step
        self.cells: Dict[str, List[int]] = {}
        self.counts: Dict[str, float] = {}
        #: [name, start_ns, end_ns, parent_index, args]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self.missing: List[str] = []
        self._loop_depth = 0
        self._loop_kind = "fast"
        self._build_start: Optional[int] = None

    # -- bookkeeping -------------------------------------------------
    def cell(self, name: str) -> List[int]:
        return self.cells.setdefault(name, [0, 0])

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def open(self, name: str, **args: Any) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_ns(), None, parent, args])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_ns()
        self._stack.pop()

    def spanned(self, name: str, fn: Callable, **args: Any) -> Callable:
        probes = self

        def wrapper(*a, **k):
            index = probes.open(name, **args)
            try:
                return fn(*a, **k)
            finally:
                probes.close(index)

        return wrapper

    def _patch(self, owner: Any, attr: str, make: Callable) -> None:
        original = owner.__dict__.get(attr) if isinstance(owner, type) else (
            getattr(owner, attr, None)
        )
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "LayerProbes":
        self.install()
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.uninstall()

    # -- installation ------------------------------------------------
    def install(self) -> None:
        import importlib

        import repro.durable.atomic_io as atomic_io
        import repro.durable.journal as journal
        import repro.experiments.e5_upper_bound as e5
        import repro.experiments.e13_algorithm_zoo as e13
        import repro.experiments.ensemble as ensemble
        import repro.obs.causal as causal

        self._install_campaign(ensemble, e5, e13)
        appends = self.cell("durable.appends")
        self._patch(atomic_io, "append_line", lambda fn: hot(fn, appends))
        self._patch(causal, "append_line", lambda fn: hot(fn, appends))
        for method in ("open", "record", "close"):
            self._patch(
                journal.RunJournal,
                method,
                lambda fn, m=method: self.spanned(f"durable.journal.{m}", fn),
            )
        if not self.per_step:
            return

        import repro.analysis.lemmas as lemmas
        import repro.analysis.sanitizer as sanitizer
        import repro.core.algorithm as algorithm
        import repro.core.epoch_sgd as epoch_sgd
        import repro.objectives.base as objectives
        import repro.runtime.simulator as simulator
        import repro.shm.memory as memory

        for name, (module, cls) in ADVERSARIES.items():
            owner = getattr(importlib.import_module(module), cls)
            cell = self.cell(f"sched.select.{name}")
            self._patch(owner, "select", lambda fn, c=cell: hot(fn, c))
        gradient = self.cell("objectives.gradient")
        self._patch(
            objectives.Objective, "stochastic_gradient", lambda fn: hot(fn, gradient)
        )
        table = simulator.DISPATCH_TABLE
        wrapped = tuple(
            hot(fn, self.cell(f"shm.ops.{OPCODES[i]}")) for i, fn in enumerate(table)
        )
        for module in (simulator, memory):
            self._patch(module, "DISPATCH_TABLE", lambda _fn: wrapped)
        self._patch(simulator.Simulator, "run_fast", lambda fn: self._loop(fn, "fast"))
        self._patch(simulator.Simulator, "run", lambda fn: self._loop(fn, "step"))

        for module, names in (
            (e5, ("run_lock_free_sgd",)),
            (e13, ("run_algorithm",)),
        ):
            for name in names:
                self._patch(module, name, lambda fn: self._core_run(fn))
        self._patch(
            e5, "run_sequential_sgd", lambda fn: self.spanned("core.sequential", fn)
        )
        self._patch(
            epoch_sgd,
            "collect_iteration_records",
            lambda fn: self.spanned("core.records", fn),
        )
        # run_algorithm sorts its records inline with the builtin.
        algorithm.sorted = self.spanned("core.records", sorted)
        self._patches.append((algorithm, "sorted", None))
        for module in (epoch_sgd, algorithm):
            self._patch(
                module,
                "accumulator_trajectory",
                lambda fn: self.spanned("core.trajectory", fn),
            )
        for name in (
            "certify_iteration_order",
            "certify_lemma_6_2",
            "certify_lemma_6_4",
        ):
            self._patch(lemmas, name, lambda fn: self.spanned("analysis.certify", fn))
        self._patch(
            sanitizer.RaceStalenessSanitizer, "drain", lambda fn: self._drain(fn)
        )
        self._patch(
            sanitizer.RaceStalenessSanitizer, "finish", lambda fn: self._finish(fn)
        )

    def _install_campaign(self, ensemble: Any, e5: Any, e13: Any) -> None:
        probes = self
        pool_cls = ensemble.ProcessPoolExecutor

        class CountingPool(pool_cls):
            """The ensemble's pool, counting starts, submits and wall."""

            def __init__(self, *args: Any, **kwargs: Any) -> None:
                probes.add("experiments.pool_starts", 1)
                self._probe_span = probes.open("experiments.pool")
                super().__init__(*args, **kwargs)

            def submit(self, *args: Any, **kwargs: Any):
                probes.add("experiments.submits", 1)
                return super().submit(*args, **kwargs)

            def shutdown(self, *args: Any, **kwargs: Any) -> None:
                try:
                    super().shutdown(*args, **kwargs)
                finally:
                    if getattr(self, "_probe_span", None) is not None:
                        probes.close(self._probe_span)
                        self._probe_span = None

        self._patch(ensemble, "ProcessPoolExecutor", lambda _cls: CountingPool)

        def chunks(fn: Callable) -> Callable:
            def wrapper(*args: Any, **kwargs: Any):
                parts = fn(*args, **kwargs)
                probes.add("experiments.chunks", len(parts))
                return parts

            return wrapper

        self._patch(ensemble, "seed_chunks", chunks)
        for module in (e5, e13):
            self._patch(module, "run_ensemble", self._ensemble)

    def _ensemble(self, fn: Callable) -> Callable:
        probes = self

        def wrapper(run_one: Callable, seeds: Any, *args: Any, **kwargs: Any):
            from repro.experiments.ensemble import resolve_jobs

            jobs = resolve_jobs(kwargs.get("jobs", args[0] if args else 1))
            probes.add("experiments.ensemble_calls", 1)
            if jobs == 1:
                # Serial: seed compute is observable here.  (A pooled
                # call must keep its picklable run_one untouched.)
                seed_cell = probes.cell("experiments.seed_compute")
                run_one = hot(run_one, seed_cell)
            index = probes.open("experiments.run_ensemble", jobs=jobs)
            try:
                return fn(run_one, seeds, *args, **kwargs)
            finally:
                probes.close(index)

        return wrapper

    def _core_run(self, fn: Callable) -> Callable:
        probes = self

        def wrapper(*args: Any, **kwargs: Any):
            probes.add("core.runs", 1)
            index = probes.open("core.run")
            probes._build_start = probes.spans[index][1]
            try:
                return fn(*args, **kwargs)
            finally:
                probes._build_start = None
                probes.close(index)

        return wrapper

    def _hot_totals(self) -> Tuple[int, int]:
        calls = ns = 0
        for name, (c, t) in self.cells.items():
            if name.startswith(("sched.select.", "shm.ops.")) or name in (
                "objectives.gradient",
                "runtime.stop_check",
            ):
                calls += c
                ns += t
        return calls, ns

    def _loop(self, fn: Callable, kind: str) -> Callable:
        probes = self
        stop_cell = self.cell("runtime.stop_check")

        def wrapper(sim: Any, *args: Any, **kwargs: Any):
            if probes._loop_depth:
                # run_fast delegating to run(): the outer call accounts.
                probes._loop_kind = "step"
                return fn(sim, *args, **kwargs)
            if kwargs.get("stop") is not None:
                kwargs["stop"] = hot(kwargs["stop"], stop_cell)
            start = perf_ns()
            if probes._build_start is not None:
                probes.add("core.build_ns", start - probes._build_start)
                probes._build_start = None
            probes._loop_depth = 1
            probes._loop_kind = kind
            steps0, log0 = sim.now, len(sim.memory.log)
            calls0, ns0 = probes._hot_totals()
            index = probes.open("runtime.loop")
            try:
                return fn(sim, *args, **kwargs)
            finally:
                probes.close(index)
                probes._loop_depth = 0
                calls1, ns1 = probes._hot_totals()
                probes.add("runtime.hot_calls", calls1 - calls0)
                probes.add("runtime.hot_ns", ns1 - ns0)
                steps = sim.now - steps0
                probes.add(f"runtime.{probes._loop_kind}_loop_steps", steps)
                probes.add("shm.log_records", len(sim.memory.log) - log0)

        return wrapper

    def _drain(self, fn: Callable) -> Callable:
        probes = self

        def wrapper(analyzer: Any, sim: Any):
            probes.add("analysis.sanitizer_ops", len(sim.memory.log) - analyzer._cursor)
            index = probes.open("analysis.sanitizer")
            try:
                return fn(analyzer, sim)
            finally:
                probes.close(index)

        return wrapper

    def _finish(self, fn: Callable) -> Callable:
        probes = self
        traced = self.spanned("analysis.sanitizer", fn)

        def wrapper(analyzer: Any, sim: Any):
            try:
                return traced(analyzer, sim)
            finally:
                probes.add("analysis.findings", len(analyzer.findings))

        return wrapper

    # -- results -----------------------------------------------------
    def span_totals(self) -> Dict[str, Tuple[int, int, int]]:
        """name -> (calls, total ns, self ns)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _args in self.spans:
            if parent is not None and end is not None:
                child_ns[parent] += end - start
        totals: Dict[str, List[int]] = {}
        for index, (name, start, end, _parent, _args) in enumerate(self.spans):
            duration = (end if end is not None else start) - start
            row = totals.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += duration
            row[2] += duration - child_ns[index]
        return {name: tuple(row) for name, row in totals.items()}

    def covered_ns(self) -> int:
        """Wall time inside any top-level span (the named layers)."""
        return sum(
            end - start
            for _name, start, end, parent, _args in self.spans
            if parent is None and end is not None
        )

    def per_step_ns(self, cal: Dict[str, float]) -> Dict[str, Tuple[int, float]]:
        """Per-step cell -> (calls, probe-corrected total ns)."""
        clock = cal["clock_ns"]
        return {
            name: (calls, max(0.0, ns - calls * clock))
            for name, (calls, ns) in self.cells.items()
            if name != "durable.appends" and name != "experiments.seed_compute"
        }

    def resume_ns(self, cal: Dict[str, float]) -> float:
        """Loop time minus the per-step layers and the probes' own cost."""
        loop_ns = self.span_totals().get("runtime.loop", (0, 0, 0))[1]
        calls = self.counts.get("runtime.hot_calls", 0)
        hot_ns = self.counts.get("runtime.hot_ns", 0)
        inner = hot_ns - calls * cal["clock_ns"]
        return max(0.0, loop_ns - calls * cal["wrapper_ns"] - inner)

    def chrome_trace(self, pid: int = 0) -> List[Dict[str, Any]]:
        origin = self.spans[0][1] if self.spans else 0
        events = []
        for index, (name, start, end, parent, args) in enumerate(self.spans):
            end = end if end is not None else start
            payload: Dict[str, Any] = {"span_id": index + 1}
            if parent is not None:
                payload["parent_id"] = parent + 1
            payload.update(args)
            events.append(
                {
                    "name": name,
                    "ph": "X",
                    "ts": round((start - origin) / 1e3, 3),
                    "dur": round((end - start) / 1e3, 3),
                    "pid": pid,
                    "tid": 0,
                    "args": payload,
                }
            )
        return events


def layer_metrics(
    per_step: Optional[LayerProbes],
    campaign: Optional[LayerProbes],
    cal: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer figures of one traced workload.

    ``per_step`` is the pass that ran the simulations in this process
    (every probe on); ``campaign`` is the pass whose pool, ensemble and
    journal costs count (the same object for a serial workload).
    Layers a workload never enters read 0.
    """
    out: Dict[str, float] = {}
    if per_step is not None:
        cells = per_step.per_step_ns(cal)
        spans = per_step.span_totals()
        counts = per_step.counts

        def per_call(name: str) -> float:
            calls, ns = cells.get(name, (0, 0.0))
            return ns / calls if calls else 0.0

        for adversary in ADVERSARIES:
            out[f"sched.select_ns.{adversary}"] = per_call(f"sched.select.{adversary}")
        select_ns = sum(ns for n, (_c, ns) in cells.items() if n.startswith("sched."))
        loop_calls = counts.get("runtime.hot_calls", 0)
        loop_ns = spans.get("runtime.loop", (0, 0, 0))[1]
        loop_real = max(0.0, loop_ns - loop_calls * cal["wrapper_ns"])
        fast = counts.get("runtime.fast_loop_steps", 0)
        step = counts.get("runtime.step_loop_steps", 0)
        out["sched.select_share"] = select_ns / loop_real if loop_real else 0.0
        out["runtime.steps"] = fast + step
        out["runtime.fast_loop_steps"] = fast
        out["runtime.step_loop_steps"] = step
        out["runtime.loop_s"] = loop_real / 1e9
        out["runtime.resume_ns_per_step"] = (
            per_step.resume_ns(cal) / (fast + step) if fast + step else 0.0
        )
        out["runtime.stop_check_ns"] = per_call("runtime.stop_check")
        dispatch_calls = dispatch_ns = 0.0
        for op in OPCODES:
            calls, ns = cells.get(f"shm.ops.{op}", (0, 0.0))
            dispatch_calls += calls
            dispatch_ns += ns
            if op != "noop":
                out[f"shm.ops.{op}"] = calls
        out["shm.dispatch_ns"] = dispatch_ns / dispatch_calls if dispatch_calls else 0.0
        out["shm.log_records"] = counts.get("shm.log_records", 0)
        out["objectives.gradient_calls"] = cells.get("objectives.gradient", (0, 0))[0]
        out["objectives.gradient_ns"] = per_call("objectives.gradient")
        out["core.runs"] = counts.get("core.runs", 0)
        out["core.build_s"] = counts.get("core.build_ns", 0) / 1e9
        out["core.records_s"] = spans.get("core.records", (0, 0, 0))[1] / 1e9
        out["core.trajectory_s"] = spans.get("core.trajectory", (0, 0, 0))[1] / 1e9
        ops = counts.get("analysis.sanitizer_ops", 0)
        sanitizer_ns = spans.get("analysis.sanitizer", (0, 0, 0))[1]
        out["analysis.sanitizer_ops"] = ops
        out["analysis.sanitizer_ns_per_op"] = sanitizer_ns / ops if ops else 0.0
        out["analysis.certify_s"] = spans.get("analysis.certify", (0, 0, 0))[1] / 1e9
        out["analysis.findings"] = counts.get("analysis.findings", 0)
    if campaign is not None:
        spans = campaign.span_totals()
        counts = campaign.counts
        pools = counts.get("experiments.pool_starts", 0)
        chunks = counts.get("experiments.chunks", 0)
        out["experiments.ensemble_calls"] = counts.get("experiments.ensemble_calls", 0)
        out["experiments.pool_starts"] = pools
        out["experiments.chunks"] = chunks
        out["experiments.chunk_retries"] = max(
            0, counts.get("experiments.submits", 0) - chunks
        )
        ensemble_s = spans.get("experiments.run_ensemble", (0, 0, 0))[1] / 1e9
        # Seed compute is only observable where seeds ran in-process:
        # the serial per-step pass stands in for the pool's workers.
        source = per_step if per_step is not None else campaign
        compute_s = source.cells.get("experiments.seed_compute", [0, 0])[1] / 1e9
        jobs = 2 if pools else 1
        busy_wall = spans.get("experiments.pool", (0, 0, 0))[1] / 1e9 if pools else ensemble_s
        out["experiments.overhead_s"] = max(0.0, ensemble_s - compute_s / jobs)
        out["experiments.worker_busy_frac"] = (
            compute_s / (jobs * busy_wall) if busy_wall else 0.0
        )
        journal_ns = sum(
            total for name, (_c, total, _s) in spans.items()
            if name.startswith("durable.journal.")
        )
        out["durable.journal_records"] = spans.get(
            "durable.journal.record", (0, 0, 0)
        )[0]
        out["durable.journal_s"] = journal_ns / 1e9
        out["durable.appends"] = campaign.cells.get("durable.appends", [0, 0])[0]
    return out


def self_time_rows(
    layer: LayerProbes, cal: Dict[str, float]
) -> Dict[str, Tuple[int, float, float]]:
    """``name -> (calls, total s, self s)`` over spans and per-step cells.

    The loop's self time is what remains after the per-step layers and
    the probes' own cost: generator resume plus loop bookkeeping.
    """
    rows = {
        name: (calls, total / 1e9, own / 1e9)
        for name, (calls, total, own) in layer.span_totals().items()
    }
    if "runtime.loop" in rows:
        calls, total, _own = rows["runtime.loop"]
        rows["runtime.loop"] = (calls, total, layer.resume_ns(cal) / 1e9)
        hot_calls = int(layer.counts.get("runtime.hot_calls", 0))
        cost = hot_calls * cal["wrapper_ns"] / 1e9
        rows["probe overhead"] = (hot_calls, cost, cost)
    for name, (calls, ns) in layer.per_step_ns(cal).items():
        if calls:
            rows[name] = (calls, ns / 1e9, ns / 1e9)
    return rows


def self_time_table(rows: Dict[str, Tuple[int, float, float]]) -> str:
    """Render ``name -> (calls, total s, self s)`` sorted by self time."""
    lines = [f"{'span':<34} {'calls':>9} {'total_s':>10} {'self_s':>10}"]
    for name, (calls, total, self_s) in sorted(
        rows.items(), key=lambda item: -item[1][2]
    ):
        lines.append(f"{name:<34} {calls:>9} {total:>10.4f} {self_s:>10.4f}")
    return "\n".join(lines) + "\n"


def write_trace(path: Any, events: List[Dict[str, Any]]) -> None:
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
