"""Static lint pass over program generators and the repro source tree.

``python -m repro lint [paths]`` parses every ``.py`` file it is given
and flags, without executing anything:

* **atomicity hazards** in simulated programs — generator functions that
  yield :class:`~repro.shm.ops.Operation` descriptors and both read and
  plainly write the same shared handle (the lost-update pattern the
  sanitizer catches dynamically, rule ``RPL101``), yields of values
  that are plainly not operations (``RPL102``), and direct mutation of
  shared handles from inside a program — subscript stores,
  ``.load()``/``.poke()``/``.store()`` calls or raw ``._values``
  access, all of which bypass the scheduler and the op log
  (``RPL103``);
* **health-detector purity** — classes named ``*Detector`` (or deriving
  from ``HealthDetector``) are the read-only observers of
  :mod:`repro.heal.detectors`; any ``.poke()``/``.store()`` call,
  ``memory.load()`` or raw ``._values`` access inside one would make
  the observer part of the fault model it is supposed to watch
  (``RPL104``);
* **determinism hazards** anywhere in the tree — wall-clock reads
  (``RPD201``), draws from the global ``random`` / ``numpy.random``
  singletons instead of seeded :class:`~repro.runtime.rng.RngStream`
  coins (``RPD202``), and iteration over set displays whose order is
  hash-dependent (``RPD203``).

Intentional exceptions carry an inline waiver — ``# repro: allow(RULE)``
on the flagged line — the same way the ``use_write`` ablation in
:mod:`repro.core.epoch_sgd` deliberately reproduces the paper's
lost-update failure mode.

Reports are deterministic: findings sort by (path, line, rule) and use
the paths exactly as given, so CI output is byte-stable.
"""

from __future__ import annotations

import ast
import pathlib
import re
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.report import Finding

#: Rule id -> one-line description (the table DESIGN.md §11 documents).
RULES: Dict[str, str] = {
    "RPL101": (
        "non-atomic read-modify-write: a program reads and plainly "
        "writes the same shared handle (lost-update hazard; use "
        "fetch_add_op/cas_op)"
    ),
    "RPL102": (
        "program yields a value that is not an Operation descriptor"
    ),
    "RPL103": (
        "program mutates a shared handle outside the op DSL (subscript "
        "assignment, .load()/.poke()/.store(), or ._values access): "
        "such writes bypass the scheduler, the op log and the analyzers"
    ),
    "RPL104": (
        "health detector mutates simulation state (.poke()/.store(), "
        "memory.load(), or ._values access): detectors are read-only "
        "observers — peek at chunk boundaries, never write"
    ),
    "RPL105": (
        "unbounded `while True:` retry loop in a program generator: a "
        "spin with no bounded-attempt guard makes exhaustive schedule "
        "enumeration (repro verify) non-terminating; bound the attempts "
        "or annotate an intentional spin with `# repro: allow(RPL105)`"
    ),
    "RPL106": (
        "direct timing call in a serve handler (time.time/time."
        "monotonic/time.sleep, or a sleep with a literal delay): all "
        "job-server timing must go through the injectable ServeClock so "
        "deadlines, backoff and slow-loris cutoffs are testable with a "
        "fake clock"
    ),
    "RPL107": (
        "interpolated span name (f-string, concatenation, or variable "
        "first argument to trace_span/causal_span or a recorder's "
        "span/event/record): span names are the cardinality axis of "
        "every trace viewer — use a dotted lowercase literal like "
        "'serve.attempt' and put variable data in key=/args"
    ),
    "RPD201": (
        "wall-clock read (time.time/perf_counter/datetime.now ...): "
        "feeds nondeterminism into simulated traces"
    ),
    "RPD202": (
        "draw from the global random/numpy.random singleton: use a "
        "seeded RngStream (thread-local coins) instead"
    ),
    "RPD203": (
        "iteration over a set display/call: order is hash-dependent "
        "and not stable across runs"
    ),
    "RPD204": (
        "wall-clock-named key in a report payload builder: span/timing "
        "durations belong in the obs/trace stream, never in "
        "byte-identity-checked reports"
    ),
}

_ALLOW_PRAGMA = re.compile(r"#\s*repro:\s*allow\(([A-Z0-9,\s]+)\)")

#: Operation descriptor class names (yielding a call to one of these
#: marks a generator as a simulated program).
_OPERATION_CLASSES = {
    "Read",
    "Write",
    "FetchAdd",
    "CompareAndSwap",
    "DoubleCompareSingleSwap",
    "GuardedFetchAdd",
    "Noop",
}

#: Dotted-name suffixes that read a wall clock.
_WALL_CLOCK_SUFFIXES = (
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
)

#: Global-singleton draws on the stdlib random module.
_STDLIB_RANDOM_DRAWS = {
    "random",
    "randint",
    "randrange",
    "uniform",
    "gauss",
    "normalvariate",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "seed",
    "getrandbits",
    "betavariate",
    "expovariate",
}

#: Methods that mutate a shared handle directly, bypassing the op DSL
#: (legitimate in drivers before/after a run, never inside a program).
_DIRECT_MUTATORS = {"load", "poke", "store"}

#: Dotted-name suffixes RPL106 bans outright inside ``repro/serve/``
#: sources: clock reads and the blocking sleep.  ``asyncio.sleep`` /
#: ``asyncio.wait_for`` are additionally banned when their delay is a
#: numeric literal (a policy- or clock-derived delay at least routes
#: through one injectable seam).  The one legitimate home for these
#: calls is ``repro/serve/clock.py`` itself, behind ``# repro:
#: allow(RPL106)`` pragmas.
_SERVE_TIMING_SUFFIXES = ("time.time", "time.monotonic", "time.sleep")
_SERVE_LITERAL_SLEEPS = ("asyncio.sleep", "asyncio.wait_for")

#: RPL107 (span-name hygiene): span names must match this — dotted
#: lowercase literals with at least two components.
_SPAN_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")

#: Free functions whose first argument is a span name.
_SPAN_CALL_TAILS = ("trace_span", "causal_span")

#: Methods whose first argument is a span name, when called on a
#: receiver that looks like a span recorder (``recorder.span(...)``,
#: ``self.causal.record(...)``).
_SPAN_METHODS = ("span", "event", "record")
_SPAN_RECEIVER_RE = re.compile(r"(recorder|causal)", re.IGNORECASE)

#: Identifier fragments that signal a bounded-attempt guard inside a
#: retry loop (``attempts``, ``max_iterations``, ``budget`` ...).  A
#: ``while True:`` whose body compares against one of these is treated
#: as bounded for RPL105; anything else spins at the adversary's mercy
#: and would hand the schedule enumerator an infinite tree.
_BOUNDED_GUARD_NAME = re.compile(
    r"attempt|retr|budget|max|bound|limit|quota|epochs", re.IGNORECASE
)

#: Functions whose return value is (by repo convention) a serialized
#: report payload whose bytes CI pins — the places RPD204 watches.
_REPORT_BUILDER_NAMES = {
    "to_json",
    "as_dict",
    "to_payload",
    "snapshot",
    "deterministic_snapshot",
}

#: Key names that smell like wall-clock measurements.  A span duration
#: in a pinned report breaks byte-identity between runs (and between
#: ``--jobs`` values); such numbers go to the Chrome trace / metrics
#: exposition instead, where nothing asserts byte equality.
_WALL_CLOCK_KEY = re.compile(
    r"wall|monotonic|elapsed|duration|_secs|seconds|perf", re.IGNORECASE
)

#: Global-singleton draws on numpy.random (constructing seeded
#: Generators — SeedSequence, PCG64, default_rng, Generator — is fine).
_NUMPY_RANDOM_DRAWS = {
    "rand",
    "randn",
    "randint",
    "random",
    "random_sample",
    "choice",
    "shuffle",
    "permutation",
    "seed",
    "normal",
    "uniform",
    "standard_normal",
}


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_constant_expression(node: ast.AST) -> bool:
    """Whether a yielded value is statically a non-Operation value."""
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
        return True
    if isinstance(node, ast.Dict):
        return True
    if isinstance(node, ast.UnaryOp):
        return _is_constant_expression(node.operand)
    if isinstance(node, ast.BinOp):
        return _is_constant_expression(node.left) and _is_constant_expression(
            node.right
        )
    return False


def _yield_values(
    function: Union[ast.FunctionDef, ast.AsyncFunctionDef],
) -> List[ast.expr]:
    """All ``yield``/``yield from`` value expressions in ``function``,
    excluding nested function definitions (their yields are theirs)."""
    values: List[ast.expr] = []

    class _Collector(ast.NodeVisitor):
        def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
            if node is not function:
                return  # do not descend into nested defs
            self.generic_visit(node)

        visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

        def visit_Lambda(self, node: ast.Lambda) -> None:
            return

        def visit_Yield(self, node: ast.Yield) -> None:
            if node.value is not None:
                values.append(node.value)
            self.generic_visit(node)

    _Collector().visit(function)
    return values


def _op_calls(
    value: ast.expr, bindings: Dict[str, List[ast.Call]]
) -> List[ast.Call]:
    """The op-constructor calls (``x.read_op(...)``, ``FetchAdd(...)``,
    ...) that ``value`` is or holds: the call itself, the calls in a
    tuple, list or comprehension of them (``tuple(...)`` included), or
    the calls ``bindings`` holds for a name, subscripted or not."""
    if isinstance(value, ast.Call):
        func = value.func
        if isinstance(func, ast.Attribute) and func.attr.endswith("_op"):
            return [value]
        if isinstance(func, ast.Name) and func.id in _OPERATION_CLASSES:
            return [value]
        if (
            isinstance(func, ast.Name)
            and func.id in ("tuple", "list")
            and len(value.args) == 1
        ):
            return _op_calls(value.args[0], bindings)
        return []
    if isinstance(value, (ast.Tuple, ast.List)):
        return [
            call for element in value.elts for call in _op_calls(element, bindings)
        ]
    if isinstance(value, (ast.GeneratorExp, ast.ListComp)):
        return _op_calls(value.elt, bindings)
    if isinstance(value, ast.Subscript):
        value = value.value
    if isinstance(value, ast.Name):
        return bindings.get(value.id, [])
    return []


def _op_bindings(
    function: Union[ast.FunctionDef, ast.AsyncFunctionDef],
) -> Dict[str, List[ast.Call]]:
    """Names ``function`` binds to op-constructor calls, so a program
    that builds its descriptors once and yields ``name`` or ``name[i]``
    is checked as if it yielded the calls themselves."""
    bindings: Dict[str, List[ast.Call]] = {}

    class _Assignments(ast.NodeVisitor):
        def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
            if node is function:
                self.generic_visit(node)

        visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

        def visit_Lambda(self, node: ast.Lambda) -> None:
            return

        def visit_Assign(self, node: ast.Assign) -> None:
            calls = _op_calls(node.value, bindings)
            if calls:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bindings[target.id] = calls
            self.generic_visit(node)

    _Assignments().visit(function)
    return bindings


class _LoopScanner(ast.NodeVisitor):
    """Walks a loop body without descending into nested defs/lambdas."""

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        return

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Lambda(self, node: ast.Lambda) -> None:
        return


def _loop_yields(loop: ast.While) -> bool:
    """Whether the loop body takes simulated steps (contains a yield)."""
    found = False

    class _Yields(_LoopScanner):
        def visit_Yield(self, node: ast.Yield) -> None:
            nonlocal found
            found = True

        def visit_YieldFrom(self, node: ast.YieldFrom) -> None:
            nonlocal found
            found = True

    scanner = _Yields()
    for statement in loop.body:
        scanner.visit(statement)
    return found


def _loop_has_bounded_guard(loop: ast.While) -> bool:
    """Whether some comparison in the loop body mentions a bound-like
    name (``attempts``, ``max_iterations``, ``retry_budget``, ...) —
    the shape of every legitimate bounded retry in this codebase."""
    found = False

    class _Guards(_LoopScanner):
        def visit_Compare(self, node: ast.Compare) -> None:
            nonlocal found
            for sub in ast.walk(node):
                name = _dotted_name(sub)
                if name is not None and _BOUNDED_GUARD_NAME.search(name):
                    found = True
                    return
            self.generic_visit(node)

    scanner = _Guards()
    for statement in loop.body:
        scanner.visit(statement)
    return found


class _Linter(ast.NodeVisitor):
    """Single-pass AST visitor producing :class:`Finding` objects."""

    def __init__(self, path: str, source_lines: Sequence[str]) -> None:
        self.path = path
        self.lines = source_lines
        self.findings: List[Finding] = []
        self._function_stack: List[str] = []
        #: RPL106 scope: the job-server package (any path with a
        #: ``serve`` directory component).
        self._serve_scope = "serve" in pathlib.PurePath(path).parts

    # -- plumbing -------------------------------------------------------
    def _allowed(self, line: int) -> Set[str]:
        if 1 <= line <= len(self.lines):
            match = _ALLOW_PRAGMA.search(self.lines[line - 1])
            if match:
                return {r.strip() for r in match.group(1).split(",") if r.strip()}
        return set()

    def _flag(self, rule: str, line: int, message: str) -> None:
        if rule in self._allowed(line):
            return
        self.findings.append(
            Finding(
                source="lint",
                rule=rule,
                message=message,
                location=f"{self.path}:{line}",
            )
        )

    # -- determinism rules (whole tree) ---------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        name = _dotted_name(node.func)
        if name is not None:
            self._check_wall_clock(node, name)
            self._check_global_random(node, name)
            self._check_serve_timing(node, name)
            self._check_span_name(node, name)
        self.generic_visit(node)

    def _check_span_name(self, node: ast.Call, name: str) -> None:
        """RPL107: span names are dotted lowercase literals, never
        interpolated — per-value names explode trace-viewer
        cardinality; variable data belongs in ``key=``/args."""
        parts = name.split(".")
        tail = parts[-1]
        if tail in _SPAN_CALL_TAILS:
            pass
        elif (
            tail in _SPAN_METHODS
            and len(parts) > 1
            and _SPAN_RECEIVER_RE.search(".".join(parts[:-1]))
        ):
            pass
        else:
            return
        argument: Optional[ast.expr] = node.args[0] if node.args else None
        if argument is None:
            for keyword in node.keywords:
                if keyword.arg == "name":
                    argument = keyword.value
                    break
        if argument is None:
            return
        if isinstance(argument, ast.Constant):
            if isinstance(argument.value, str) and not _SPAN_NAME_RE.match(
                argument.value
            ):
                self._flag(
                    "RPL107",
                    node.lineno,
                    f"span name {argument.value!r} is not a dotted "
                    f"lowercase literal (want e.g. 'serve.attempt')",
                )
            return
        kind = (
            "an f-string"
            if isinstance(argument, ast.JoinedStr)
            else "a dynamic expression"
        )
        self._flag(
            "RPL107",
            node.lineno,
            f"span name passed to {tail}() is {kind}: use a dotted "
            f"lowercase literal and carry variable data in key=/args "
            f"(cardinality hazard)",
        )

    def _check_serve_timing(self, node: ast.Call, name: str) -> None:
        """RPL106: inside ``repro/serve/``, timing never bypasses the
        injectable clock.  Clock reads and ``time.sleep`` are flagged
        outright; ``asyncio.sleep``/``asyncio.wait_for`` are flagged
        when a delay argument is a numeric literal."""
        if not self._serve_scope:
            return
        for suffix in _SERVE_TIMING_SUFFIXES:
            if name == suffix or name.endswith("." + suffix):
                self._flag(
                    "RPL106",
                    node.lineno,
                    f"serve handler calls {name}() directly: route all "
                    f"timing through the injectable ServeClock "
                    f"(clock.monotonic/clock.sleep) so it is fake-clock "
                    f"testable",
                )
                return
        for suffix in _SERVE_LITERAL_SLEEPS:
            if name == suffix or name.endswith("." + suffix):
                arguments = list(node.args) + [
                    keyword.value
                    for keyword in node.keywords
                    if keyword.arg in ("delay", "timeout")
                ]
                if any(
                    isinstance(argument, ast.Constant)
                    and isinstance(argument.value, (int, float))
                    and not isinstance(argument.value, bool)
                    for argument in arguments
                ):
                    self._flag(
                        "RPL106",
                        node.lineno,
                        f"serve handler calls {name}() with a literal "
                        f"delay: delays come from the policy and sleeps "
                        f"go through the injectable ServeClock",
                    )
                return

    def _check_wall_clock(self, node: ast.Call, name: str) -> None:
        for suffix in _WALL_CLOCK_SUFFIXES:
            if name == suffix or name.endswith("." + suffix):
                self._flag(
                    "RPD201",
                    node.lineno,
                    f"wall-clock call {name}() — simulated time is "
                    f"Clock.now; wall clocks make traces irreproducible",
                )
                return

    def _check_global_random(self, node: ast.Call, name: str) -> None:
        parts = name.split(".")
        if len(parts) == 2 and parts[0] == "random":
            if parts[1] in _STDLIB_RANDOM_DRAWS:
                self._flag(
                    "RPD202",
                    node.lineno,
                    f"global-random draw {name}() — draw from a seeded "
                    f"RngStream (ctx.rng) instead",
                )
            return
        if len(parts) >= 3 and parts[-3] in ("np", "numpy") and parts[-2] == "random":
            if parts[-1] in _NUMPY_RANDOM_DRAWS:
                self._flag(
                    "RPD202",
                    node.lineno,
                    f"global-random draw {name}() — use a seeded "
                    f"numpy Generator (RngStream) instead",
                )

    def visit_For(self, node: ast.For) -> None:
        iterable = node.iter
        is_set = isinstance(iterable, ast.Set) or (
            isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Name)
            and iterable.func.id in ("set", "frozenset")
        )
        if is_set:
            self._flag(
                "RPD203",
                node.lineno,
                "iterating a set: wrap in sorted(...) so the order is "
                "deterministic",
            )
        self.generic_visit(node)

    # -- report-payload rule (RPD204) -----------------------------------
    def visit_Dict(self, node: ast.Dict) -> None:
        builder = next(
            (
                name
                for name in reversed(self._function_stack)
                if name in _REPORT_BUILDER_NAMES
            ),
            None,
        )
        if builder is not None:
            for key in node.keys:
                if (
                    isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                    and _WALL_CLOCK_KEY.search(key.value)
                ):
                    self._flag(
                        "RPD204",
                        key.lineno,
                        f"wall-clock-named key {key.value!r} in report "
                        f"builder {builder}(): pinned reports must stay "
                        f"byte-identical across runs — emit durations via "
                        f"the obs metrics/trace stream instead",
                    )
        self.generic_visit(node)

    # -- detector purity (RPL104) ---------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._is_detector_class(node):
            self._check_detector_purity(node)
        self.generic_visit(node)

    @staticmethod
    def _is_detector_class(node: ast.ClassDef) -> bool:
        if node.name.endswith("Detector"):
            return True
        for base in node.bases:
            name = _dotted_name(base)
            if name is not None and name.split(".")[-1] == "HealthDetector":
                return True
        return False

    def _check_detector_purity(self, node: ast.ClassDef) -> None:
        """RPL104: a health detector observes; it never writes.  Flags
        ``.poke()``/``.store()`` on any receiver, ``.load()`` on a
        memory-looking receiver (``json.load`` and friends stay legal),
        and raw ``._values`` access, anywhere in the class body."""
        linter = self

        class _Impurities(ast.NodeVisitor):
            def visit_Call(self, call: ast.Call) -> None:
                func = call.func
                if isinstance(func, ast.Attribute):
                    receiver = _dotted_name(func.value)
                    memoryish = receiver is not None and (
                        receiver.split(".")[-1] == "memory"
                    )
                    if func.attr in ("poke", "store") or (
                        func.attr == "load" and memoryish
                    ):
                        linter._flag(
                            "RPL104",
                            call.lineno,
                            f"detector {node.name} calls "
                            f"{receiver or '<expr>'}.{func.attr}(...): "
                            f"detectors are read-only observers — peek "
                            f"only, never mutate the simulation",
                        )
                self.generic_visit(call)

            def visit_Attribute(self, attribute: ast.Attribute) -> None:
                if attribute.attr == "_values":
                    linter._flag(
                        "RPL104",
                        attribute.lineno,
                        f"detector {node.name} reaches into raw memory "
                        f"storage (._values): observe through peek/"
                        f"peek_range only",
                    )
                self.generic_visit(attribute)

        for item in node.body:
            _Impurities().visit(item)

    # -- program rules (op-yielding generators only) --------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_program(node)
        self._function_stack.append(node.name)
        try:
            self.generic_visit(node)
        finally:
            self._function_stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_program(node)
        self._function_stack.append(node.name)
        try:
            self.generic_visit(node)
        finally:
            self._function_stack.pop()

    def _check_program(
        self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    ) -> None:
        """A generator counts as a simulated program when at least one
        of its yields is, or stands for, an op-constructor call."""
        values = _yield_values(node)
        bindings = _op_bindings(node) if values else {}
        yielded = [(value, _op_calls(value, bindings)) for value in values]
        if not any(calls for _, calls in yielded):
            return
        reads: Dict[str, int] = {}
        writes: List[Tuple[str, int]] = []
        op_receivers: Set[str] = set()
        for value, calls in yielded:
            if _is_constant_expression(value):
                self._flag(
                    "RPL102",
                    value.lineno,
                    "yield of a non-Operation value: programs must yield "
                    "Operation descriptors",
                )
                continue
            for call in calls:
                func = call.func
                receiver: Optional[str] = None
                accessor: Optional[str] = None
                if isinstance(func, ast.Attribute):
                    receiver = _dotted_name(func.value)
                    accessor = func.attr
                elif isinstance(func, ast.Name):
                    # Direct descriptor: key on the address expression text.
                    address = self._address_argument(call)
                    if address is not None:
                        receiver = address
                        accessor = {"Read": "read_op", "Write": "write_op"}.get(
                            func.id
                        )
                if receiver is None or accessor is None:
                    continue
                op_receivers.add(receiver)
                if accessor in ("read_op", "read_count_op"):
                    reads.setdefault(receiver, value.lineno)
                elif accessor == "write_op":
                    writes.append((receiver, value.lineno))
        for receiver, line in writes:
            if receiver in reads:
                self._flag(
                    "RPL101",
                    line,
                    f"non-atomic read-modify-write on {receiver!r}: the "
                    f"program reads it (line {reads[receiver]}) and later "
                    f"plainly writes it — concurrent updates in between "
                    f"are lost; use fetch_add_op or cas_op",
                )
        self._check_direct_mutation(node, op_receivers)
        self._check_unbounded_retry(node)

    def _check_unbounded_retry(
        self, function: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    ) -> None:
        """RPL105: every ``while True:`` in a program generator that
        takes simulated steps (contains a yield) must either compare
        against a bound (``attempts``, ``max_iterations``, ...) on some
        path or carry an explicit ``# repro: allow(RPL105)`` waiver —
        otherwise the schedule tree the verify enumerator walks is
        infinite (an adversary can spin the loop forever)."""
        linter = self

        class _Loops(ast.NodeVisitor):
            def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
                if node is not function:
                    return  # nested defs lint on their own
                self.generic_visit(node)

            visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

            def visit_Lambda(self, node: ast.Lambda) -> None:
                return

            def visit_While(self, node: ast.While) -> None:
                if (
                    isinstance(node.test, ast.Constant)
                    and node.test.value is True
                    and _loop_yields(node)
                    and not _loop_has_bounded_guard(node)
                ):
                    linter._flag(
                        "RPL105",
                        node.lineno,
                        "unbounded `while True:` retry loop takes "
                        "simulated steps with no bounded-attempt guard: "
                        "exhaustive enumeration of this program cannot "
                        "terminate — bound the attempts, or mark an "
                        "intentional spin with `# repro: allow(RPL105)`",
                    )
                self.generic_visit(node)

        _Loops().visit(function)

    def _check_direct_mutation(
        self,
        function: Union[ast.FunctionDef, ast.AsyncFunctionDef],
        receivers: Set[str],
    ) -> None:
        """RPL103: inside an op-yielding program, shared handles the
        program addresses through the DSL must never be mutated directly
        — a subscript store, ``.load()``/``.poke()``/``.store()``, or a
        reach into ``._values`` skips the scheduler interleaving, the
        operation log and every analyzer built on them."""
        linter = self

        class _Mutations(ast.NodeVisitor):
            def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
                if node is not function:
                    return  # nested defs lint on their own
                self.generic_visit(node)

            visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

            def visit_Lambda(self, node: ast.Lambda) -> None:
                return

            def _check_target(self, target: ast.expr) -> None:
                if isinstance(target, ast.Subscript):
                    name = _dotted_name(target.value)
                    if name is not None and name in receivers:
                        linter._flag(
                            "RPL103",
                            target.lineno,
                            f"direct subscript store into shared handle "
                            f"{name!r}: model coordinates must change "
                            f"through yielded shm ops only",
                        )

            def visit_Assign(self, node: ast.Assign) -> None:
                for target in node.targets:
                    self._check_target(target)
                self.generic_visit(node)

            def visit_AugAssign(self, node: ast.AugAssign) -> None:
                self._check_target(node.target)
                self.generic_visit(node)

            def visit_Call(self, node: ast.Call) -> None:
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _DIRECT_MUTATORS
                ):
                    name = _dotted_name(func.value)
                    if name is not None and name in receivers:
                        linter._flag(
                            "RPL103",
                            node.lineno,
                            f"direct mutation {name}.{func.attr}(...) of a "
                            f"shared handle inside a program: bulk stores "
                            f"belong in the driver, before the run",
                        )
                self.generic_visit(node)

            def visit_Attribute(self, node: ast.Attribute) -> None:
                if node.attr == "_values":
                    linter._flag(
                        "RPL103",
                        node.lineno,
                        "program reaches into raw memory storage "
                        "(._values): every access must be a yielded op",
                    )
                self.generic_visit(node)

        _Mutations().visit(function)

    @staticmethod
    def _address_argument(call: ast.Call) -> Optional[str]:
        for keyword in call.keywords:
            if keyword.arg == "address":
                return ast.dump(keyword.value)
        if call.args:
            return ast.dump(call.args[0])
        return None


def _lint_sort_key(finding: Finding) -> Tuple[str, int, str, str]:
    """(path, numeric line, rule, message) — numeric so line 2 sorts
    before line 10."""
    path, _, line = finding.location.rpartition(":")
    return (path, int(line) if line.isdigit() else 0, finding.rule, finding.message)


def lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Lint one module's source text; returns findings in canonical
    order.  Syntax errors are reported as a single ``RPL000`` error."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                source="lint",
                rule="RPL000",
                message=f"syntax error: {exc.msg}",
                location=f"{path}:{exc.lineno or 0}",
            )
        ]
    linter = _Linter(path, source.splitlines())
    linter.visit(tree)
    return sorted(linter.findings, key=_lint_sort_key)


def iter_python_files(paths: Iterable[str]) -> List[pathlib.Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    collected: Set[pathlib.Path] = set()
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            collected.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            collected.add(path)
    return sorted(collected)


def lint_paths(paths: Iterable[str]) -> List[Finding]:
    """Lint every ``.py`` file under ``paths``; canonical order."""
    findings: List[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(
            lint_source(path.read_text(encoding="utf-8"), str(path))
        )
    return sorted(findings, key=_lint_sort_key)


def render_findings(findings: Sequence[Finding]) -> str:
    """The ``repro lint`` artifact: one line per finding plus a tally."""
    lines = [
        f"{f.location}: {f.rule} {f.message}" for f in findings
    ]
    lines.append(
        f"{len(findings)} finding(s)"
        if findings
        else "0 findings — clean"
    )
    return "\n".join(lines)
