"""Low-overhead metrics registry: counters, gauges and fixed-bucket
histograms.

The registry is the telemetry substrate every instrumented layer feeds
(DESIGN.md §13).  Two properties drive the design:

* **The hot path stays elided.**  Instruments are created once
  (:meth:`MetricsRegistry.counter` and friends memoize by name) and
  updated in *bulk* at chunk/run boundaries — never per simulated step.
  ``None`` is the one "no metrics" value: every component that accepts
  a registry checks for it once at attach time, so
  ``Simulator.attach_metrics(None)`` leaves the ``run_fast()`` batch
  loop untouched and an uninstrumented pipeline pays nothing
  measurable (pinned by ``benchmarks/bench_obs_overhead.py``).

* **Deterministic vs wall-clock telemetry never mix.**  Every
  instrument carries a ``deterministic`` flag.  Deterministic metrics
  are pure functions of the (seeded) simulation and may enter
  byte-identity-checked snapshot files; wall-clock-ish metrics (pool
  retries, watchdog escalations, anything scheduling-weather dependent)
  are flagged ``deterministic=False`` and are excluded from
  :meth:`MetricsRegistry.snapshot` by default — they exist for the live
  ``repro top`` view and the Prometheus exposition only.

Metric naming follows the Prometheus convention: ``repro_<area>_<what>``
with a ``_total`` suffix on monotonically increasing counters (e.g.
``repro_sim_steps_total``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple, Union

from repro.errors import ConfigurationError

#: Default fixed bucket bounds for delay/contention histograms
#: (powers of two; a final +Inf bucket is always implied).
TAU_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


class Counter:
    """A monotonically increasing count (e.g. steps executed)."""

    __slots__ = ("name", "help", "deterministic", "value")
    kind = "counter"

    def __init__(self, name: str, help: str = "", deterministic: bool = True):
        self.name = name
        self.help = help
        self.deterministic = deterministic
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (negative amounts are rejected)."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name} cannot decrease (inc({amount}))"
            )
        self.value += amount

    def sample(self) -> Union[int, float]:
        return self.value


class Gauge:
    """A point-in-time value (e.g. the current τ_max estimate)."""

    __slots__ = ("name", "help", "deterministic", "value")
    kind = "gauge"

    def __init__(self, name: str, help: str = "", deterministic: bool = True):
        self.name = name
        self.help = help
        self.deterministic = deterministic
        self.value: Union[int, float] = 0

    def set(self, value: Union[int, float]) -> None:
        self.value = value

    def max(self, value: Union[int, float]) -> None:
        """Keep the running maximum (running-τ_max style gauges)."""
        if value > self.value:
            self.value = value

    def sample(self) -> Union[int, float]:
        return self.value


class Histogram:
    """A fixed-bucket histogram (bucket bounds chosen at creation).

    Buckets are upper bounds (``value <= bound`` lands in the bucket),
    Prometheus ``le`` style, with an implicit final +Inf bucket.  Counts
    are kept per bucket (not cumulative); :meth:`sample` exposes the
    cumulative form snapshots and the text exposition use.
    """

    __slots__ = ("name", "help", "deterministic", "bounds", "counts", "total", "sum")
    kind = "histogram"

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = TAU_BUCKETS,
        help: str = "",
        deterministic: bool = True,
    ):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ConfigurationError(
                f"histogram {name} needs strictly increasing bucket bounds, "
                f"got {buckets!r}"
            )
        self.name = name
        self.help = help
        self.deterministic = deterministic
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # final slot = +Inf
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                break
        else:
            self.counts[-1] += 1
        self.total += 1
        self.sum += value

    def observe_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.observe(value)

    def sample(self) -> Dict[str, object]:
        """Cumulative ``le`` buckets plus count/sum, JSON-safe."""
        cumulative = 0
        buckets: List[List[object]] = []
        for bound, count in zip(self.bounds, self.counts):
            cumulative += count
            label = int(bound) if float(bound).is_integer() else bound
            buckets.append([label, cumulative])
        buckets.append(["+Inf", self.total])
        return {"buckets": buckets, "count": self.total, "sum": self.sum}


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Names instruments and renders snapshots/expositions.

    Accessors memoize: asking twice for the same name returns the same
    instrument (so layers can share counters without plumbing), and
    asking for an existing name as a different kind raises
    :class:`~repro.errors.ConfigurationError`.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}

    def _get(self, cls, name: str, *args, **kwargs) -> Instrument:
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ConfigurationError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        instrument = cls(name, *args, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(
        self, name: str, help: str = "", deterministic: bool = True
    ) -> Counter:
        return self._get(Counter, name, help, deterministic)

    def gauge(
        self, name: str, help: str = "", deterministic: bool = True
    ) -> Gauge:
        return self._get(Gauge, name, help, deterministic)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = TAU_BUCKETS,
        help: str = "",
        deterministic: bool = True,
    ) -> Histogram:
        return self._get(Histogram, name, buckets, help, deterministic)

    def instruments(self) -> List[Instrument]:
        """All instruments, name-sorted (deterministic iteration)."""
        return [self._instruments[name] for name in sorted(self._instruments)]

    def snapshot(self, deterministic_only: bool = True) -> Dict[str, object]:
        """Name → sampled value, name-sorted.

        With ``deterministic_only`` (the default) wall-clock-ish
        instruments are excluded, so the result is safe to write into
        byte-identity-checked artifacts.
        """
        return {
            instrument.name: instrument.sample()
            for instrument in self.instruments()
            if instrument.deterministic or not deterministic_only
        }

    def render_prometheus(self) -> str:
        """Prometheus text exposition of *every* instrument (live
        telemetry — the deterministic/wall-clock split does not apply
        to a scrape)."""
        lines: List[str] = []
        for instrument in self.instruments():
            if instrument.help:
                lines.append(f"# HELP {instrument.name} {instrument.help}")
            lines.append(f"# TYPE {instrument.name} {instrument.kind}")
            if isinstance(instrument, Histogram):
                sample = instrument.sample()
                for le, cumulative in sample["buckets"]:
                    lines.append(
                        f'{instrument.name}_bucket{{le="{le}"}} {cumulative}'
                    )
                lines.append(f"{instrument.name}_count {sample['count']}")
                lines.append(f"{instrument.name}_sum {sample['sum']:g}")
            else:
                lines.append(f"{instrument.name} {instrument.sample()}")
        return "\n".join(lines) + "\n"
