"""Tests for span tracing (``trace_span`` in repro.obs.causal) and the
text views (repro.obs.top)."""

import io

from repro.obs.causal import (
    CausalRecorder,
    get_causal_recorder,
    install_causal_recorder,
    read_spill,
    trace_span,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.top import (
    TopView,
    ascii_bar,
    render_histogram_rows,
    render_metrics_block,
    render_snapshot_lines,
)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        self.now += 0.5
        return self.now


class TestTraceSpan:
    def test_noop_without_recorder(self):
        assert get_causal_recorder() is None
        with trace_span("anything", key=1) as span:
            assert span is None

    def test_records_on_active_recorder(self, tmp_path):
        recorder = CausalRecorder(
            tmp_path / "cli.spans.jsonl", role="cli", trace_id="t", clock=FakeClock()
        )
        install_causal_recorder(recorder)
        try:
            with trace_span("epoch_sgd.run", threads=4) as span:
                assert span is not None
        finally:
            install_causal_recorder(None)
            recorder.close()
        (record,) = read_spill(recorder.path)
        assert record["span"] == span
        assert (record["name"], record["args"]) == ("epoch_sgd.run", {"threads": 4})
        assert record["t1"] - record["t0"] == 0.5
        assert get_causal_recorder() is None


class TestAsciiRendering:
    def test_ascii_bar(self):
        assert ascii_bar(0, 10) == ""
        assert ascii_bar(10, 10, width=4) == "####"
        assert ascii_bar(1, 1000, width=4) == "#"  # non-zero always shows

    def test_render_histogram_rows_decumulates(self):
        rows = render_histogram_rows([[1, 2], [4, 3], ["+Inf", 5]])
        assert len(rows) == 3
        assert "le 1" in rows[0] and "2" in rows[0]
        # de-cumulated: bucket 4 holds 1 observation, +Inf holds 2
        assert "1" in rows[1]

    def test_render_metrics_block_summarizes_window_counts(self):
        rows = render_metrics_block(
            {
                "tau_max": 7,
                "window_counts": [0, 2, 1],
                "tau_histogram": [[1, 3], ["+Inf", 4]],
            }
        )
        text = "\n".join(rows)
        assert "tau_max: 7" in text
        assert "window_counts: 3 window(s), max 2" in text
        assert "tau_histogram:" in text

    def test_render_snapshot_lines_kinds(self):
        text = render_snapshot_lines(
            [
                {
                    "kind": "cell",
                    "spec": "mixed",
                    "seed": 3,
                    "converged": True,
                    "metrics": {"iterations": 10, "tau_max": 2},
                },
                {"kind": "aggregate", "metrics": {"cells": 1}},
                {
                    "kind": "experiment",
                    "id": "E4",
                    "passed": True,
                    "metrics": {"tau_max": 5},
                },
                {
                    "kind": "run",
                    "label": "e1/random/seed=1",
                    "findings": 0,
                    "certificates_ok": True,
                },
            ]
        )
        assert "cell spec=mixed seed=3" in text
        assert "aggregate" in text
        assert "experiment E4  passed=True" in text
        assert "run e1/random/seed=1" in text
        assert "4 snapshot line(s)" in text


class TestTopView:
    def _view(self, interval=2.0):
        registry = MetricsRegistry()
        registry.counter("repro_steps_total").inc(7)
        registry.histogram("repro_tau_delay", buckets=(1, 2)).observe(1)
        stream = io.StringIO()
        view = TopView(
            registry,
            interval=interval,
            stream=stream,
            clock=FakeClock(),
            title="repro test",
        )
        return view, stream

    def test_render_text_includes_instruments(self):
        view, _stream = self._view()
        text = view.render_text()
        assert "-- repro test --" in text
        assert "repro_steps_total 7" in text
        assert "repro_tau_delay (count=1)" in text

    def test_interval_gating(self):
        view, stream = self._view(interval=2.0)
        assert view.maybe_render() is True  # first render always fires
        assert view.maybe_render() is False  # clock advanced only 0.5s
        assert view.maybe_render(force=True) is True
        assert view.renders == 2
        assert stream.getvalue().count("-- repro test --") == 2
