"""Unit tests for the repro.trace observability layer."""

from __future__ import annotations

import json

import pytest

from repro.sdt.config import SDTConfig
from repro.trace.export import (
    chrome_trace_events,
    chrome_trace_json,
    export_files,
    metrics_dict,
    metrics_json,
    slug,
    summary,
)
from repro.trace.session import (
    Histogram,
    MetricsRegistry,
    PHASE_EXECUTE,
    TraceSession,
)
from repro.trace.spec import (
    DEFAULT_RING,
    TraceSpec,
    default_trace_spec,
    parse_trace_spec,
)


class FakeModel:
    """Stand-in for HostModel: a settable cycle counter."""

    def __init__(self) -> None:
        self.total_cycles = 0

    def breakdown(self) -> dict:
        return {}


class TestSpecParsing:
    @pytest.mark.parametrize("word", ["", "off", "none", "0", "OFF", "None"])
    def test_off_words(self, word):
        assert parse_trace_spec(word) is None

    @pytest.mark.parametrize("word", ["on", "1", "true", "ON", "True"])
    def test_on_words(self, word):
        assert parse_trace_spec(word) == TraceSpec()

    def test_none_passthrough(self):
        assert parse_trace_spec(None) is None

    def test_spec_passthrough(self):
        spec = TraceSpec(ring=128)
        assert parse_trace_spec(spec) is spec

    def test_kv_list(self):
        spec = parse_trace_spec("ring=128,dir=results/trace")
        assert spec == TraceSpec(ring=128, dir="results/trace")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            parse_trace_spec("rang=128")

    def test_bad_ring_rejected(self):
        with pytest.raises(ValueError):
            parse_trace_spec("ring=0")
        with pytest.raises(ValueError):
            TraceSpec(ring=-1)

    def test_describe_round_trips(self):
        for spec in (TraceSpec(), TraceSpec(ring=64),
                     TraceSpec(ring=256, dir="x/y")):
            assert parse_trace_spec(spec.describe()) == spec

    def test_default_comes_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert default_trace_spec() is None
        monkeypatch.setenv("REPRO_TRACE", "on")
        assert default_trace_spec() == TraceSpec()
        monkeypatch.setenv("REPRO_TRACE", "ring=32")
        assert default_trace_spec() == TraceSpec(ring=32)

    def test_config_parses_spec_strings(self):
        config = SDTConfig(trace="ring=512")
        assert config.trace == TraceSpec(ring=512)
        assert SDTConfig(trace="off").trace is None
        with pytest.raises(ValueError):
            SDTConfig(trace=123)  # type: ignore[arg-type]

    def test_default_ring_is_sane(self):
        assert DEFAULT_RING >= 1024


class TestHistogram:
    def test_power_of_two_buckets(self):
        hist = Histogram()
        for value in (0, 1, 2, 3, 5, 8, 9):
            hist.record(value)
        assert hist.buckets == {0: 1, 1: 1, 2: 1, 4: 1, 8: 2, 16: 1}
        assert hist.count == 7
        assert hist.total == 28
        assert hist.min == 0
        assert hist.max == 9
        assert hist.mean == 4.0

    def test_as_dict_sorted_and_jsonable(self):
        hist = Histogram()
        for value in (17, 1, 4):
            hist.record(value)
        data = hist.as_dict()
        assert list(data["buckets"]) == ["1", "4", "32"]
        json.dumps(data)  # must be serialisable

    def test_empty(self):
        hist = Histogram()
        assert hist.mean == 0.0
        assert hist.as_dict()["min"] is None


class TestMetricsRegistry:
    def test_counters_and_histograms(self):
        registry = MetricsRegistry()
        registry.incr("x")
        registry.incr("x", 2)
        registry.histogram("h").record(4)
        data = registry.as_dict()
        assert data["counters"] == {"x": 3}
        assert data["histograms"]["h"]["count"] == 1


class TestTraceSession:
    def test_events_and_counters(self):
        session = TraceSession(FakeModel(), TraceSpec(ring=16))
        session.emit("a", x=1)
        session.emit("a")
        session.emit("b")
        assert session.emitted == 3
        assert session.metrics.counters == {"a": 2, "b": 1}
        assert [kind for _s, _c, kind, _d in session.events] == ["a", "a", "b"]

    def test_ring_eviction_and_dropped(self):
        session = TraceSession(FakeModel(), TraceSpec(ring=4))
        for index in range(10):
            session.emit("e", i=index)
        assert session.emitted == 10
        assert len(session.events) == 4
        assert session.dropped == 6
        # oldest evicted first: the ring holds the newest four
        assert [data["i"] for _s, _c, _k, data in session.events] == \
            [6, 7, 8, 9]

    def test_histogram_fields_feed_histograms(self):
        session = TraceSession(FakeModel(), TraceSpec())
        session.emit("sieve.walk", depth=3)
        session.emit("ibtc.hit", probes=1)
        session.emit("translate.end", instrs=12)
        names = set(session.metrics.histograms)
        assert names == {"sieve.walk.depth", "ibtc.hit.probes",
                         "translate.end.instrs"}

    def test_phase_attribution_telescopes(self):
        model = FakeModel()
        session = TraceSession(model, TraceSpec())
        model.total_cycles = 10          # 10 cycles before any bracket
        session.emit("dispatch.start")   # -> execute gets 10
        model.total_cycles = 17          # 7 cycles inside dispatch
        session.emit("reentry.enter")    # -> dispatch gets 7
        model.total_cycles = 20          # 3 cycles inside translator
        session.emit("translate.start")  # -> translator gets 3
        model.total_cycles = 26          # 6 cycles translating
        session.emit("translate.end")    # -> translate gets 6
        model.total_cycles = 28
        session.emit("reentry.exit")     # -> translator gets 2
        model.total_cycles = 30
        session.emit("dispatch.end")     # -> dispatch gets 2
        model.total_cycles = 35
        session.finish()                 # -> execute gets 5
        assert session.attribution() == {
            "dispatch": 9, "execute": 15, "translate": 6, "translator": 5,
        }
        assert session.total_attributed() == model.total_cycles

    def test_base_phase_never_pops(self):
        session = TraceSession(FakeModel(), TraceSpec())
        session.emit("dispatch.end")  # unmatched pop: must not underflow
        session.emit("dispatch.end")
        model = session.model
        model.total_cycles = 5
        session.finish()
        assert session.attribution() == {PHASE_EXECUTE: 5}

    def test_finish_is_idempotent(self):
        session = TraceSession(FakeModel(), TraceSpec())
        session.finish()
        session.finish()
        assert session.metrics.counters["run.end"] == 1


class TestExporters:
    def _session(self):
        model = FakeModel()
        session = TraceSession(model, TraceSpec(ring=8))
        session.emit("dispatch.start", ib="ret")
        model.total_cycles = 4
        session.emit("dispatch.end", ib="ret")
        model.total_cycles = 9
        session.emit("ibtc.hit", probes=1)
        session.finish()
        return session

    def test_chrome_event_phases(self):
        events = chrome_trace_events(self._session())
        phases = [event["ph"] for event in events]
        assert phases == ["M", "M", "B", "E", "i", "i"]
        begin = events[2]
        assert begin["name"] == "dispatch"
        assert begin["ts"] == 0
        end = events[3]
        assert end["name"] == "dispatch"
        assert end["ts"] == 4

    def test_chrome_json_parses(self):
        payload = json.loads(chrome_trace_json(self._session()))
        assert payload["metadata"]["events_emitted"] == 4
        assert len(payload["traceEvents"]) == 6

    def test_metrics_dict_shape(self):
        data = metrics_dict(self._session(), context={"workload": "w"})
        assert data["attributed_cycles"] == 9
        assert data["phase_cycles"] == {"dispatch": 4, "execute": 5}
        assert data["counters"]["ibtc.hit"] == 1
        assert data["run"] == {"workload": "w"}

    def test_metrics_json_deterministic(self):
        a = metrics_json(self._session())
        b = metrics_json(self._session())
        assert a == b

    def test_slug(self):
        assert slug("ibtc(shared,4096)+ret=fast") == "ibtc_shared_4096_ret_fast"
        assert slug("a b/c") == "a_b_c"

    def test_export_files(self, tmp_path):
        trace_path, metrics_path = export_files(
            self._session(), tmp_path / "out", "stem(1)"
        )
        assert trace_path.name == "stem_1.trace.json"
        assert metrics_path.name == "stem_1.metrics.json"
        json.loads(trace_path.read_text())
        json.loads(metrics_path.read_text())

    def test_summary_reports_exact_attribution(self):
        text = summary(self._session())
        assert "== total (exact)" in text
        assert "ibtc.hit" in text

    def test_every_pop_kind_has_a_slice_name(self):
        # pinned: adding a bracket kind to session.POP_KINDS without
        # teaching the Chrome exporter its slice name crashed export
        # (KeyError on the first tier2.exit event)
        from repro.trace.export import _POP_NAMES
        from repro.trace.session import POP_KINDS, PUSH_PHASES

        assert set(_POP_NAMES) == POP_KINDS
        assert set(_POP_NAMES.values()) == set(PUSH_PHASES.values())


class TestCLI:
    def test_trace_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "trace", "gzip_like", "--scale", "tiny",
            "--mechanism", "sieve", "--out", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "== total (exact)" in out
        exports = sorted(p.name for p in tmp_path.iterdir())
        assert len(exports) == 2
        assert exports[0].endswith(".metrics.json")
        assert exports[1].endswith(".trace.json")

    def test_run_trace_flag(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.delenv("REPRO_TRACE", raising=False)
        code = main([
            "run", "gzip_like", "--scale", "tiny",
            "--trace", f"dir={tmp_path}",
        ])
        assert code == 0
        assert "trace    :" in capsys.readouterr().out
        assert len(list(tmp_path.iterdir())) == 2


class TestRunIdentity:
    """Every metrics export names the package version and the config
    fingerprint, and both producers build the ``run`` block alike."""

    @staticmethod
    def _run_block(directory) -> dict:
        (path,) = directory.glob("*.metrics.json")
        return json.loads(path.read_text())["run"]

    def test_trace_command_and_measure_export_agree(self, tmp_path):
        import hashlib

        import repro
        from repro.cli import main
        from repro.eval.runner import measure
        from repro.host.profile import X86_P4

        traced_dir, measured_dir = tmp_path / "trace", tmp_path / "measure"
        assert main([
            "trace", "gzip_like", "--scale", "tiny", "--mechanism", "sieve",
            "--profile", "x86_p4", "--out", str(traced_dir),
        ]) == 0
        config = SDTConfig(ib="sieve", profile=X86_P4,
                           trace=TraceSpec(dir=str(measured_dir)))
        measure("gzip_like", config, scale="tiny")

        digest = hashlib.sha256(repr(config.fingerprint()).encode())
        for directory in (traced_dir, measured_dir):
            run = self._run_block(directory)
            assert run["version"] == repro.__version__
            assert run["fingerprint"] == digest.hexdigest()[:16]
        assert self._run_block(traced_dir) == self._run_block(measured_dir)
