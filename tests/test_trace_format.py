"""Tests for the .evt trace file format."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.trace.events import Trace, TraceEvent, TraceMeta
from repro.trace.format import default_trace_path, load_trace, save_trace
from tests.oracles import trace as oracle


def sample_trace(n=5):
    meta = TraceMeta(kernel="mandel", variant="omp_tiled", dim=64, tile_w=16,
                     tile_h=16, ncpus=2, schedule="dynamic", iterations=2)
    events = [
        TraceEvent(iteration=1 + i // 3, cpu=i % 2, start=float(i),
                   end=i + 0.5, x=i * 16 % 64, y=0, w=16, h=16,
                   extra={"index": i})
        for i in range(n)
    ]
    return Trace(meta, events)


class TestRoundtrip:
    def test_save_load_identity(self, tmp_path):
        t = sample_trace()
        p = save_trace(t, tmp_path / "t.evt")
        loaded = load_trace(p)
        assert loaded.meta == t.meta
        assert loaded.events == t.events

    def test_empty_trace(self, tmp_path):
        t = Trace(TraceMeta(kernel="none"))
        loaded = load_trace(save_trace(t, tmp_path / "e.evt"))
        assert len(loaded) == 0
        assert loaded.meta.kernel == "none"

    def test_parent_dirs_created(self, tmp_path):
        p = save_trace(sample_trace(), tmp_path / "a" / "b" / "t.evt")
        assert p.exists()

    def test_default_trace_path(self):
        p = default_trace_path(label="prev")
        assert p.name == "ezv_trace_prev.evt"


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError, match="not found"):
            load_trace(tmp_path / "nope.evt")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.evt"
        p.write_text("")
        with pytest.raises(TraceError, match="empty"):
            load_trace(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.evt"
        p.write_text("not json\n")
        with pytest.raises(TraceError, match="header"):
            load_trace(p)

    def test_wrong_version(self, tmp_path):
        p = tmp_path / "v.evt"
        p.write_text(json.dumps({"easypap_trace": 99, "meta": {}}) + "\n")
        with pytest.raises(TraceError, match="version"):
            load_trace(p)

    def test_bad_event_line_reports_lineno(self, tmp_path):
        p = save_trace(sample_trace(2), tmp_path / "t.evt")
        lines = p.read_text().splitlines()
        lines[2] = '{"broken": true'
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match=":3"):
            load_trace(p)

    def test_truncation_detected(self, tmp_path):
        p = save_trace(sample_trace(4), tmp_path / "t.evt")
        lines = p.read_text().splitlines()
        p.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(TraceError, match="truncated"):
            load_trace(p)

    def test_blank_lines_tolerated(self, tmp_path):
        p = save_trace(sample_trace(2), tmp_path / "t.evt")
        p.write_text(p.read_text().replace("\n", "\n\n", 1))
        loaded = load_trace(p)
        assert len(loaded) == 2


class TestForwardCompat:
    """Events written by newer versions may carry keys this reader does
    not know (the ``reads``/``writes`` footprint extension set the
    precedent); loading must skip them instead of failing."""

    def test_unknown_event_keys_ignored(self):
        d = sample_trace(1).events[0].to_dict()
        d["gpu_queue"] = 3  # hypothetical future fields
        d["spans"] = [[0.0, 1.0]]
        e = TraceEvent.from_dict(d)
        assert e.iteration == 1 and e.cpu == 0 and e.w == 16
        assert not hasattr(e, "gpu_queue")

    def test_unknown_keys_in_file(self, tmp_path):
        p = save_trace(sample_trace(2), tmp_path / "t.evt")
        lines = p.read_text().splitlines()
        evt = json.loads(lines[1])
        evt["future_field"] = {"nested": [1, 2, 3]}
        lines[1] = json.dumps(evt)
        p.write_text("\n".join(lines) + "\n")
        loaded = load_trace(p)
        assert len(loaded) == 2
        assert loaded.events[0].extra == {"index": 0}

    def test_footprints_roundtrip(self, tmp_path):
        events = [
            TraceEvent(
                iteration=1, cpu=0, start=0.0, end=1.0, x=0, y=0, w=16, h=16,
                reads=(("cur", 0, 0, 17, 17),),
                writes=(("next", 0, 0, 16, 16),),
            )
        ]
        t = Trace(TraceMeta(kernel="blur"), events)
        loaded = load_trace(save_trace(t, tmp_path / "f.evt"))
        assert loaded.events[0].reads == (("cur", 0, 0, 17, 17),)
        assert loaded.events[0].writes == (("next", 0, 0, 16, 16),)

    def test_empty_footprints_omitted_from_serialization(self):
        d = sample_trace(1).events[0].to_dict()
        assert "reads" not in d and "writes" not in d


#: floats across the whole finite range, subnormals included
floats = st.floats(allow_nan=False, allow_infinity=False)
#: strings with quotes, backslashes, control and non-ASCII characters
texts = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12)
#: values ``extra`` holds and JSON gives back unchanged
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | floats | texts,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(texts, inner, max_size=4),
    max_leaves=12,
)
extras = st.one_of(
    st.just({}),
    st.dictionaries(texts, json_values, max_size=5),
    st.fixed_dictionaries({
        "index": st.integers(0, 4096),
        "preds": st.lists(st.integers(0, 4096), max_size=6),
        "depend_in": st.lists(texts.map(lambda t: f'cell["{t}"]'), max_size=3),
        "work": floats,
    }),
)
ints = st.integers(0, 2**31)
regions = st.one_of(
    st.tuples(texts, ints, ints, ints, ints),
    st.tuples(texts, ints, ints, ints, ints, ints, ints),
)


@st.composite
def events(draw):
    if draw(st.booleans()):
        x, y, w, h = draw(st.tuples(ints, ints, ints, ints))
    else:
        x = y = w = h = -1
    return TraceEvent(
        iteration=draw(ints), cpu=draw(st.integers(0, 255)),
        start=draw(floats), end=draw(floats), x=x, y=y, w=w, h=h,
        kind=draw(st.sampled_from(["tile", "task_dr", "ghost"]) | texts),
        extra=draw(extras),
        reads=tuple(draw(st.lists(regions, max_size=3))),
        writes=tuple(draw(st.lists(regions, max_size=3))),
    )


traces = st.builds(
    Trace,
    st.builds(
        TraceMeta, kernel=texts, variant=texts, dim=ints, tile_w=ints,
        tile_h=ints, ncpus=st.integers(0, 256), schedule=texts,
        iterations=ints, label=texts,
        extra=st.dictionaries(texts, json_values, max_size=4),
    ),
    st.lists(events(), max_size=8),
)


class TestWriterMatchesOracle:
    """``save_trace`` builds each event's dict field by field; the
    oracle goes through ``dataclasses.asdict``.  Same bytes, always."""

    @settings(max_examples=150, deadline=None)
    @given(trace=traces)
    def test_same_bytes_and_roundtrip(self, trace):
        with tempfile.TemporaryDirectory() as tmp:
            p = save_trace(trace, Path(tmp) / "t.evt")
            assert p.read_bytes() == oracle.trace_bytes(trace)
            loaded = load_trace(p)
        assert loaded.meta == trace.meta
        assert loaded.events == trace.events


class TestEngineIntegration:
    def test_engine_trace_roundtrips(self, tmp_path):
        from repro.core.engine import run
        from tests.conftest import make_config

        r = run(make_config(kernel="mandel", variant="omp_tiled", trace=True))
        p = save_trace(r.trace, tmp_path / "run.evt")
        loaded = load_trace(p)
        assert len(loaded) == len(r.trace)
        assert loaded.meta.kernel == "mandel"
        assert loaded.meta.schedule == "dynamic"
