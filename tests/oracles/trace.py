"""The ``.evt`` writer in its plainest form: ``dataclasses.asdict`` per
event and one ``write`` per line.  The oracle for
:meth:`repro.trace.events.TraceEvent.to_dict` and
:func:`repro.trace.format.save_trace`, which must write the same bytes."""

from __future__ import annotations

import json
from dataclasses import asdict

from repro.trace.events import Trace, TraceEvent
from repro.trace.format import TRACE_FORMAT_VERSION

__all__ = ["event_dict", "trace_bytes"]


def event_dict(e: TraceEvent) -> dict:
    """Deep-copied dict of every field; empty ``extra``, ``reads`` and
    ``writes`` dropped, regions turned into lists."""
    d = asdict(e)
    if not d["extra"]:
        del d["extra"]
    for key in ("reads", "writes"):
        if d[key]:
            d[key] = [list(r) for r in d[key]]
        else:
            del d[key]
    return d


def trace_bytes(trace: Trace) -> bytes:
    """The UTF-8 bytes of ``trace`` as a ``.evt`` file."""
    header = {
        "easypap_trace": TRACE_FORMAT_VERSION,
        "meta": asdict(trace.meta),
        "nevents": len(trace.events),
    }
    lines = [json.dumps(header) + "\n"]
    for e in trace.events:
        lines.append(json.dumps(event_dict(e)) + "\n")
    return "".join(lines).encode("utf-8")
