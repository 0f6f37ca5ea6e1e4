"""Run ``repro serve`` under the repository's own tracer, every trace kept.

Usage::

    python traced_serve.py TRACES.json serve [repro serve flags...]

The launcher installs :class:`repro.obs.trace.Tracer` with a sampling rate
of 1 and a ring buffer larger than any run fills, then enters the same
``repro serve`` main as the untraced server.  The program's own spans
already cover a query: ``QueryService.serve`` opens a root trace named
``request`` whose id is the client's ``X-Request-Id``, and the worker's
``service.execute`` > ``engine.run`` > ``plan.route`` /
``algorithm.search`` / ``executor.search`` > ``proximity.vector`` spans
hang below it; ``wal.append`` and ``durable.publish`` cover the write
path.  This launcher adds spans only where the program has none, by
wrapping entry points from outside the package:

* ``http_api.do_POST``: a root trace with id ``http:<X-Request-Id>``
  (``serve``'s own ``request`` trace already owns the bare id), with
  ``updates.apply`` below it on an ``/update``;
* ``cache.get`` (``ResultCache.get``) and ``proximity.vector`` around the
  engine measure's ``vector_array``/``vector`` when no ``proximity.vector``
  span is open already;
* ``durable.checkpoint`` on the background compaction thread, and a
  ``wal_fsyncs`` count on the span open around each WAL ``append``;
* the set-up calls ``setup.arena_open``, ``setup.engine`` and
  ``setup.durable``.

``SIGUSR1`` (and a clean shutdown) writes every retained trace to
``TRACES.json`` as ``{"roots": <root traces started>, "traces": [...]}``,
each trace in :meth:`Trace.to_dict` form.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import sys
from pathlib import Path

from repro.obs import trace as obs_trace

#: Traces the ring buffer keeps; far more than a run's requests, so the
#: dump holds every trace (checked against ``roots`` by the reader).
CAPACITY = 10_000_000


def _spanned(function, name, *, root_id=None, skip_nested=False,
             after=None):
    """Wrap ``function`` in a span called ``name`` on the installed tracer.

    ``root_id(args)`` makes each call the root of a trace with that id.
    ``skip_nested`` leaves a call nested in an open span of the same name
    alone.  ``after(args, result)`` returns the span's attributes.
    """

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        tracer = obs_trace.get_tracer()
        if tracer is None:
            return function(*args, **kwargs)
        current = tracer.current()
        if skip_nested and current is not None and current.name == name:
            return function(*args, **kwargs)
        span = (tracer.trace(name, trace_id=root_id(args)) if root_id
                else tracer.span(name))
        with span:
            result = function(*args, **kwargs)
            if after:
                span.set(**after(args, result))
        return result

    return wrapper


def _wrap(cls, method, name, **options) -> None:
    raw = cls.__dict__[method]
    if isinstance(raw, classmethod):
        setattr(cls, method, classmethod(_spanned(raw.__func__, name,
                                                  **options)))
    else:
        setattr(cls, method, _spanned(raw, name, **options))


def _count_fsyncs(wal_class) -> None:
    """Add each ``append``'s fsyncs to the open span's ``wal_fsyncs``.

    The program's ``wal.append`` span records the bytes but not the
    fsyncs; this hook opens no span of its own.
    """
    append = wal_class.append

    @functools.wraps(append)
    def wrapper(wal, *args, **kwargs):
        before = wal.fsyncs
        try:
            return append(wal, *args, **kwargs)
        finally:
            current = obs_trace.current_span()
            if current is not None:
                current.add("wal_fsyncs", wal.fsyncs - before)

    wal_class.append = wrapper


def install() -> obs_trace.Tracer:
    """Install the tracer and the launcher's spans; call once per process."""
    from repro.core.engine import SocialSearchEngine
    from repro.proximity.cache import CachedProximity
    from repro.proximity.materialized import MaterializedProximity
    from repro.service.cache import ResultCache
    from repro.service.http_api import ServiceRequestHandler
    from repro.storage.dataset import Dataset
    from repro.storage.durable import DurableStore
    from repro.storage.updates import DatasetUpdater
    from repro.storage.wal import WriteAheadLog

    tracer = obs_trace.Tracer(sample_rate=1.0, capacity=CAPACITY)
    obs_trace.set_tracer(tracer)

    _wrap(ServiceRequestHandler, "do_POST", "http_api.do_POST",
          root_id=lambda args: "http:" + str(
              args[0].headers.get("X-Request-Id")))
    _wrap(ResultCache, "get", "cache.get")
    for measure in (CachedProximity, MaterializedProximity):
        for method in ("vector_array", "vector"):
            _wrap(measure, method, "proximity.vector", skip_nested=True)

    _wrap(DatasetUpdater, "apply", "updates.apply",
          after=lambda args, _result: {
              "pending_delta": args[0].pending_delta()})
    _count_fsyncs(WriteAheadLog)

    def published_bytes(args, result):
        if not result.get("published"):
            return {"bytes": 0}
        arena = Path(args[0].directory) / f"gen-{result['generation']}.arena"
        return {"bytes": arena.stat().st_size}

    _wrap(DurableStore, "checkpoint", "durable.checkpoint",
          after=published_bytes)
    _wrap(DurableStore, "initialise", "setup.durable")
    _wrap(DurableStore, "open", "setup.durable", skip_nested=True)
    _wrap(Dataset, "from_arena", "setup.arena_open")
    _wrap(SocialSearchEngine, "__init__", "setup.engine")
    return tracer


def dump(tracer: obs_trace.Tracer, path: Path) -> None:
    """Write every retained trace to ``path`` (atomically)."""
    traces = tracer.recent(CAPACITY)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({"roots": tracer.roots_sampled,
                               "traces": [t.to_dict() for t in traces]}))
    os.replace(tmp, path)


def main(argv) -> int:
    traces_path = Path(argv[0])
    tracer = install()
    signal.signal(signal.SIGUSR1, lambda _sig, _frame: dump(tracer, traces_path))
    from repro.cli import main as repro_main

    try:
        return repro_main(argv[1:])
    finally:
        dump(tracer, traces_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
