"""Outside-in tracing of precfix's layers.

The tracer replaces public functions on their modules with wrappers that
record a span (name, start, end, parent) per call.  Callers inside the
package reach these functions through module attributes (`engine.execute`,
`tr.derived_fn`, `tac.parse_program`, ...) or module globals (`detect`
inside `detector.sweep`), so they see the wrappers.  Spans stay in memory;
`write` saves them when the run ends.  A span's self time is its duration
minus the durations of the spans nested directly inside it.
"""

from __future__ import annotations

import functools
import json
import time
import weakref
from collections import Counter, defaultdict

from precfix import corpus, detector, engine, evaluator, tac
from precfix import transcendental as tr


class Span:
    __slots__ = ("name", "start", "end", "parent", "round", "child_s")

    def __init__(self, name, start, parent, round_):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.round = round_
        self.child_s = 0.0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s


class Tracer:
    def __init__(self):
        self.spans = []
        self.round = 0
        # per round: "n:<span>", "dur:<span>", "self:<span>" and hook counts
        self.stats = defaultdict(Counter)
        self._stack = []
        self._saved = []
        self._last_agg = None

    # -- spans --------------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, self.round)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration
        st = self.stats[span.round]
        st["n:" + span.name] += 1
        st["dur:" + span.name] += span.duration
        st["self:" + span.name] += span.self_s

    def count(self, key, n=1):
        self.stats[self.round][key] += n

    def wrap(self, module, attr, on_return=None, on_error=None):
        original = getattr(module, attr)
        name = "%s.%s" % (module.__name__.rsplit(".", 1)[-1], attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                tracer.close(span)
                if on_error is not None:
                    on_error(tracer, span, exc, args)
                raise
            tracer.close(span)
            if on_return is not None:
                on_return(tracer, span, result, args)
            return result

        setattr(module, attr, wrapper)
        self._saved.append((module, attr, original))

    def install(self):
        self.wrap(engine, "execute", _on_execute, _on_execute_error)
        self.wrap(tr, "derived_fn", _on_oracle, _on_oracle_error)
        self.wrap(detector, "fix_iteratively", _on_fix)
        self.wrap(detector, "detect", _on_detect)
        self.wrap(detector, "sweep")
        self.wrap(evaluator, "evaluate", _on_evaluate)
        self.wrap(evaluator, "summarize")
        self.wrap(evaluator, "report")
        self.wrap(tac, "parse_program")
        self.wrap(corpus, "read_inputs", _on_read_inputs)

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        self._last_agg = None

    def write(self, path):
        """Save every span as one JSON object per line; `parent` is the
        line index of the enclosing span."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start, "end": s.end,
                    "parent": None if s.parent is None
                    else index[id(s.parent)],
                    "round": s.round}) + "\n")


# -- hooks: counts taken at the same boundaries as the spans ---------------


def _on_execute(tracer, span, trace, args):
    tracer.count("engine.steps", trace.steps)


def _on_execute_error(tracer, span, exc, args):
    tracer.count("engine.failed_runs")


def _on_oracle(tracer, span, result, args):
    tracer.count("oracle_n:" + args[0])
    tracer.count("oracle_s:" + args[0], span.duration)


def _on_oracle_error(tracer, span, exc, args):
    _on_oracle(tracer, span, None, args)
    if isinstance(exc, tr.DomainError):
        tracer.count("transcendental.domain_errors")


def _on_fix(tracer, span, result, args):
    tracer.count("detector.fix_iterations", len(result.iterations))


def _on_detect(tracer, span, report, args):
    # sweep calls detect repeatedly on one aggregate; count its samples once
    agg = args[0]
    last = tracer._last_agg() if tracer._last_agg is not None else None
    if last is agg:
        return
    tracer._last_agg = weakref.ref(agg)
    for acc in agg.instrs.values():
        tracer.count("detector.samples", acc.m)
        tracer.count("detector.inf_samples", acc.inf_count)
        tracer.count("detector.stored_samples", len(acc.errors))


def _on_evaluate(tracer, span, result, args):
    tracer.count("evaluator.skipped", result[1])


def _on_read_inputs(tracer, span, rows, args):
    tracer.count("corpus.rows", len(rows))
