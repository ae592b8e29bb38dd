"""Spans around the library's public functions, recorded from outside it.

:class:`Tracer` replaces a function at the module attribute its caller
looks it up through (``cli.pnstc``, ``verify.canonicalize``, ...) with a
wrapper that records one span per call: name, start, end, parent span,
op id and an outcome label.  The library itself is not edited, and
:meth:`Tracer.restore` puts every original back.  Spans are kept in memory
and written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter


def _readiness(report) -> str:
    return "ready" if report.ready else "not-ready"


# (module, attribute, span name, outcome label of a normal return)
CALL_SITES = (
    ("cli", "main", "cli.main", None),
    ("cli", "check_ready", "readiness.check_ready", _readiness),
    ("cli", "pnstc", "construct.pnstc", None),
    ("construct", "build_block", "blocks.build_block", None),
    ("cli", "verify_matrix", "verify.verify_matrix", None),
    ("verify", "canonicalize", "scalar.canonicalize", None),
    ("formats", "load_spec_file", "formats.load_spec_file", None),
    ("formats", "dump_matrix_file", "formats.dump_matrix_file", None),
    ("formats", "matrix_from_payload", "formats.matrix_from_payload", None),
    ("cli", "find_ready_orderings", "search.find_ready_orderings", None),
    ("search", "check_ready", "readiness.check_ready", _readiness),
)


class Tracer:
    """Span recorder; records only while ``active`` is true."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, op id, outcome]
        self.spans: list[list] = []
        self.active = False
        self.op = -1
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def install(self, modules: dict) -> None:
        for module_name, attribute, name, label in CALL_SITES:
            module = modules[module_name]
            original = getattr(module, attribute)
            setattr(module, attribute, self._wrap(original, name, label))
            self._originals.append((module, attribute, original))

    def restore(self) -> None:
        for module, attribute, original in reversed(self._originals):
            setattr(module, attribute, original)
        self._originals.clear()

    def _wrap(self, original, name: str, label):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0.0, 0.0, parent, tracer.op, "ok"]
            tracer.spans.append(span)
            tracer._stack.append(index)
            span[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            if label is not None:
                span[5] = label(result)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover.

        Children run inside their parent on one thread and never overlap
        one another, so the covered time is the sum of their durations.
        """
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path, context: dict) -> None:
        """Write the spans column by column, with the run's context."""
        keys = ("name", "start", "end", "parent", "op", "outcome")
        columns = {key: [span[i] for span in self.spans] for i, key in enumerate(keys)}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"context": context, "spans": columns}, handle)
