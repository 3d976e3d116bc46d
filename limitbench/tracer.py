"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of each limitlab layer from outside the
program.  A name bound by `from .encoding import unpair` lives on in every
module that imported it, so each wrapped function is replaced under every
name that refers to it in every loaded limitlab module, and methods are
replaced on their class.

Each call opens a span: a name, a start, an end and a parent (the enclosing
span); the job id is the process, one job per process.  A span's self time
is its duration minus the time of its child spans.  Spans are folded into
per-name totals as they close rather than kept whole, because a rescan job
opens about 2*10^6 of them.  The wrapper's own bookkeeping is charged to
neither the span nor its parent: the parent subtracts the child's full
interval, from wrapper entry to wrapper exit, while the child's duration runs
only from just before the wrapped call to just after it.
"""

from __future__ import annotations

import sys
import time

# (span name, module, attribute) for plain functions.
FUNCTIONS = (
    ("encoding.pair", "encoding", "pair"),
    ("encoding.unpair", "encoding", "unpair"),
    ("machine.decode", "machine", "decode_program"),
    ("histories.encode", "histories", "encode_views"),
    ("histories.decode", "histories", "decode_history"),
    ("histories.is_halting", "histories", "is_halting_history"),
    ("histories.is_first", "histories", "is_first_halting_history"),
    ("histories.minimal_below", "histories", "minimal_history_below"),
    ("engine.run_stages", "engine", "run_stages"),
    ("engine.stabilization", "engine", "stabilization"),
    ("engine.trace_lines", "engine", "trace_lines"),
    ("oracle.brute_equal_upto", "oracle", "brute_equal_upto"),
    ("cli.main", "cli", "main"),
)


class Tracer:
    """Installs span wrappers into the loaded limitlab modules."""

    def __init__(self) -> None:
        self.spans: dict[str, list[int]] = {}  # name -> [calls, self_ns]
        self.unpair_max_bits = 0
        self.code_max_bits = 0
        self.tables_decoded = 0
        self.result_repeats = 0
        # (simulator id, index, input) -> largest min(budget, halting steps)
        # seen, for tables; -1 for literals and divergers.
        self.result_keys: dict[tuple, int] = {}
        self._open = [[0]]  # child-time accumulator of each open span
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, after=None):
        stats = self.spans.setdefault(name, [0, 0])
        open_spans = self._open
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            entered = clock()
            children = [0]
            open_spans.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                stats[0] += 1
                stats[1] += end - start - children[0]
            if after is not None:
                after(args, result)
            open_spans[-1][0] += clock() - entered
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        from limitlab import machine, properties

        modules = [
            m
            for n, m in sys.modules.items()
            if m is not None and (n == "limitlab" or n.startswith("limitlab."))
        ]
        after = {
            "encoding.unpair": self._after_unpair,
            "machine.decode": self._after_decode,
            "histories.encode": self._after_encode,
            "histories.decode": self._after_decode_history,
        }
        for name, module, attr in FUNCTIONS:
            fn = getattr(sys.modules["limitlab." + module], attr)
            wrapper = self._wrap(name, fn, after.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._replace(m, key, wrapper)

        self._table_type = machine.Table
        self._halted_type = machine.Halted
        self._kind = machine.Simulator.kind
        self._replace(
            machine.Simulator, "kind", self._wrap("machine.kind", machine.Simulator.kind)
        )
        self._replace(
            machine.Simulator,
            "result",
            self._wrap("machine.result", machine.Simulator.result, self._after_result),
        )
        for cls in list(vars(properties).values()):
            if isinstance(cls, type) and "stage" in vars(cls):
                self._replace(cls, "stage", self._wrap("properties.stage", cls.stage))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def _after_unpair(self, args, result) -> None:
        self.unpair_max_bits = max(self.unpair_max_bits, args[0].bit_length())

    def _after_decode(self, args, result) -> None:
        if isinstance(result, self._table_type):
            self.tables_decoded += 1

    def _after_encode(self, args, result) -> None:
        self.code_max_bits = max(self.code_max_bits, result.bit_length())

    def _after_decode_history(self, args, result) -> None:
        self.code_max_bits = max(self.code_max_bits, args[0].bit_length())

    def _after_result(self, args, result) -> None:
        sim, index, input_value, budget = args
        key = (id(sim), index, input_value)
        seen = self.result_keys.get(key)
        if seen is None:
            seen = 0 if isinstance(self._kind(sim, index), self._table_type) else -1
            self.result_keys[key] = seen
        else:
            self.result_repeats += 1
        if seen >= 0:
            steps = result.steps if isinstance(result, self._halted_type) else budget
            if steps > seen:
                self.result_keys[key] = steps

    def summary(self) -> dict:
        """Per-name calls and self seconds, plus the counters the wrappers keep."""
        return {
            "spans": {
                name: {"calls": calls, "self_s": self_ns / 1e9}
                for name, (calls, self_ns) in self.spans.items()
            },
            "unpair_max_bits": self.unpair_max_bits,
            "code_max_bits": self.code_max_bits,
            "tables_decoded": self.tables_decoded,
            "result_repeats": self.result_repeats,
            "steps_fresh": sum(v for v in self.result_keys.values() if v > 0),
        }
