"""The Goedel-numbered machine universe.

Index i names the i-th binary string in length-lex order (index 0 is the
empty string).  Every string decodes to exactly one machine:

  * first bit 1: a literal machine.  The remaining bits, read as a binary
    numeral, are both the machine's output and the digits it writes; an empty
    remainder is a diverger.
  * first bit 0: a state table.  3 bits give k-1 (so 1..8 states), then 3k
    transition records follow, one per (state, symbol in blank/0/1) in that
    order.  A record is 2 bits write (00 blank, 01 zero, 10 one, 11 invalid),
    1 bit move (0 left, 1 right), and ceil(log2(k+1)) bits next-state where
    0 means halt.  Underrun, leftover bits, or an invalid field make the
    string a diverger, so decoding is total.

The bit layout above is normative for interoperability and must not change.

Simulation is deterministic and budgeted: a run either halts with an output
and an exact step count, or reports that the budget ran out.  The output of
a halted tape is the binary numeral from the leftmost non-blank cell up to
the first blank after it (an all-blank tape outputs 0).

One step relation serves the simulator, trace and the history steppers: a
table compiles once into flat records (write, move +1/-1, 3*next) indexed by
3*state + symbol.  A run's tape is a bytearray plus an origin (the index of
cell 0), stepped in chunks with no bounds checks: before a chunk, a head near
an end gets half the tape's length of padding, so tapes grow geometrically
with the cells visited, never with the budget.  A halted run reads its output
from the bytes and drops the tape, so a live run holds O(visited cells) bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Union

__all__ = [
    "BLANK",
    "ZERO",
    "ONE",
    "LEFT",
    "RIGHT",
    "Literal",
    "Table",
    "Diverger",
    "MachineKind",
    "StateTable",
    "Configuration",
    "Halted",
    "OutOfBudget",
    "OUT_OF_BUDGET",
    "RunResult",
    "index_to_program",
    "program_to_index",
    "decode_program",
    "encode_table",
    "table_index",
    "literal_index",
    "run",
    "run_on_empty",
    "trace",
    "read_output",
    "numeral_symbols",
    "canonical_bits",
    "Simulator",
    "shared_simulator",
]

# Tape symbols double as base-3 digits in history codes; keep these values.
BLANK, ZERO, ONE = 0, 1, 2
LEFT, RIGHT = 0, 1

_SYMBOLS = (BLANK, ZERO, ONE)
_WRITE_BITS = {"00": BLANK, "01": ZERO, "10": ONE}
_WRITE_CODE = {BLANK: "00", ZERO: "01", ONE: "10"}
_BLANK_CELL = bytes((BLANK,))
_DIGIT_SYMBOLS = bytes.maketrans(b"01", bytes((ZERO, ONE)))
_SYMBOL_DIGITS = bytes.maketrans(bytes((ZERO, ONE)), b"01")


def canonical_bits(x: int) -> str:
    """Canonical binary numeral of x; 0 is the one-digit string "0"."""
    if x < 0:
        raise ValueError("naturals only")
    return format(x, "b")


def index_to_program(i: int) -> str:
    """The i-th binary string in length-lex order."""
    if i < 0:
        raise ValueError("naturals only")
    return format(i + 1, "b")[1:]


def program_to_index(program: str) -> int:
    """Inverse of index_to_program."""
    return int("1" + program, 2) - 1


@dataclass(frozen=True)
class StateTable:
    """k states (1..8); rows[s-1][symbol] = (write, move, next), next 0 halts."""

    k: int
    rows: tuple[tuple[tuple[int, int, int], ...], ...]

    def record(self, state: int, symbol: int) -> tuple[int, int, int]:
        return self.rows[state - 1][symbol]

    @cached_property
    def code(self) -> tuple:
        """code[3*state + symbol] = (write, +1 or -1, 3*next); halt state 0 has None."""
        return (None, None, None) + tuple(
            (write, 1 if move == RIGHT else -1, 3 * nxt)
            for row in self.rows
            for write, move, nxt in row
        )


@dataclass(frozen=True)
class Literal:
    payload: int


@dataclass(frozen=True)
class Table:
    states: StateTable


@dataclass(frozen=True)
class Diverger:
    pass


MachineKind = Union[Literal, Table, Diverger]

_DIVERGER = Diverger()


def decode_program(program: str) -> MachineKind:
    """Total decoder from program strings to machines."""
    if program == "":
        return _DIVERGER
    if program[0] == "1":
        payload = program[1:]
        if payload == "":
            return _DIVERGER
        return Literal(int(payload, 2))
    if len(program) < 4:
        return _DIVERGER
    k = int(program[1:4], 2) + 1
    next_bits = k.bit_length()
    record_bits = 2 + 1 + next_bits
    body = program[4:]
    if len(body) != 3 * k * record_bits:
        return _DIVERGER
    rows = []
    pos = 0
    for _state in range(k):
        row = []
        for _symbol in _SYMBOLS:
            write = _WRITE_BITS.get(body[pos : pos + 2])
            if write is None:
                return _DIVERGER
            move = RIGHT if body[pos + 2] == "1" else LEFT
            nxt = int(body[pos + 3 : pos + 3 + next_bits], 2)
            if nxt > k:
                return _DIVERGER
            row.append((write, move, nxt))
            pos += record_bits
        rows.append(tuple(row))
    return Table(StateTable(k, tuple(rows)))


def encode_table(table: StateTable) -> str:
    """Emit the program string whose decode is exactly this table."""
    if not 1 <= table.k <= 8:
        raise ValueError("state count must be 1..8")
    if len(table.rows) != table.k:
        raise ValueError("need one row per state")
    next_bits = table.k.bit_length()
    out = ["0", format(table.k - 1, "03b")]
    for row in table.rows:
        if len(row) != 3:
            raise ValueError("need one record per symbol")
        for write, move, nxt in row:
            if write not in _WRITE_CODE or move not in (LEFT, RIGHT):
                raise ValueError("bad record field")
            if not 0 <= nxt <= table.k:
                raise ValueError("next state out of range")
            out.append(_WRITE_CODE[write])
            out.append("1" if move == RIGHT else "0")
            out.append(format(nxt, f"0{next_bits}b"))
    return "".join(out)


def table_index(table: StateTable) -> int:
    return program_to_index(encode_table(table))


def literal_index(x: int) -> int:
    """Index of the literal machine writing x; an upper bound for any shorter
    program with the same output."""
    return program_to_index("1" + canonical_bits(x))


@dataclass
class Configuration:
    """state 0..k (0 only when halted), head cell, and the visited tape cells."""

    state: int
    head: int
    tape: dict[int, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Halted:
    output: int
    steps: int


@dataclass(frozen=True)
class OutOfBudget:
    pass


OUT_OF_BUDGET = OutOfBudget()

RunResult = Union[Halted, OutOfBudget]


def read_output(symbols: Iterable[int]) -> int:
    """Binary numeral from the leftmost non-blank symbol to the next blank."""
    digits = bytes(symbols).lstrip(_BLANK_CELL).partition(_BLANK_CELL)[0]
    return int(digits.translate(_SYMBOL_DIGITS), 2) if digits else 0


def numeral_symbols(x: int) -> bytes:
    """Tape symbols of the canonical numeral of x, most significant first."""
    return canonical_bits(x).encode().translate(_DIGIT_SYMBOLS)


# A head this close to an end is padded before a chunk; also the least pad.
_MARGIN = 64


class _TableRun:
    """Incremental simulation state for one (table, input) pair.

    Advancing never rewinds, so a memoized run answers every budget for the
    same pair exactly as a fresh simulation would.  base is 3*state, and
    tape[origin + c] holds cell c until the run halts and drops the tape.
    """

    __slots__ = ("code", "base", "tape", "origin", "head", "steps", "halted")

    def __init__(self, table: StateTable, input_value: int | None):
        self.code = table.code
        self.base = 3
        self.tape: bytearray | None = bytearray(
            _BLANK_CELL if input_value is None else numeral_symbols(input_value)
        )
        self.origin = self.head = self.steps = 0
        self.halted: Halted | None = None

    def advance(self, budget: int) -> RunResult:
        if self.halted is None and self.steps < budget:
            self._run(budget)
        halted = self.halted
        if halted is not None and halted.steps <= budget:
            return halted
        return OUT_OF_BUDGET

    def _run(self, budget: int) -> None:
        code, tape, head, base, steps = self.code, self.tape, self.head, self.base, self.steps
        while base and steps < budget:
            room = min(head, len(tape) - 1 - head)  # steps that stay on the tape
            if room < min(budget - steps, _MARGIN):
                pad = bytes(max(_MARGIN, len(tape) >> 1))
                if head < _MARGIN:
                    tape[:0] = pad
                    head += len(pad)
                    self.origin += len(pad)
                if len(tape) - 1 - head < _MARGIN:
                    tape += pad
                continue
            chunk = min(budget - steps, room)
            for i in range(chunk):
                write, move, base = code[base + tape[head]]
                tape[head] = write
                head += move
                if not base:
                    chunk = i + 1
                    break
            steps += chunk
        self.head, self.base, self.steps = head, base, steps
        if not base:
            self.halted = Halted(read_output(tape), steps)
            self.tape = None


class Simulator:
    """Memoizing front end for run results.

    Results are identical to fresh simulation; the memo only avoids
    re-stepping the same (machine, input) pair under growing budgets.  It keeps
    each decoded kind (a table's compiled records with it) and one run per
    (table, input), which holds its tape only while it has not halted.
    """

    def __init__(self) -> None:
        self._kinds: dict[int, MachineKind] = {}
        self._runs: dict[tuple[int, int | None], _TableRun] = {}

    def kind(self, index: int) -> MachineKind:
        got = self._kinds.get(index)
        if got is None:
            got = decode_program(index_to_program(index))
            self._kinds[index] = got
        return got

    def result(self, index: int, input_value: int | None, budget: int) -> RunResult:
        kind = self.kind(index)
        if isinstance(kind, Diverger):
            return OUT_OF_BUDGET
        if isinstance(kind, Literal):
            steps = len(canonical_bits(kind.payload))
            if steps <= budget:
                return Halted(kind.payload, steps)
            return OUT_OF_BUDGET
        key = (index, input_value)
        state = self._runs.get(key)
        if state is None:
            state = _TableRun(kind.states, input_value)
            self._runs[key] = state
        return state.advance(budget)


shared_simulator = Simulator()


def run(index: int, input_value: int, budget: int, sim: Simulator | None = None) -> RunResult:
    """Run machine index on input_value for at most budget steps."""
    return (sim or shared_simulator).result(index, input_value, budget)


def run_on_empty(index: int, budget: int, sim: Simulator | None = None) -> RunResult:
    """Run machine index on an all-blank tape for at most budget steps."""
    return (sim or shared_simulator).result(index, None, budget)


def trace(index: int, input_value: int | None, budget: int) -> Iterator[Configuration]:
    """Configurations up to halting or the budget, generated one at a time.

    input_value None means an all-blank initial tape.  A configuration's tape
    holds the input cells and every cell written so far.  Literal machines
    never consult the tape; their configurations start blank regardless of
    input so that the halting tape reads back exactly the payload.
    """
    kind = decode_program(index_to_program(index))
    if isinstance(kind, Literal):
        digits = numeral_symbols(kind.payload)
        yield Configuration(1, 0, {})
        for j in range(1, min(budget, len(digits)) + 1):
            yield Configuration(int(j < len(digits)), j, dict(enumerate(digits[:j])))
        return
    cells = b"" if input_value is None else numeral_symbols(input_value)
    if isinstance(kind, Diverger):
        for _ in range(budget + 1):
            yield Configuration(1, 0, dict(enumerate(cells)))
        return
    run = _TableRun(kind.states, input_value)
    tape, lo, hi = run.tape, 0, len(cells) - 1
    while True:
        origin = run.origin
        window = {c: tape[origin + c] for c in range(lo, hi + 1)}
        yield Configuration(run.base // 3, run.head - origin, window)
        if run.halted is not None or run.steps >= budget:
            return
        lo, hi = min(lo, run.head - origin), max(hi, run.head - origin)
        run.advance(run.steps + 1)
