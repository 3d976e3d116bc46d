"""Computation histories and the halting / mind-change predicates over them.

A history is a natural number coding a non-empty list of configuration
snapshots.  Each snapshot is coded as

    pair(pair(state, head_offset), pair(window_length, base3_numeral))

where the window covers every visited cell plus the head, head_offset is the
head position relative to the window's left edge, and the window's symbols
(blank=0, zero=1, one=2) are read as a base-3 numeral, leftmost digit most
significant.  The list itself is coded with encode_prefix, so a history is
decodable without knowing its length.

The predicates:

  * is_halting_history(e, x, y): y decodes to the deterministic run of
    machine e on input x, started from the initial configuration, stepping
    legally, ending in state 0, possibly followed by extra copies of the
    final snapshot.  Total: undecodable y is simply False.
  * history_output(y): output of the last snapshot (0 if undecodable).
  * is_mind_change_history(e, xn, y): with xn = pair(x, n), y is a halting
    history at stage n whose output differs from the output of every valid
    history z < y of any earlier stage m < n.
  * is_first_halting_history(e, x, y): y is a halting history and no z < y
    is one; true at no more than one point per (e, x).

Because appending a snapshot strictly increases a code, the set of halting
histories for a fixed (e, x) is exactly {minimal trace code} plus its
paddings, and codes double in bit length with each appended snapshot.  The
"smart" search helpers below exploit that structure; they compute the same
values as the literal bounded searches, which stay available (and are used
as oracles in the tests) for codes small enough to scan.

Machines are given either as program indices or as any object with
initial_view/step_view methods; StagePropertyMachine wraps an anytime guess
procedure as such an object so limit properties get histories too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Protocol, Sequence, Union

from .encoding import decode_prefix, encode_prefix, is_prefix_code, pair, unpair
from .machine import (
    BLANK,
    Configuration,
    Diverger,
    Literal,
    StateTable,
    Table,
    decode_program,
    index_to_program,
    numeral_symbols,
    read_output,
)

__all__ = [
    "View",
    "view_of",
    "encode_view",
    "decode_view",
    "encode_views",
    "encode_history",
    "decode_history",
    "pad_history",
    "is_halting_history",
    "history_output",
    "is_mind_change_history",
    "is_first_halting_history",
    "least_satisfying",
    "greatest_satisfying",
    "minimal_history",
    "minimal_history_below",
    "mind_change_last_witness",
    "StagePropertyMachine",
    "MAX_WINDOW",
]

# (state, head offset into window, window symbols)
View = tuple[int, int, tuple[int, ...]]

# Decoded windows larger than this are rejected.  A genuine history with a
# bigger window needs that many machine steps, putting its code far beyond
# anything a bounded search here ever touches, so the guard never changes an
# answer on reachable inputs; it only stops garbage codes from allocating.
MAX_WINDOW = 4096


def view_of(cfg: Configuration) -> View:
    """Window snapshot of a configuration: visited cells plus the head."""
    cells = list(cfg.tape.keys())
    lo = min(cells + [cfg.head])
    hi = max(cells + [cfg.head])
    window = tuple(cfg.tape.get(c, BLANK) for c in range(lo, hi + 1))
    return (cfg.state, cfg.head - lo, window)


def encode_view(view: View) -> int:
    state, offset, window = view
    numeral = 0
    for sym in window:
        numeral = numeral * 3 + sym
    return pair(pair(state, offset), pair(len(window), numeral))


def decode_view(code: int) -> Optional[View]:
    head, wcode = unpair(code)
    state, offset = unpair(head)
    length, numeral = unpair(wcode)
    if length == 0 or length > MAX_WINDOW or offset >= length:
        return None
    if numeral >= 3**length:
        return None
    digits = []
    for _ in range(length):
        numeral, d = divmod(numeral, 3)
        digits.append(d)
    digits.reverse()
    return (state, offset, tuple(digits))


def encode_views(views: Sequence[View]) -> int:
    if not views:
        raise ValueError("a history needs at least one snapshot")
    return encode_prefix([encode_view(v) for v in views])


def encode_history(cfgs: Iterable[Configuration]) -> int:
    """Code a non-empty configuration sequence."""
    return encode_views([view_of(c) for c in cfgs])


def decode_history(code: int) -> Optional[list[View]]:
    """Snapshots of a history code, or None if the code is malformed.

    Only canonical codes count: the code must be exactly encode_views of its
    snapshots.  The total prefix decoder also maps non-image codes to lists,
    and accepting those aliases would give one run many history codes below
    its own, destroying the minimality that the first-history predicate and
    the bounded searches rely on.
    """
    if not is_prefix_code(code):
        return None
    views = []
    for part in decode_prefix(code):
        view = decode_view(part)
        if view is None:
            return None
        views.append(view)
    return views


def pad_history(code: int) -> int:
    """Append one more copy of the final snapshot; strictly increases the code."""
    views = decode_history(code)
    if views is None:
        raise ValueError("not a decodable history")
    return encode_views(views + [views[-1]])


class Stepper(Protocol):
    """Deterministic machine seen through window snapshots."""

    def initial_view(self, input_value: int) -> View: ...

    def step_view(self, view: View) -> Optional[View]: ...


def _input_view(input_value: int) -> View:
    return (1, 0, tuple(numeral_symbols(input_value)))


class _TableStepper:
    def __init__(self, table: StateTable):
        self.k = table.k
        self.code = table.code

    def initial_view(self, input_value: int) -> View:
        return _input_view(input_value)

    def step_view(self, view: View) -> Optional[View]:
        state, offset, window = view
        if not 1 <= state <= self.k:
            return None
        write, move, base = self.code[3 * state + window[offset]]
        cells = list(window)
        cells[offset] = write
        offset += move
        if offset < 0:
            cells.insert(0, BLANK)
            offset = 0
        elif offset == len(cells):
            cells.append(BLANK)
        return (base // 3, offset, tuple(cells))


class _LiteralStepper:
    # Literal machines never consult the tape, so their histories start from
    # a blank window whatever the input; each step writes one payload digit.
    def __init__(self, payload: int):
        self.digits = tuple(numeral_symbols(payload))

    def initial_view(self, input_value: int) -> View:
        return (1, 0, (BLANK,))

    def step_view(self, view: View) -> Optional[View]:
        state, offset, window = view
        if state != 1 or offset != len(window) - 1 or offset >= len(self.digits):
            return None
        if window != self.digits[:offset] + (BLANK,):
            return None
        done = offset + 1 == len(self.digits)
        return (0 if done else 1, offset + 1, self.digits[: offset + 1] + (BLANK,))


class _DivergerStepper:
    def initial_view(self, input_value: int) -> View:
        return _input_view(input_value)

    def step_view(self, view: View) -> Optional[View]:
        return view if view[0] == 1 else None


class StagePropertyMachine:
    """An anytime guess procedure wrapped as a history-producing machine.

    On input pair(x, n) the machine evaluates guess(x, n).  A guess g halts
    in one step with g written on the tape; no guess loops forever.  This
    gives every stage of a limit property a genuine halting history whose
    code grows with the stage, which is what the mind-change predicate needs.
    """

    def __init__(self, guess: Callable[[int, int], Optional[int]]):
        self.guess = guess

    def initial_view(self, input_value: int) -> View:
        return _input_view(input_value)

    def step_view(self, view: View) -> Optional[View]:
        state, offset, window = view
        if state != 1:
            return None
        input_value = read_output(window)
        if view != _input_view(input_value):
            return None
        x, n = unpair(input_value)
        g = self.guess(x, n)
        if g is None:
            return view
        return (0, 0, tuple(numeral_symbols(g)))


MachineLike = Union[int, Stepper]


def _stepper_for(machine: MachineLike) -> Stepper:
    if isinstance(machine, int):
        kind = decode_program(index_to_program(machine))
        if isinstance(kind, Table):
            return _TableStepper(kind.states)
        if isinstance(kind, Literal):
            return _LiteralStepper(kind.payload)
        return _DivergerStepper()
    return machine


def is_halting_history(machine: MachineLike, x: int, y: int) -> bool:
    """True iff y codes the halting run of machine on x, possibly padded."""
    views = decode_history(y)
    if not views:
        return False
    stepper = _stepper_for(machine)
    if views[0] != stepper.initial_view(x):
        return False
    for cur, nxt in zip(views, views[1:]):
        if cur[0] == 0:
            if nxt != cur:
                return False
        elif stepper.step_view(cur) != nxt:
            return False
    return views[-1][0] == 0


def history_output(y: int) -> int:
    """Output written on the final snapshot of y; 0 if y is undecodable."""
    views = decode_history(y)
    if not views:
        return 0
    return read_output(views[-1][2])


def minimal_history(machine: MachineLike, x: int, step_limit: int) -> Optional[int]:
    """Code of the unpadded halting run, if it halts within step_limit steps.

    Determinism plus the strict growth of codes under extension make this the
    least y with is_halting_history(machine, x, y): every valid history is
    the full trace followed by padding, and padding only increases codes.
    """
    stepper = _stepper_for(machine)
    views = [stepper.initial_view(x)]
    for _ in range(step_limit):
        if views[-1][0] == 0:
            break
        nxt = stepper.step_view(views[-1])
        if nxt is None or nxt == views[-1]:
            return None
        views.append(nxt)
    if views[-1][0] != 0:
        return None
    return encode_views(views)


def minimal_history_below(machine: MachineLike, x: int, ceiling: int) -> Optional[int]:
    """Least halting-history code < ceiling, or None.

    Prefix codes grow strictly with each simulated step, so the run can be
    abandoned as soon as the partial trace already codes past the ceiling;
    that bound is what makes the halting question decidable here.
    """
    stepper = _stepper_for(machine)
    views = [stepper.initial_view(x)]
    while True:
        if encode_views(views) >= ceiling:
            return None
        if views[-1][0] == 0:
            return encode_views(views)
        nxt = stepper.step_view(views[-1])
        if nxt is None or nxt == views[-1]:
            return None
        views.append(nxt)


def is_mind_change_history(machine: MachineLike, xn: int, y: int) -> bool:
    """Stage-n halting history whose output is new against all earlier stages.

    Literally: is_halting_history at stage n, and no m < n admits a valid
    history z < y with the same output.  The inner quantifier is evaluated
    through minimal_history_below: stage m has a valid z < y exactly when its
    minimal history is below y, and all its histories share one output.
    """
    if not is_halting_history(machine, xn, y):
        return False
    x, n = unpair(xn)
    value = history_output(y)
    for m in range(n):
        h = minimal_history_below(machine, pair(x, m), y)
        if h is not None and history_output(h) == value:
            return False
    return True


def is_first_halting_history(machine: MachineLike, x: int, y: int) -> bool:
    """Halting history with no smaller one; unique per (machine, x)."""
    if not is_halting_history(machine, x, y):
        return False
    return minimal_history_below(machine, x, y) is None


def least_satisfying(pred: Callable[[int], bool], bound: int) -> Optional[int]:
    """Smallest y < bound with pred(y), or None."""
    for y in range(bound):
        if pred(y):
            return y
    return None


def greatest_satisfying(pred: Callable[[int], bool], bound: int) -> Optional[int]:
    """Largest y < bound with pred(y), or None."""
    for y in range(bound - 1, -1, -1):
        if pred(y):
            return y
    return None


def mind_change_last_witness(
    machine: MachineLike, x: int, stage_max: int, bound: int
) -> Optional[int]:
    """Largest y < bound that is a mind-change history at some stage <= stage_max.

    Computes the same value as greatest_satisfying over the disjunction of
    is_mind_change_history across stages, without scanning: every witness is
    some stage's minimal history or a padding of it, so it is enough to
    enumerate those and apply the mind-change filter.
    """
    stages: list[tuple[Optional[int], int]] = []
    for n in range(stage_max + 1):
        h = minimal_history_below(machine, pair(x, n), bound)
        stages.append((h, history_output(h) if h is not None else 0))
    best: Optional[int] = None
    for n, (h, value) in enumerate(stages):
        if h is None:
            continue
        y = h
        while y < bound:
            killed = any(
                hm is not None and vm == value and hm < y
                for hm, vm in stages[:n]
            )
            if not killed and (best is None or y > best):
                best = y
            y = pad_history(y)
    return best
