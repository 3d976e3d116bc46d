"""The catalog of limit-computable properties, as stage functions.

Each property is addressable by a stable string id used by the CLI and the
trace format:

    k               shortest program writing x from a blank tape
    incompressible  n-th value whose shortest program is the literal one
    partial-detect  least input where machine x looks divergent so far
    partial-enum    n-th machine confirmed to diverge somewhere
    easy-eq         equality of two machines under per-input step bounds
    class-eq        equality gated on membership in two enumerated classes
    error-ratio     limiting disagreement ratio of two machines, as a rational
    canonical       duplicate-free enumeration positions over a source
    cbe             pointwise-equal, never-slower (position, machine) pairs

All arithmetic on ratios is exact (fractions.Fraction); no floats anywhere.
Stage evaluators may memoize simulation facts between stages of one stream,
the step counts they report are computed from run results alone, so cached
and uncached evaluation produce identical streams.

Guessed values are naturals throughout: pairs are coded with the diagonal
pairing and a ratio a/b is coded as pair(a, b).
"""

from __future__ import annotations

import bisect
import weakref
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .encoding import decode_prefix, pair, unpair
from .engine import (
    DEFAULT_STABILIZATION_WINDOW,
    BudgetSchedule,
    Guess,
    NO_OUTPUT,
    StageFunction,
    StageResult,
)
from .machine import (
    Halted,
    Literal,
    OutOfBudget,
    Simulator,
    literal_index,
    literal_steps_below,
    shared_simulator,
)

__all__ = [
    "PROPERTY_IDS",
    "StepBound",
    "rational_code",
    "rational_from_code",
    "simplest_rational_in",
    "shortest_program_property",
    "incompressible_property",
    "divergence_search_property",
    "divergers_enumeration_property",
    "bounded_equality_property",
    "class_equality_property",
    "error_ratio_property",
    "canonical_enumeration",
    "complexity_bound_enumeration",
    "PrefixForm",
]

PROPERTY_IDS = (
    "k",
    "incompressible",
    "partial-detect",
    "partial-enum",
    "easy-eq",
    "class-eq",
    "error-ratio",
    "canonical",
    "cbe",
)

ClassEnumerator = Callable[[int], int]


@dataclass(frozen=True)
class StepBound:
    """Per-input step allowance c0 + c1*(x+1)**d; total and monotone in x."""

    c0: int
    c1: int
    d: int

    def __call__(self, x: int) -> int:
        return self.c0 + self.c1 * (x + 1) ** self.d


def rational_code(value: Fraction) -> int:
    """Natural-number code of a ratio in lowest terms."""
    return pair(value.numerator, value.denominator)


def rational_from_code(code: int) -> Fraction:
    num, den = unpair(code)
    if den == 0:
        raise ValueError("ratio code with zero denominator")
    return Fraction(num, den)


def simplest_rational_in(lo: Fraction, hi: Fraction) -> Fraction:
    """Fraction of least denominator in [lo, hi] within [0, 1]; ties on the
    denominator resolve to the smaller numerator."""
    if not (0 <= lo <= hi <= 1):
        raise ValueError("need 0 <= lo <= hi <= 1")
    return _simplest(lo, hi)


def _simplest(lo: Fraction, hi: Fraction) -> Fraction:
    # Continued-fraction descent on the closed interval, lo <= hi.
    floor_lo = lo.numerator // lo.denominator
    if lo == floor_lo:
        return Fraction(floor_lo)
    if floor_lo < hi.numerator // hi.denominator or hi.denominator == 1:
        return Fraction(floor_lo + 1)
    inner = _simplest(1 / (hi - floor_lo), 1 / (lo - floor_lo))
    return floor_lo + 1 / inner


def _run_cost(result, allowed: int) -> int:
    return result.steps if isinstance(result, Halted) else allowed


class _ShortestProgramCore:
    """Shared engine of the shortest-program search for one target value.

    Stage n charges a run of n steps to every index below the literal one,
    z = literal_index(x), and guesses the least of them seen to write x in
    fewer than n steps, else z.  Only the state tables below z are simulated,
    up to a growing step horizon.  The rest are known without a run: a
    literal "1"+b halts in max(1, bitlen(b)) steps, and none below z writes x,
    since its payload is shorter than x's numeral or, at the same length,
    smaller or zero-padded; every other index diverges.  The state is a
    histogram of halting steps, with cumulative (count, steps) sums.

    Finding: in the real universe k(x) = literal_index(x) at every scale that
    can be enumerated.  Below the literal of any x < 2^32 the only tables are
    the 1,728 one-state ones (the first two-state table is a 34-bit program),
    and from a blank tape each of those halts in one step or never, writing
    at most one digit.  So only planted universes exercise the drop logic.
    """

    def __init__(self, x: int, sim: Simulator):
        self.x = x
        self.z = literal_index(x)
        self.simulated = tuple(sim.table_indices_below(self.z))
        self.literal_steps = Counter(literal_steps_below(self.z))
        for y in self.simulated:  # a subclass's table_indices_below may add literals
            kind = sim.kind(y)
            if isinstance(kind, Literal):
                self.literal_steps[max(1, kind.payload.bit_length())] -= 1
        self.horizon = 0
        self.step_values: list[int] = []  # ascending halting steps
        self.halted_upto: list[tuple[int, int]] = [(0, 0)]  # (count, steps) sums
        self.improvements: list[tuple[int, int]] = []  # (steps, index), target hits

    def ensure(self, n: int, sim: Simulator) -> None:
        if n <= self.horizon:
            return
        horizon = max(64, 1 << (n - 1).bit_length())
        halted = Counter(self.literal_steps)
        improvements = []
        for y in self.simulated:
            result = sim.result(y, None, horizon)
            if isinstance(result, Halted):
                halted[result.steps] += 1
                if result.output == self.x:
                    improvements.append((result.steps, y))
        self.step_values = sorted(halted)
        count = steps = 0
        self.halted_upto = [(0, 0)]
        for s in self.step_values:
            count += halted[s]
            steps += s * halted[s]
            self.halted_upto.append((count, steps))
        improvements.sort()
        best = []
        cur = self.z
        for s, y in improvements:  # best candidate by halting-step threshold
            if y < cur:
                cur = y
                best.append((s, y))
        self.improvements = best
        self.horizon = horizon

    def guess(self, n: int) -> int:
        """Least index writing x in fewer than n steps, else the literal one."""
        value = self.z
        for s, y in self.improvements:
            if s < n:
                value = y
            else:
                break
        return value

    def cost(self, n: int) -> int:
        """Steps charged by running every candidate for n steps."""
        count, steps = self.halted_upto[bisect.bisect_right(self.step_values, n)]
        return steps + n * (self.z - count)


# A simulator's cores live exactly as long as it does: later streams on the
# same simulator reuse them, and they hold no reference back to it.
_cores = weakref.WeakKeyDictionary()  # Simulator -> {x: _ShortestProgramCore}


def _core_for(x: int, sim: Simulator, n: int) -> _ShortestProgramCore:
    """The search for x on sim, resolved far enough to answer stage n."""
    cores = _cores.setdefault(sim, {})
    core = cores.get(x)
    if core is None:
        core = cores[x] = _ShortestProgramCore(x, sim)
    core.ensure(n, sim)
    return core


class _ShortestProgramEvaluator:
    def __init__(self, x: int, sim: Simulator):
        self.x = x
        self.sim = sim

    def stage(self, s: int, t: int, budget: int) -> StageResult:
        if budget < t:
            return NO_OUTPUT, 0
        core = _core_for(self.x, self.sim, t)
        return Guess(core.guess(t)), core.cost(t)


def shortest_program_property(x: int, sim: Optional[Simulator] = None) -> StageFunction:
    """Stage n runs every index below literal_index(x) for n steps on a blank
    tape and guesses the least one writing x in fewer than n steps, falling
    back to the literal index.  Guesses never increase."""
    sim = sim or shared_simulator
    return StageFunction("k", lambda: _ShortestProgramEvaluator(x, sim))


class _IncompressibleEvaluator:
    def __init__(self, n: int, sim: Simulator):
        self.n = n
        self.sim = sim

    def stage(self, s: int, t: int, budget: int) -> StageResult:
        if budget < t:
            return NO_OUTPUT, 0
        steps = 0
        found = 0
        value = None
        for x in range(t + 1):
            core = _core_for(x, self.sim, t)
            steps += core.cost(t)
            if core.guess(t) == core.z:
                if found == self.n:
                    value = x
                found += 1
        if value is None:
            return NO_OUTPUT, steps
        return Guess(value), steps


def incompressible_property(n: int, sim: Optional[Simulator] = None) -> StageFunction:
    """Stage t recomputes the shortest-program guesses for 0..t and emits the
    (n+1)-th value whose guess is still its own literal index; discovering a
    shorter program later shifts every later position down."""
    sim = sim or shared_simulator
    return StageFunction("incompressible", lambda: _IncompressibleEvaluator(n, sim))


class _DivergenceSearchEvaluator:
    def __init__(self, x: int, sim: Simulator):
        self.x = x
        self.sim = sim

    def stage(self, s: int, t: int, budget: int) -> StageResult:
        if budget < t:
            return NO_OUTPUT, 0
        steps = 0
        stuck = None
        for z in range(t + 1):
            result = self.sim.result(self.x, z, t)
            steps += _run_cost(result, t)
            if stuck is None and isinstance(result, OutOfBudget):
                stuck = z
        if stuck is not None:
            return Guess(pair(self.x, stuck)), steps
        return Guess(pair(self.x, t)), steps


def divergence_search_property(x: int, sim: Optional[Simulator] = None) -> StageFunction:
    """Stage y runs machine x on every input up to y for y steps and guesses
    the coded pair (x, least stuck input), or (x, y) when none is stuck yet.
    Total machines that keep halting make the guess move forever."""
    sim = sim or shared_simulator
    return StageFunction("partial-detect", lambda: _DivergenceSearchEvaluator(x, sim))


class _StreamWindow:
    """Trailing-window confirmation over one inner guess stream."""

    def __init__(self, evaluator, window: int):
        self.evaluator = evaluator
        self.window = window
        self.next_stage = 0
        self.recent: list[int] = []

    def advance_to(self, s: int, t: int, budget_of: Callable[[int], int]) -> int:
        steps = 0
        while self.next_stage <= t:
            stage = self.next_stage
            outcome, used = self.evaluator.stage(s, stage, budget_of(stage))
            steps += used
            if isinstance(outcome, Guess):
                self.recent.append(outcome.value)
                if len(self.recent) > self.window:
                    self.recent.pop(0)
            self.next_stage += 1
        return steps

    def confirmed(self) -> Optional[int]:
        if len(self.recent) == self.window and len(set(self.recent)) == 1:
            return self.recent[0]
        return None


class _DivergersEnumerationEvaluator:
    def __init__(self, n: int, window: int, sim: Simulator):
        self.n = n
        self.window = window
        self.sim = sim
        self.trackers: list[_StreamWindow] = []

    def stage(self, s: int, t: int, budget: int) -> StageResult:
        if budget < t:
            return NO_OUTPUT, 0
        while len(self.trackers) <= t:
            a = len(self.trackers)
            self.trackers.append(
                _StreamWindow(_DivergenceSearchEvaluator(a, self.sim), self.window)
            )
        steps = 0
        confirmed = []
        for a, tracker in enumerate(self.trackers):
            # Inner stages use their own index as the run budget; the outer
            # stage budget only gates this stage as a whole.
            steps += tracker.advance_to(a, t, lambda stage: stage)
            value = tracker.confirmed()
            if value is not None:
                confirmed.append(value)
        confirmed.sort()
        if len(confirmed) <= self.n:
            return NO_OUTPUT, steps
        return Guess(unpair(confirmed[self.n])[0]), steps


def divergers_enumeration_property(
    n: int,
    window: int = DEFAULT_STABILIZATION_WINDOW,
    sim: Optional[Simulator] = None,
) -> StageFunction:
    """Stage t collects machines a <= t whose divergence-search guess has held
    one value for a trailing confirmation window, orders the guessed pairs by
    their code, and emits the machine of the (n+1)-th pair."""
    sim = sim or shared_simulator
    return StageFunction(
        "partial-enum", lambda: _DivergersEnumerationEvaluator(n, window, sim)
    )


class _EqualityScanEvaluator:
    """Shared engine of the bounded-equality test.

    Stage t: find the largest input y <= t where either side exceeds its
    step bound and guess y+1 once per distinct value; with no fresh budget
    exception, guess 0 on a seen output difference and 1 otherwise.
    """

    def __init__(self, property_id, i, j, bound_i, bound_j, gate, sim):
        self.property_id = property_id
        self.i = i
        self.j = j
        self.bound_i = bound_i
        self.bound_j = bound_j
        self.gate = gate  # stage-budget membership gate, or None
        self.sim = sim
        self.past_guesses: set[int] = set()

    def stage(self, s: int, t: int, budget: int) -> StageResult:
        if self.gate is not None and not self.gate(t):
            return NO_OUTPUT, 0
        bound_i = self.bound_i or (lambda y: budget)
        bound_j = self.bound_j or (lambda y: budget)
        steps = 0
        frontier = None
        difference = False
        for y in range(t + 1):
            allowed_i = bound_i(y)
            allowed_j = bound_j(y)
            a = self.sim.result(self.i, y, allowed_i)
            b = self.sim.result(self.j, y, allowed_j)
            steps += _run_cost(a, allowed_i) + _run_cost(b, allowed_j)
            if isinstance(a, OutOfBudget) or isinstance(b, OutOfBudget):
                frontier = y
            elif a.output != b.output:
                difference = True
        if frontier is not None and frontier + 1 not in self.past_guesses:
            value = frontier + 1
        else:
            value = 0 if difference else 1
        self.past_guesses.add(value)
        return Guess(value), steps


def bounded_equality_property(
    i: int,
    j: int,
    g: StepBound,
    h: StepBound,
    sim: Optional[Simulator] = None,
) -> StageFunction:
    """Equality test for machines whose step counts are meant to respect g
    and h up to finitely many exceptions; bound violations are guessed as
    exception frontiers before the 0/1 verdict."""
    sim = sim or shared_simulator
    return StageFunction(
        "easy-eq",
        lambda: _EqualityScanEvaluator("easy-eq", i, j, g, h, None, sim),
    )


def class_equality_property(
    i: int,
    j: int,
    enum_a: ClassEnumerator,
    enum_b: ClassEnumerator,
    sim: Optional[Simulator] = None,
) -> StageFunction:
    """As bounded equality, but silent until enum_a has emitted i and enum_b
    has emitted j among their first t+1 values; the per-input step bound is
    the stage budget itself."""
    sim = sim or shared_simulator

    def make():
        emitted_a: set[int] = set()
        emitted_b: set[int] = set()
        seen = 0

        def gate(t: int) -> bool:
            nonlocal seen
            while seen <= t:
                emitted_a.add(enum_a(seen))
                emitted_b.add(enum_b(seen))
                seen += 1
            return i in emitted_a and j in emitted_b

        return _EqualityScanEvaluator("class-eq", i, j, None, None, gate, sim)

    return StageFunction("class-eq", make)


class _ErrorRatioEvaluator:
    def __init__(self, i, j, eps, sim):
        self.i = i
        self.j = j
        self.eps = eps
        self.sim = sim

    def stage(self, s: int, t: int, budget: int) -> StageResult:
        if t < 1:
            return NO_OUTPUT, 0
        steps = 0
        differ = 0
        complete = True
        for y in range(1, t + 1):
            a = self.sim.result(self.i, y, budget)
            b = self.sim.result(self.j, y, budget)
            steps += _run_cost(a, budget) + _run_cost(b, budget)
            if isinstance(a, OutOfBudget) or isinstance(b, OutOfBudget):
                complete = False
            elif a.output != b.output:
                differ += 1
        if not complete:
            return NO_OUTPUT, steps
        ratio = Fraction(differ, t)
        margin = self.eps(t)
        lo = max(Fraction(0), ratio - margin)
        hi = min(Fraction(1), ratio + margin)
        return Guess(rational_code(_simplest(lo, hi))), steps


def default_error_margin(t: int) -> Fraction:
    """1/t: nonincreasing and eventually below every positive ratio."""
    return Fraction(1, t)


def error_ratio_property(
    i: int,
    j: int,
    eps: Callable[[int], Fraction] = default_error_margin,
    sim: Optional[Simulator] = None,
) -> StageFunction:
    """Stage t computes the exact disagreement ratio over inputs 1..t (silent
    if any point exceeds the stage budget) and guesses the code of the
    simplest ratio within the stage's error margin."""
    sim = sim or shared_simulator
    return StageFunction("error-ratio", lambda: _ErrorRatioEvaluator(i, j, eps, sim))


class _CanonicalScan:
    """Acceptance scan shared by every canonical position of one stream."""

    def __init__(self, src: ClassEnumerator, sim: Simulator):
        self.src = src
        self.sim = sim

    def accepted(self, t: int, budget: int) -> tuple[list[int], int]:
        steps = 0
        accepted: list[int] = []
        for m in range(t + 1):
            candidate = self.src(m)
            ok = True
            for prev in accepted:
                witness_found = False
                for z in range(t + 1):
                    a = self.sim.result(candidate, z, budget)
                    b = self.sim.result(prev, z, budget)
                    steps += _run_cost(a, budget) + _run_cost(b, budget)
                    if (
                        isinstance(a, Halted)
                        and isinstance(b, Halted)
                        and a.output != b.output
                    ):
                        witness_found = True
                        break
                if not witness_found:
                    ok = False
                    break
            if ok:
                accepted.append(candidate)
        return accepted, steps


class _CanonicalEvaluator:
    def __init__(self, n: int, scan: _CanonicalScan):
        self.n = n
        self.scan = scan

    def stage(self, s: int, t: int, budget: int) -> StageResult:
        accepted, steps = self.scan.accepted(t, budget)
        if len(accepted) <= self.n:
            return NO_OUTPUT, steps
        return Guess(accepted[self.n]), steps


def canonical_enumeration(
    src: ClassEnumerator, sim: Optional[Simulator] = None
) -> Callable[[int], StageFunction]:
    """Positions of a duplicate-free enumeration: stage t accepts an emitted
    index only once a difference witness against every earlier accepted index
    has been seen within the stage budget."""
    sim = sim or shared_simulator

    def position(n: int) -> StageFunction:
        return StageFunction(
            "canonical", lambda: _CanonicalEvaluator(n, _CanonicalScan(src, sim))
        )

    return position


class _NoSlowerScan:
    """Survivor scan of the complexity-bound enumeration for one stream.

    Step counts charged to a stage are those of the comparison runs; the
    canonical positions account for their own work in their own streams.
    """

    def __init__(self, canon, candidates, sim):
        self.canon = canon
        self.candidates = candidates
        self.sim = sim
        self.inner: list = []

    def _canon_guess(self, m: int, t: int, budget: int) -> Optional[int]:
        while len(self.inner) <= m:
            self.inner.append(self.canon(len(self.inner)).make())
        outcome, _ = self.inner[m].stage(m, t, budget)
        return outcome.value if isinstance(outcome, Guess) else None

    def survivors(self, t: int, budget: int) -> tuple[list[tuple[int, int]], int]:
        steps = 0
        pool = sorted({self.candidates(r) for r in range(t + 1)})
        pairs = []
        for m in range(t + 1):
            target = self._canon_guess(m, t, budget)
            if target is None:
                # Canonical positions fill in order, so later ones are
                # silent too at this stage.
                break
            for j in pool:
                pairs.append((pair(m, j), m, target, j))
        pairs.sort()
        survivors = []
        for _, m, target, j in pairs:
            ok = True
            for x in range(t + 1):
                a = self.sim.result(target, x, budget)
                b = self.sim.result(j, x, budget)
                steps += _run_cost(a, budget) + _run_cost(b, budget)
                if isinstance(a, Halted) and isinstance(b, Halted):
                    if a.output != b.output or b.steps > a.steps:
                        ok = False
                        break
            if ok:
                survivors.append((target, j))
        return survivors, steps


class _NoSlowerEvaluator:
    def __init__(self, n: int, scan: _NoSlowerScan):
        self.n = n
        self.scan = scan

    def stage(self, s: int, t: int, budget: int) -> StageResult:
        survivors, steps = self.scan.survivors(t, budget)
        if len(survivors) <= self.n:
            return NO_OUTPUT, steps
        target, j = survivors[self.n]
        return Guess(pair(target, j)), steps


def complexity_bound_enumeration(
    canon: Callable[[int], StageFunction],
    candidates: Optional[ClassEnumerator] = None,
    sim: Optional[Simulator] = None,
) -> Callable[[int], StageFunction]:
    """Positions of the never-slower enumeration: survivors are (canonical
    position m, machine j) pairs, in pair-code order, where no input up to
    the stage shows j differing from or out-stepping the canonical machine.

    candidates defaults to the raw index enumeration j = t; passing a pool
    keeps desk-scale runs affordable while exercising the same mechanism.
    """
    sim = sim or shared_simulator
    candidates = candidates or (lambda r: r)

    def position(n: int) -> StageFunction:
        return StageFunction(
            "cbe", lambda: _NoSlowerEvaluator(n, _NoSlowerScan(canon, candidates, sim))
        )

    return position


class PrefixForm:
    """A property rephrased as a procedure on coded constant-sequence prefixes.

    The prefix carries both the input (its constant entry) and the stage (its
    length); the wrapped evaluator is advanced through stages in order using
    the schedule this form was built for, so composing it over the constant
    sequence reproduces the direct stream exactly.
    """

    def __init__(self, build: Callable[[int], StageFunction], schedule=None):
        self.build = build
        self.schedule = schedule or BudgetSchedule()
        self.evaluator = None
        self.input_value: Optional[int] = None
        self.next_stage = 0
        self.last: Optional[StageResult] = None

    def __call__(self, prefix_code: int, budget: int) -> StageResult:
        values = decode_prefix(prefix_code)
        if len(set(values)) != 1:
            raise ValueError("prefix form expects a constant sequence prefix")
        s = values[0]
        t = len(values) - 1
        if self.evaluator is None:
            self.evaluator = self.build(s).make()
            self.input_value = s
        if s != self.input_value:
            raise ValueError("prefix form bound to a different input")
        if t < self.next_stage - 1:
            raise ValueError("prefix form stages must not rewind")
        while self.next_stage <= t:
            self.last = self.evaluator.stage(s, self.next_stage, self.schedule(self.next_stage))
            self.next_stage += 1
        assert self.last is not None
        return self.last
