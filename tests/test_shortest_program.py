"""The shortest-program search against the literal definition it replaces.

`properties._ShortestProgramCore` simulates only the state tables below
z = literal_index(x) and counts the literals by halting step in closed form.
The oracle here is the earlier per-index scan: it runs every index below z
through `Simulator.result`, so it decodes all of them.
"""

import bisect
import gc
import random
import weakref

from limitlab.engine import Guess, StageFunction, NO_OUTPUT, run_stages
from limitlab.machine import (
    Halted,
    Literal,
    Simulator,
    Table,
    decode_program,
    index_to_program,
    literal_index,
    literal_steps_below,
    program_to_index,
    table_indices,
)
from limitlab.oracle import brute_k
from limitlab.properties import incompressible_property, shortest_program_property

from test_properties import CounterfactualSimulator


class ScanCore:
    """Per-index scan: every index below z runs under the horizon."""

    def __init__(self, x, sim):
        self.x = x
        self.z = literal_index(x)
        self.sim = sim
        self.horizon = 0
        self.halt_steps = []
        self.halt_steps_prefix = [0]
        self.improvements = []
        self.unresolved = self.z

    def ensure(self, n):
        if n <= self.horizon:
            return
        horizon = max(64, 1 << (n - 1).bit_length())
        fresh_steps = []
        improvements = []
        unresolved = 0
        for y in range(self.z):
            result = self.sim.result(y, None, horizon)
            if isinstance(result, Halted):
                fresh_steps.append(result.steps)
                if result.output == self.x:
                    improvements.append((result.steps, y))
            else:
                unresolved += 1
        fresh_steps.sort()
        prefix = [0]
        for s in fresh_steps:
            prefix.append(prefix[-1] + s)
        improvements.sort()
        best = []
        cur = self.z
        for s, y in improvements:
            if y < cur:
                cur = y
                best.append((s, y))
        self.halt_steps = fresh_steps
        self.halt_steps_prefix = prefix
        self.improvements = best
        self.unresolved = unresolved
        self.horizon = horizon

    def guess(self, n):
        self.ensure(n)
        value = self.z
        for s, y in self.improvements:
            if s < n:
                value = y
            else:
                break
        return value

    def cost(self, n):
        self.ensure(n)
        pos = bisect.bisect_right(self.halt_steps, n)
        still_running = len(self.halt_steps) - pos + self.unresolved
        return self.halt_steps_prefix[pos] + n * still_running


class ScanSearch:
    """One ScanCore per target value on one simulator."""

    def __init__(self, sim):
        self.sim = sim
        self.cores = {}

    def core(self, x):
        if x not in self.cores:
            self.cores[x] = ScanCore(x, self.sim)
        return self.cores[x]

    def k(self, x):
        search = self

        class Evaluator:
            def stage(self, s, t, budget):
                if budget < t:
                    return NO_OUTPUT, 0
                core = search.core(x)
                return Guess(core.guess(t)), core.cost(t)

        return StageFunction("k", Evaluator)

    def incompressible(self, n):
        search = self

        class Evaluator:
            def stage(self, s, t, budget):
                if budget < t:
                    return NO_OUTPUT, 0
                steps = found = 0
                value = None
                for x in range(t + 1):
                    core = search.core(x)
                    steps += core.cost(t)
                    if core.guess(t) == core.z:
                        if found == n:
                            value = x
                        found += 1
                if value is None:
                    return NO_OUTPUT, steps
                return Guess(value), steps

        return StageFunction("incompressible", Evaluator)


def sampled_targets():
    rng = random.Random(2013)
    xs = {2**14 - 1, 2**14, 2**16, 100000, 110000}
    while len(xs) < 20:
        xs.add(rng.randrange(301, 110001))
    return sorted(xs)


def assert_same_streams(xs, t_max, new_sim, scan):
    for x in xs:
        got = run_stages(shortest_program_property(x, new_sim), x, t_max)
        want = run_stages(scan.k(x), x, t_max)
        assert got.events == want.events, x


def test_k_streams_match_index_scan_small_x():
    assert_same_streams(range(301), 70, Simulator(), ScanSearch(Simulator()))


def test_k_streams_match_index_scan_sampled_x():
    assert_same_streams(sampled_targets(), 64, Simulator(), ScanSearch(Simulator()))


def test_guess_matches_brute_k():
    sim, oracle_sim = Simulator(), Simulator()
    t_max = 64
    for x in [*range(0, 301, 7), *sampled_targets()[::4]]:
        stream = run_stages(shortest_program_property(x, sim), x, t_max)
        assert stream.events[-1].outcome == Guess(brute_k(x, t_max - 1, oracle_sim)), x


def test_planted_streams_match_index_scan():
    for plants, x in (({3: Halted(9, 7)}, 9), ({3: Halted(2, 7)}, 2)):
        new_sim, scan_sim = CounterfactualSimulator(plants), CounterfactualSimulator(plants)
        scan = ScanSearch(scan_sim)
        for t_max in (20, 70):
            got = run_stages(shortest_program_property(x, new_sim), x, t_max)
            want = run_stages(scan.k(x), x, t_max)
            assert got.events == want.events
            got = run_stages(incompressible_property(2, new_sim), 2, t_max)
            want = run_stages(scan.incompressible(2), 2, t_max)
            assert got.events == want.events
        for budget in (6, 7, 100):
            stream = run_stages(shortest_program_property(x, new_sim), x, budget + 1)
            assert stream.events[-1].outcome == Guess(brute_k(x, budget, scan_sim))


def test_planted_literal_is_counted_once():
    # index 13 is the literal writing 2 in 2 steps; planted, it writes 40 in 9
    sim = CounterfactualSimulator({13: Halted(40, 9)})
    assert isinstance(sim.kind(13), Literal)
    scan = ScanSearch(CounterfactualSimulator({13: Halted(40, 9)}))
    got = run_stages(shortest_program_property(40, sim), 40, 20)
    want = run_stages(scan.k(40), 40, 20)
    assert got.events == want.events
    assert got.guess_values()[-1] == 13


def is_table(y):
    return isinstance(decode_program(index_to_program(y)), Table)


def test_table_indices_match_decoding_below_2_pow_17():
    found = list(Simulator().table_indices_below(2**17))
    assert found == [y for y in range(2**17) if is_table(y)]
    assert len(found) == 1728


def test_table_indices_match_decoding_around_first_two_state_tables():
    first = program_to_index("0001" + "0" * 30)
    lo, hi = first - 3000, first + 20000
    tables = table_indices()
    found = [y for y in (next(tables) for _ in range(1728 + 20000)) if lo <= y < hi]
    assert found == [y for y in range(lo, hi) if is_table(y)]
    assert found[0] == first and len(found) > 1000


def test_literal_steps_match_decode_scan():
    counts = {}
    rng = random.Random(7)
    checkpoints = {*range(0, 2**12), *(rng.randrange(2**12, 2**17) for _ in range(300))}
    for y in range(2**17):
        if y in checkpoints:
            assert literal_steps_below(y) == counts, y
        kind = decode_program(index_to_program(y))
        if isinstance(kind, Literal):
            steps = max(1, kind.payload.bit_length())
            counts[steps] = counts.get(steps, 0) + 1


class CountingSimulator(Simulator):
    """Counts result calls and fails past a limit, so a scan cannot hang."""

    def __init__(self, limit=10**6):
        super().__init__()
        self.limit = limit
        self.results = 0

    def result(self, index, input_value, budget):
        self.results += 1
        assert self.results <= self.limit, "too many runs"
        return super().result(index, input_value, budget)


def test_scan_of_a_billion_indices_runs_only_the_tables():
    x = 2**30
    z = literal_index(x)
    assert z > 2 * 10**9
    sim = CountingSimulator(limit=1728)
    stream = run_stages(shortest_program_property(x, sim), x, 8)
    assert sim.results <= 1728
    assert stream.guess_values() == [z] * 9


def test_finished_stream_frees_its_simulator():
    sim = Simulator()
    stream = run_stages(shortest_program_property(300, sim), 300, 8)
    ref = weakref.ref(sim)
    del sim
    gc.collect()
    assert ref() is None
    assert stream.guess_values()[-1] == literal_index(300)


def test_streams_on_one_simulator_share_the_search():
    sim = CountingSimulator()
    first = run_stages(shortest_program_property(20000, sim), 20000, 30)
    calls = sim.results
    assert calls > 0
    second = run_stages(shortest_program_property(20000, sim), 20000, 40)
    assert sim.results == calls
    assert second.events[:31] == first.events
