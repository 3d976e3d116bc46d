"""The compiled step kernel against the dict-tape step loop it replaced.

The oracle below is the literal step relation: a dict tape keyed by cell,
one record lookup per step through StateTable.record, and the output read
cell by cell.  The kernel (Simulator runs and trace) must agree with it on
results, step counts and every traced configuration, tape keys included.
"""

import itertools
import random
import tracemalloc

from limitlab import gallery
from limitlab.engine import run_stages
from limitlab.machine import (
    BLANK,
    LEFT,
    ONE,
    OUT_OF_BUDGET,
    RIGHT,
    ZERO,
    Configuration,
    Halted,
    Simulator,
    StateTable,
    canonical_bits,
    table_index,
    trace,
)
from limitlab.properties import error_ratio_property


def oracle_output(tape: dict) -> int:
    cells = [c for c, s in tape.items() if s != BLANK]
    if not cells:
        return 0
    bits = []
    c = min(cells)
    while tape.get(c, BLANK) != BLANK:
        bits.append("1" if tape[c] == ONE else "0")
        c += 1
    return int("".join(bits), 2)


def oracle_run(table: StateTable, x, budget: int, cfgs=None):
    """Result of the dict-tape loop at budget; appends each configuration to cfgs."""
    tape = {} if x is None else {
        i: (ONE if b == "1" else ZERO) for i, b in enumerate(canonical_bits(x))
    }
    state, head, steps = 1, 0, 0
    if cfgs is not None:
        cfgs.append(Configuration(state, head, dict(tape)))
    while state != 0 and steps < budget:
        write, move, state = table.record(state, tape.get(head, BLANK))
        tape[head] = write
        head += 1 if move == RIGHT else -1
        steps += 1
        if cfgs is not None:
            cfgs.append(Configuration(state, head, dict(tape)))
    if state == 0:
        return Halted(oracle_output(tape), steps)
    return OUT_OF_BUDGET


def random_table(rng: random.Random) -> StateTable:
    k = rng.randrange(1, 9)
    # a third of the tables only move left and rarely halt: they walk past
    # the origin and keep going, which exercises left padding
    lefty = rng.random() < 1 / 3
    rows = tuple(
        tuple(
            (
                rng.randrange(3),
                LEFT if lefty else rng.randrange(2),
                rng.randrange(1, k + 1) if lefty and rng.random() < 0.9 else rng.randrange(k + 1),
            )
            for _ in range(3)
        )
        for _ in range(k)
    )
    return StateTable(k, rows)


INPUTS = [None] + list(range(64))


def test_kernel_results_match_dict_loop():
    rng = random.Random(20261018)
    for _ in range(500):
        table = random_table(rng)
        idx = table_index(table)
        top = rng.randrange(1, 200)
        truth = {x: oracle_run(table, x, top) for x in INPUTS}
        # every (input, budget) query in random order on one simulator, so
        # smaller budgets arrive after larger ones on a memoised run
        queries = [(x, b) for x in INPUTS for b in (top, rng.randrange(top), rng.randrange(top))]
        rng.shuffle(queries)
        sim = Simulator()
        for x, budget in queries:
            want = truth[x]
            if isinstance(want, Halted) and want.steps > budget:
                want = OUT_OF_BUDGET
            assert sim.result(idx, x, budget) == want, (idx, x, budget)


def test_kernel_long_runs_match_dict_loop():
    rng = random.Random(7)
    for _ in range(20):
        table = random_table(rng)
        idx = table_index(table)
        sim = Simulator()
        for x in (None, 0, 5, 1000):
            for budget in (100, 20000, 3000, 5000):
                want = oracle_run(table, x, budget)
                assert sim.result(idx, x, budget) == want, (idx, x, budget)


def test_trace_matches_dict_loop_configurations():
    rng = random.Random(11)
    for _ in range(150):
        table = random_table(rng)
        idx = table_index(table)
        for x in (None, 0, 1, 6, 37):
            budget = rng.randrange(0, 90)
            want = []
            oracle_run(table, x, budget, want)
            got = list(trace(idx, x, budget))
            assert got == want, (idx, x, budget)  # tape dicts compare keys too


def test_trace_is_lazy():
    cfg = next(itertools.islice(trace(0, None, 10**12), 5, None))
    assert cfg == Configuration(1, 0, {})
    walker = table_index(StateTable(1, (((ONE, RIGHT, 1),) * 3,)))
    cfg = next(itertools.islice(trace(walker, None, 10**12), 5, None))
    assert cfg.head == 5 and sorted(cfg.tape) == [0, 1, 2, 3, 4]


def test_walker_tape_grows_with_visited_cells():
    for move in (RIGHT, LEFT):
        walker = table_index(StateTable(1, (((ONE, move, 1),) * 3,)))
        sim = Simulator()
        for budget in (10, 10**5, 50, 10**5 + 1):
            assert sim.result(walker, None, budget) is OUT_OF_BUDGET
        visited = 10**5 + 2  # the start cell plus one new cell per step
        assert len(sim._runs[(walker, None)].tape) <= 4 * visited + 256


def test_oscillator_tape_stays_small():
    # two cells visited for ever: padding must not follow the budget
    swing = StateTable(
        2, (((ONE, RIGHT, 2),) * 3, ((ZERO, LEFT, 1),) * 3)
    )
    idx = table_index(swing)
    sim = Simulator()
    assert sim.result(idx, None, 10**5) is OUT_OF_BUDGET
    assert len(sim._runs[(idx, None)].tape) <= 256


def test_halted_run_holds_no_tape():
    idx = gallery.identity_4_index()
    sim = Simulator()
    assert sim.result(idx, 9, 100) == Halted(9, 4)
    assert sim._runs[(idx, 9)].tape is None
    assert sim.result(idx, 9, 3) is OUT_OF_BUDGET
    assert sim.result(idx, 9, 4) == Halted(9, 4)


def test_memoised_runs_of_a_looping_machine_stay_small():
    f = error_ratio_property(
        gallery.loops_on_2_index(), gallery.identity_2_index(), sim=Simulator()
    )
    tracemalloc.start()
    try:
        run_stages(f, 0, 100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
