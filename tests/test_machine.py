import itertools
import random

import pytest

from limitlab import gallery
from limitlab.machine import (
    BLANK,
    Diverger,
    Halted,
    LEFT,
    Literal,
    ONE,
    OUT_OF_BUDGET,
    RIGHT,
    Simulator,
    StateTable,
    Table,
    ZERO,
    decode_program,
    encode_table,
    index_to_program,
    literal_index,
    program_to_index,
    read_output,
    run,
    run_on_empty,
    table_index,
    trace,
)


def strings_in_length_lex(count: int) -> list[str]:
    # independent oracle: enumerate binary strings by (length, value)
    out = [""]
    length = 1
    while len(out) < count:
        for v in range(2**length):
            out.append(format(v, f"0{length}b"))
        length += 1
    return out[:count]


def test_index_to_program_matches_enumeration():
    expected = strings_in_length_lex(1024)
    assert [index_to_program(i) for i in range(1024)] == expected


def test_index_examples():
    assert index_to_program(0) == ""
    assert index_to_program(5) == "10"
    assert index_to_program(13) == "110"
    assert program_to_index("") == 0
    assert program_to_index("10") == 5


def test_index_round_trip():
    for i in range(1 << 14):
        assert program_to_index(index_to_program(i)) == i


def test_decode_literal():
    assert decode_program("10") == Literal(0)
    assert decode_program("111") == Literal(3)
    assert decode_program("1") == Diverger()
    assert decode_program("") == Diverger()
    assert decode_program("100") == Literal(0)


def test_decode_malformed_tables_diverge():
    assert decode_program("0") == Diverger()
    assert decode_program("0000") == Diverger()  # k=1 but no records
    # k=1 table needs exactly 16 bits; one short and one long both fail
    sixteen = encode_table(gallery.FAST_IDENTITY)
    assert len(sixteen) == 16
    assert decode_program(sixteen[:-1]) == Diverger()
    assert decode_program(sixteen + "0") == Diverger()
    # write field 11 is invalid
    bad_write = sixteen[:4] + "11" + sixteen[6:]
    assert decode_program(bad_write) == Diverger()


def test_encode_decode_table_round_trip():
    for table in (
        gallery.FAST_IDENTITY,
        gallery.IDENTITY_2_STEPS,
        gallery.IDENTITY_4_STEPS,
        gallery.DIFFERS_AT_3,
        gallery.DIFFERS_AT_4,
        gallery.HALTS_ON_0_1_LOOPS_ON_2,
        gallery.MARKS_MULTIPLES_OF_3,
    ):
        decoded = decode_program(encode_table(table))
        assert decoded == Table(table)
        assert index_to_program(table_index(table)) == encode_table(table)


def test_random_table_encode_decode_round_trip():
    rng = random.Random(3)
    for _ in range(200):
        k = rng.randrange(1, 9)
        rows = tuple(
            tuple(
                (rng.randrange(3), rng.randrange(2), rng.randrange(k + 1))
                for _ in range(3)
            )
            for _ in range(k)
        )
        table = StateTable(k, rows)
        assert decode_program(encode_table(table)) == Table(table)


def test_literal_index_examples():
    assert literal_index(0) == 5
    assert literal_index(1) == 6
    assert literal_index(2) == 13


def test_literal_upper_bound():
    # the literal machine writes x in exactly |bits(x)| steps
    for x in range(1 << 16):
        bits = x.bit_length() or 1
        assert run_on_empty(literal_index(x), bits) == Halted(x, bits)


def test_run_examples():
    assert run(literal_index(7), 99, 100) == Halted(7, 3)
    assert run(program_to_index(""), 0, 10**6) is OUT_OF_BUDGET
    # one state, writes 1 over the input digit, halts
    writer = StateTable(
        1,
        (((ONE, RIGHT, 0), (ONE, RIGHT, 0), (ONE, RIGHT, 0)),),
    )
    assert run(table_index(writer), 0, 10) == Halted(1, 1)


def test_run_on_empty_matches_run_for_literals():
    for x in (0, 1, 5, 77):
        idx = literal_index(x)
        for inp in (0, 3, 9):
            assert run(idx, inp, 50) == run_on_empty(idx, 50)


def test_run_budget_boundary():
    idx = literal_index(5)
    assert run_on_empty(idx, 3) == Halted(5, 3)
    assert run_on_empty(idx, 2) is OUT_OF_BUDGET


def test_budget_monotonicity_random_tables():
    rng = random.Random(5)
    for _ in range(150):
        k = rng.randrange(1, 4)
        rows = tuple(
            tuple(
                (rng.randrange(3), rng.randrange(2), rng.randrange(k + 1))
                for _ in range(3)
            )
            for _ in range(k)
        )
        idx = table_index(StateTable(k, rows))
        x = rng.randrange(8)
        small = run(idx, x, 20, Simulator())
        if isinstance(small, Halted):
            for budget in (20, 21, 50, 400):
                assert run(idx, x, budget, Simulator()) == small


def test_simulator_cache_transparent():
    # interleaved budgets against one simulator equal fresh runs
    shared = Simulator()
    idx = gallery.identity_4_index()
    queries = [(9, 50), (9, 2), (9, 4), (3, 1), (3, 100), (9, 3)]
    got = [shared.result(idx, x, b) for x, b in queries]
    fresh = [Simulator().result(idx, x, b) for x, b in queries]
    assert got == fresh


def test_gallery_behaviours():
    for x in range(40):
        assert run(gallery.fast_identity_index(), x, 10) == Halted(x, 1)
        assert run(gallery.identity_2_index(), x, 10) == Halted(x, 2)
        assert run(gallery.identity_4_index(), x, 10) == Halted(x, 4)
    for x in range(64):
        expected = {3: 7}.get(x, x)
        assert run(gallery.differs_at_3_index(), x, 10).output == expected
        expected = {4: 9}.get(x, x)
        assert run(gallery.differs_at_4_index(), x, 10).output == expected
        mul3 = run(gallery.marks_multiples_of_3_index(), x, 30).output
        assert (mul3 != x) == (x % 3 == 0)
    loops = gallery.loops_on_2_index()
    assert run(loops, 0, 1000).output == 0
    assert run(loops, 1, 1000).output == 1
    assert run(loops, 2, 5000) is OUT_OF_BUDGET


def test_trace_shapes():
    halt_now = StateTable(
        1,
        (((BLANK, LEFT, 0), (ZERO, LEFT, 0), (ONE, LEFT, 0)),),
    )
    cfgs = list(trace(table_index(halt_now), 0, 10))
    assert len(cfgs) == 2
    assert cfgs[0].state == 1 and cfgs[-1].state == 0
    diverger_cfgs = list(trace(0, None, 25))
    assert len(diverger_cfgs) == 26
    assert all(c.state != 0 for c in diverger_cfgs)


def test_trace_halt_state_iff_halted():
    rng = random.Random(9)
    for _ in range(100):
        k = rng.randrange(1, 4)
        rows = tuple(
            tuple(
                (rng.randrange(3), rng.randrange(2), rng.randrange(k + 1))
                for _ in range(3)
            )
            for _ in range(k)
        )
        idx = table_index(StateTable(k, rows))
        x = rng.randrange(6)
        budget = 30
        cfgs = list(trace(idx, x, budget))
        result = run(idx, x, budget, Simulator())
        assert (cfgs[-1].state == 0) == isinstance(result, Halted)
        if isinstance(result, Halted):
            # step exactness: one applied transition per configuration
            assert result.steps == len(cfgs) - 1


def test_literal_trace_writes_digits():
    cfgs = list(trace(literal_index(5), None, 10))
    assert len(cfgs) == 4
    assert cfgs[-1].state == 0
    final = cfgs[-1].tape
    assert [final[c] for c in sorted(final)] == [ONE, ZERO, ONE]


def test_read_output_convention():
    assert read_output(()) == 0
    assert read_output((BLANK, BLANK)) == 0
    assert read_output((ONE, ZERO, ONE)) == 5
    # embedded blank truncates the numeral
    assert read_output((ONE, BLANK, ONE)) == 1
    assert read_output((BLANK, ONE, ONE)) == 3


def test_determinism():
    idx = gallery.marks_multiples_of_3_index()
    a = [run(idx, x, 40, Simulator()) for x in range(30)]
    b = [run(idx, x, 40, Simulator()) for x in range(30)]
    assert a == b
    assert list(trace(idx, 9, 40)) == list(trace(idx, 9, 40))
