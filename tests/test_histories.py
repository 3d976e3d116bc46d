import random

import pytest

from limitlab import gallery
from limitlab.encoding import pair, unpair
from limitlab.histories import (
    StagePropertyMachine,
    decode_history,
    encode_history,
    encode_views,
    greatest_satisfying,
    history_output,
    is_first_halting_history,
    is_halting_history,
    is_mind_change_history,
    least_satisfying,
    mind_change_last_witness,
    minimal_history,
    minimal_history_below,
    pad_history,
    view_of,
)
from limitlab.machine import (
    BLANK,
    Halted,
    ONE,
    Simulator,
    StateTable,
    ZERO,
    literal_index,
    run,
    run_on_empty,
    table_index,
    trace,
)


def brute_mind_change(machine, xn, y):
    # independent oracle: the literal quantifier over all m < n and z < y
    if not is_halting_history(machine, xn, y):
        return False
    x, n = unpair(xn)
    v = history_output(y)
    for m in range(n):
        for z in range(y):
            if is_halting_history(machine, pair(x, m), z) and history_output(z) == v:
                return False
    return True


def brute_first_halting(machine, x, y):
    if not is_halting_history(machine, x, y):
        return False
    return not any(is_halting_history(machine, x, z) for z in range(y))


def random_tables(seed, count, max_states=3):
    rng = random.Random(seed)
    while count > 0:
        k = rng.randrange(1, max_states + 1)
        rows = tuple(
            tuple(
                (rng.randrange(3), rng.randrange(2), rng.randrange(k + 1))
                for _ in range(3)
            )
            for _ in range(k)
        )
        yield StateTable(k, rows)
        count -= 1


def test_round_trip_on_real_traces():
    for idx in (
        gallery.fast_identity_index(),
        gallery.identity_2_index(),
        literal_index(5),
    ):
        cfgs = list(trace(idx, 3, 12))
        code = encode_history(cfgs)
        views = decode_history(code)
        assert views == [view_of(c) for c in cfgs]
        assert encode_views(views) == code


def test_single_configuration_round_trips():
    cfgs = list(trace(0, None, 0))  # diverger, initial configuration only
    code = encode_history(cfgs)
    assert decode_history(code) == [view_of(cfgs[0])]


def test_padding_strictly_increases():
    rng = random.Random(2)
    for idx in (gallery.fast_identity_index(), literal_index(9)):
        code = encode_history(trace(idx, rng.randrange(5), 12))
        padded = pad_history(code)
        assert padded > code
        assert pad_history(padded) > padded


def test_encode_history_rejects_empty():
    with pytest.raises(ValueError):
        encode_history([])


def test_halting_history_basics():
    idx = gallery.fast_identity_index()
    y = encode_history(trace(idx, 0, 10))
    assert is_halting_history(idx, 0, y)
    assert not is_halting_history(idx, 0, y + 1)
    assert not is_halting_history(idx, 1, y)  # wrong input
    padded = pad_history(y)
    assert is_halting_history(idx, 0, padded)
    assert history_output(padded) == history_output(y)
    twice = pad_history(padded)
    assert is_halting_history(idx, 0, twice)


def test_diverger_has_no_halting_history():
    for y in range(3000):
        assert not is_halting_history(0, 0, y)


def test_history_output_examples():
    lit5 = literal_index(5)
    y = encode_history(trace(lit5, None, 10))
    assert history_output(y) == 5
    assert run_on_empty(lit5, 10).output == 5
    # a lone halted blank snapshot outputs 0
    blank_halt = encode_views([(0, 0, (BLANK,))])
    assert history_output(blank_halt) == 0
    # undecodable codes output 0
    assert history_output(2) == 0


def test_minimal_history_is_least():
    # scan validation on a machine whose whole history code is tiny
    idx = gallery.fast_identity_index()
    h = minimal_history(idx, 0, 10)  # empty-ish input 0 keeps codes small
    assert h is not None
    for z in range(h):
        assert not is_halting_history(idx, 0, z)
    assert is_halting_history(idx, 0, h)


def test_minimal_history_below_ceiling_semantics():
    idx = gallery.fast_identity_index()
    h = minimal_history(idx, 0, 10)
    assert minimal_history_below(idx, 0, h + 1) == h
    assert minimal_history_below(idx, 0, h) is None
    assert minimal_history_below(0, 0, 10**9) is None  # diverger


def test_kleene_agreement_sampled():
    sim = Simulator()
    checked = 0
    for table in random_tables(31, 4000):
        idx = table_index(table)
        results = [run(idx, x, 10, sim) for x in range(4)]
        if not all(isinstance(r, Halted) for r in results):
            continue
        checked += 1
        for x, r in enumerate(results):
            h = minimal_history(idx, x, 10)
            assert h is not None
            assert history_output(h) == r.output
            assert is_first_halting_history(idx, x, h)
            assert not is_first_halting_history(idx, x, pad_history(h))
        if checked >= 30:
            break
    assert checked >= 30


def test_first_halting_matches_brute_on_tiny_case():
    idx = gallery.fast_identity_index()
    h = minimal_history(idx, 0, 10)
    # brute scans stay feasible only near the minimal code; the padded code
    # is checked directly against the uniqueness claim
    for y in list(range(0, 300)) + [h - 1, h, h + 1]:
        assert is_first_halting_history(idx, 0, y) == brute_first_halting(idx, 0, y)
    assert not is_first_halting_history(idx, 0, pad_history(h))


def test_bounded_search_basics():
    assert least_satisfying(lambda y: y >= 3, 10) == 3
    assert least_satisfying(lambda y: False, 10) is None
    assert greatest_satisfying(lambda y: y in (2, 5), 10) == 5
    assert greatest_satisfying(lambda y: False, 10) is None


def test_mu_equals_lambda_on_first_halting():
    idx = gallery.fast_identity_index()
    h = minimal_history(idx, 0, 10)
    bound = h + 500
    pred = lambda y: is_first_halting_history(idx, 0, y)
    assert least_satisfying(pred, bound) == h
    assert greatest_satisfying(pred, bound) == h


def test_stage_machine_histories():
    machine = StagePropertyMachine(lambda x, n: 1 if n == 0 else 0)
    h0 = minimal_history(machine, pair(0, 0), 5)
    h1 = minimal_history(machine, pair(0, 1), 5)
    assert h0 is not None and h1 is not None
    assert history_output(h0) == 1
    assert history_output(h1) == 0
    assert h0 < h1  # history codes grow with the stage
    assert is_halting_history(machine, pair(0, 0), pad_history(h0))


def test_stage_machine_divergence():
    machine = StagePropertyMachine(lambda x, n: None)
    assert minimal_history(machine, pair(0, 0), 50) is None
    for y in range(2000):
        assert not is_halting_history(machine, pair(0, 0), y)


def test_mind_change_stage_zero_is_halting():
    machine = StagePropertyMachine(lambda x, n: 4)
    h = minimal_history(machine, pair(2, 0), 5)
    assert is_mind_change_history(machine, pair(2, 0), h)
    assert is_mind_change_history(machine, pair(2, 0), pad_history(h))


def test_mind_change_fresh_value_only():
    # guesses 1 then 0: at stage 1 only histories with the fresh output pass
    machine = StagePropertyMachine(lambda x, n: 1 if n == 0 else 0)
    h1 = minimal_history(machine, pair(0, 1), 5)
    assert is_mind_change_history(machine, pair(0, 1), h1)
    # a stage repeating the previous value admits no new witness
    repeat = StagePropertyMachine(lambda x, n: 1)
    r1 = minimal_history(repeat, pair(0, 1), 5)
    assert is_halting_history(repeat, pair(0, 1), r1)
    assert not is_mind_change_history(repeat, pair(0, 1), r1)


def test_mind_change_matches_brute_oracle():
    machine = StagePropertyMachine(lambda x, n: 1 if n == 0 else 0)
    h1 = minimal_history(machine, pair(0, 1), 5)
    # literal quantifier over every z < h1 agrees with the smart evaluation
    assert brute_mind_change(machine, pair(0, 1), h1)
    assert is_mind_change_history(machine, pair(0, 1), h1)
    repeat = StagePropertyMachine(lambda x, n: 1)
    r1 = minimal_history(repeat, pair(0, 1), 5)
    assert brute_mind_change(repeat, pair(0, 1), r1) == is_mind_change_history(
        repeat, pair(0, 1), r1
    )


def test_last_witness_matches_bounded_scan():
    machine = StagePropertyMachine(lambda x, n: 1 if n == 0 else 0)
    stage_max = 2
    # bound sits just above the stage-1 minimal history so the downward scan
    # only has to cross a short dead band before hitting the witness
    h1 = minimal_history(machine, pair(0, 1), 5)
    bound = h1 + 400

    def joint(y):
        return any(
            is_mind_change_history(machine, pair(0, n), y)
            for n in range(stage_max + 1)
        )

    scan = greatest_satisfying(joint, bound)
    fast = mind_change_last_witness(machine, 0, stage_max, bound)
    assert scan == fast == h1
    assert history_output(fast) == 0  # the stabilized value


def test_last_witness_recovers_stabilized_guess():
    # three mind changes, then constant
    script = {0: 9, 1: 4, 2: 6, 3: 2}
    machine = StagePropertyMachine(lambda x, n: script.get(n, 2))
    hs = [minimal_history(machine, pair(1, n), 5) for n in range(8)]
    # the bound is certified from the stream: just above the minimal history
    # of the last mind change, so no padding of an earlier fresh value fits
    # under it and the largest witness is the final value's own history
    bound = hs[3] + 1
    witness = mind_change_last_witness(machine, 1, 7, bound)
    assert witness == hs[3]
    assert history_output(witness) == 2


def test_last_witness_bound_sensitivity():
    # with a loose bound a padding of an earlier fresh value can outrank the
    # final witness; this is why bounds come from certified stream data
    script = {0: 9, 1: 4, 2: 6, 3: 2}
    machine = StagePropertyMachine(lambda x, n: script.get(n, 2))
    hs = [minimal_history(machine, pair(1, n), 5) for n in range(8)]
    loose = mind_change_last_witness(machine, 1, 7, max(hs) + 1)
    assert loose == pad_history(hs[2])
    assert history_output(loose) == 6


def test_undecodable_history_is_false_everywhere():
    idx = gallery.identity_2_index()
    for y in (2, 4, 11, 29):
        assert not is_halting_history(idx, 0, y)
