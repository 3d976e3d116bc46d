import random
from fractions import Fraction

import pytest

from limitlab import gallery
from limitlab.encoding import pair, unpair
from limitlab.engine import (
    BudgetSchedule,
    Guess,
    NoOutput,
    Verdict,
    az_index,
    az_sequence,
    compose_prefix_property,
    run_stages,
    stabilization,
)
from limitlab.machine import Halted, OUT_OF_BUDGET, Simulator, literal_index, run
from limitlab.oracle import Refuted, brute_equal_upto, brute_err, brute_k
from limitlab.properties import (
    PrefixForm,
    StepBound,
    bounded_equality_property,
    canonical_enumeration,
    class_equality_property,
    complexity_bound_enumeration,
    divergence_search_property,
    divergers_enumeration_property,
    error_ratio_property,
    incompressible_property,
    rational_code,
    rational_from_code,
    shortest_program_property,
    simplest_rational_in,
)


def exhaustive_simplest(lo: Fraction, hi: Fraction, max_den: int) -> Fraction:
    # independent oracle: scan denominators outright
    for den in range(1, max_den + 1):
        for num in range(0, den + 1):
            value = Fraction(num, den)
            if lo <= value <= hi:
                return value
    raise AssertionError("no fraction found; widen max_den")


class CounterfactualSimulator(Simulator):
    """Test double: pretends chosen indices halt with planted results.

    The real universe has no short program undercutting a literal at desk
    scale, so the drop-and-shift logic is exercised against this planted
    variant instead.
    """

    def __init__(self, planted):
        super().__init__()
        self.planted = planted  # index -> Halted

    def table_indices_below(self, z):
        planted = (y for y in self.planted if y < z)
        return sorted({*super().table_indices_below(z), *planted})

    def result(self, index, input_value, budget):
        fake = self.planted.get(index)
        if fake is not None and input_value is None:
            return fake if fake.steps <= budget else OUT_OF_BUDGET
        return super().result(index, input_value, budget)


def test_step_bound():
    g = StepBound(8, 8, 1)
    assert [g(0), g(1), g(4)] == [16, 24, 48]
    assert StepBound(0, 2, 2)(3) == 32


def test_rational_coding_round_trip():
    for num, den in ((0, 1), (1, 3), (7, 9)):
        code = rational_code(Fraction(num, den))
        assert rational_from_code(code) == Fraction(num, den)


def test_simplest_rational_examples():
    assert simplest_rational_in(Fraction(3, 10), Fraction(7, 20)) == Fraction(1, 3)
    assert simplest_rational_in(Fraction(0), Fraction(1, 7)) == Fraction(0)
    assert simplest_rational_in(Fraction(2, 5), Fraction(2, 5)) == Fraction(2, 5)
    assert simplest_rational_in(Fraction(0), Fraction(1)) == Fraction(0)
    assert simplest_rational_in(Fraction(1), Fraction(1)) == Fraction(1)
    assert simplest_rational_in(Fraction(2, 3), Fraction(1)) == Fraction(1)


def test_simplest_rational_matches_exhaustive_scan():
    rng = random.Random(17)
    for _ in range(150):
        a = Fraction(rng.randrange(0, 51), rng.randrange(1, 51))
        b = Fraction(rng.randrange(0, 51), rng.randrange(1, 51))
        lo, hi = sorted((min(a, 1), min(b, 1)))
        got = simplest_rational_in(lo, hi)
        assert got == exhaustive_simplest(lo, hi, 50)


def test_simplest_rational_rejects_bad_interval():
    with pytest.raises(ValueError):
        simplest_rational_in(Fraction(1, 2), Fraction(1, 3))
    with pytest.raises(ValueError):
        simplest_rational_in(Fraction(-1, 2), Fraction(1, 2))


def test_k_streams_constant_at_desk_scale():
    for x in (0, 1, 5, 37):
        stream = run_stages(shortest_program_property(x), x, 40)
        values = stream.guess_values()
        assert values == [literal_index(x)] * len(values)
        assert all(v <= literal_index(x) for v in values)


def test_k_drop_mechanism_with_planted_universe():
    # plant: index 3 writes 9 from a blank tape in 7 steps
    sim = CounterfactualSimulator({3: Halted(9, 7)})
    stream = run_stages(shortest_program_property(9, sim), 9, 20)
    values = stream.guess_values()
    z = literal_index(9)
    # the guess drops exactly when the stage exceeds the planted runtime
    assert values[:8] == [z] * 8
    assert values[8:] == [3] * len(values[8:])
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_k_budget_gate_goes_silent():
    lean = BudgetSchedule(0, 1)  # budget t < required t only at... never
    starved = BudgetSchedule(0, 0)  # budget 0 everywhere
    stream = run_stages(shortest_program_property(5), 5, 5, starved)
    assert [isinstance(e.outcome, NoOutput) for e in stream.events] == [
        False,  # stage 0 needs no steps
        True,
        True,
        True,
        True,
        True,
    ]
    ok = run_stages(shortest_program_property(5), 5, 5, lean)
    assert all(isinstance(e.outcome, Guess) for e in ok.events)


def test_incompressible_positions_shift_with_planted_drop():
    # without planting, candidates are 0,1,2,...; planting a short program
    # for 2 removes it once the stage passes the planted runtime
    sim = CounterfactualSimulator({3: Halted(2, 7)})
    stream = run_stages(incompressible_property(2, sim), 2, 20)
    values = [
        (e.stage, e.outcome.value)
        for e in stream.events
        if isinstance(e.outcome, Guess)
    ]
    by_stage = dict(values)
    assert by_stage[7] == 2  # candidate list 0,1,2 -> position 2 is 2
    assert by_stage[8] == 3  # 2 became compressible, positions shift down
    assert by_stage[20] == 3


def test_divergence_search_diverger_stabilizes_at_zero():
    stream = run_stages(divergence_search_property(0), 0, 24)
    values = stream.guess_values()
    assert values == [pair(0, 0)] * len(values)


def test_divergence_search_total_machine_never_settles():
    lit = literal_index(5)
    stream = run_stages(divergence_search_property(lit), lit, 24)
    values = stream.guess_values()
    # once the stage covers the literal's runtime the guess tracks the stage
    assert values[3:] == [pair(lit, y) for y in range(3, 25)]
    report = stabilization(stream, window=8)
    assert report.verdict is Verdict.STILL_CHANGING


def test_divergence_search_finds_planted_hole():
    idx = gallery.loops_on_2_index()
    stream = run_stages(divergence_search_property(idx), idx, 30)
    report = stabilization(stream, window=8)
    assert report.verdict is Verdict.STABILIZED
    assert report.last_value == pair(idx, 2)


def test_divergers_enumeration_first_positions():
    # machines 0,1,3,4 are divergers; 2 is the empty literal, also a diverger
    for n, expected in ((0, 0), (1, 1), (2, 2)):
        stream = run_stages(divergers_enumeration_property(n, window=6), n, 40)
        report = stabilization(stream, window=8)
        assert report.verdict is Verdict.STABILIZED
        assert report.last_value == expected


def test_divergers_enumeration_values_diverge_somewhere():
    for n in range(3):
        stream = run_stages(divergers_enumeration_property(n, window=6), n, 40)
        value = stabilization(stream, window=8).last_value
        # budget-relative replay: the named machine is stuck at its pair point
        assert run(value, 0, 5000) is OUT_OF_BUDGET


def test_bounded_equality_equal_pair():
    f = bounded_equality_property(
        gallery.identity_2_index(),
        gallery.identity_4_index(),
        StepBound(8, 8, 1),
        StepBound(8, 8, 1),
    )
    stream = run_stages(f, 0, 30)
    report = stabilization(stream)
    assert report.verdict is Verdict.STABILIZED
    assert report.last_value == 1


def test_bounded_equality_same_index():
    idx = literal_index(12)
    f = bounded_equality_property(idx, idx, StepBound(8, 8, 1), StepBound(8, 8, 1))
    assert stabilization(run_stages(f, 0, 24)).last_value == 1


def test_bounded_equality_difference_wins():
    f = bounded_equality_property(
        gallery.identity_2_index(),
        gallery.differs_at_3_index(),
        StepBound(8, 8, 1),
        StepBound(8, 8, 1),
    )
    stream = run_stages(f, 0, 30)
    values = stream.guess_values()
    assert values[:3] == [1, 1, 1]
    assert set(values[3:]) == {0}
    cert = brute_equal_upto(
        gallery.identity_2_index(), gallery.differs_at_3_index(), 30, 100
    )
    assert cert.verdict == Refuted(3)


def test_bounded_equality_exception_frontier():
    # the 4-step identity misses a 2(y+1)-step bound only at y = 0
    f = bounded_equality_property(
        gallery.identity_4_index(),
        gallery.identity_4_index(),
        StepBound(0, 2, 1),
        StepBound(0, 2, 1),
    )
    stream = run_stages(f, 0, 20)
    values = stream.guess_values()
    # stage 0: frontier guess 1; afterwards the guard falls through to the
    # verdict, which is also 1 here
    assert values == [1] * len(values)


def test_bounded_equality_trichotomy_and_no_return_to_one():
    f = bounded_equality_property(
        gallery.identity_2_index(),
        gallery.differs_at_3_index(),
        StepBound(0, 2, 1),
        StepBound(0, 2, 1),
    )
    values = run_stages(f, 0, 30).guess_values()
    seen_zero = False
    for v in values:
        assert v >= 0
        if seen_zero and v == 1:
            raise AssertionError("returned to equality after a witness")
        if v == 0:
            seen_zero = True
    assert seen_zero


def test_class_equality_starves_without_membership():
    f = class_equality_property(
        gallery.identity_2_index(),
        gallery.identity_4_index(),
        lambda n: 0,  # never emits i
        lambda n: gallery.identity_4_index(),
    )
    stream = run_stages(f, 0, 24)
    assert all(isinstance(e.outcome, NoOutput) for e in stream.events)


def test_class_equality_members_equal_and_unequal():
    i = gallery.identity_2_index()
    j = gallery.identity_4_index()
    enum_a = lambda n: (i, 0)[n % 2]
    enum_b = lambda n: (j, 5)[n % 2]
    equal = class_equality_property(i, j, enum_a, enum_b)
    assert stabilization(run_stages(equal, 0, 24)).last_value == 1
    k = gallery.differs_at_3_index()
    unequal = class_equality_property(i, k, enum_a, lambda n: k)
    assert stabilization(run_stages(unequal, 0, 24)).last_value == 0


def test_error_ratio_same_machine_guesses_zero():
    idx = gallery.identity_2_index()
    stream = run_stages(error_ratio_property(idx, idx), 0, 20)
    guesses = stream.guesses()
    assert guesses[0][0] == 1  # stage 0 cannot form a ratio
    assert {v for _, v in guesses} == {rational_code(Fraction(0))}


def test_error_ratio_multiples_of_three():
    stream = run_stages(
        error_ratio_property(
            gallery.marks_multiples_of_3_index(), gallery.identity_2_index()
        ),
        0,
        40,
    )
    decoded = [(t, rational_from_code(v)) for t, v in stream.guesses()]
    by_stage = dict(decoded)
    assert by_stage[1] == Fraction(0)
    assert by_stage[6] == Fraction(1, 2)
    assert all(by_stage[t] == Fraction(1, 3) for t in range(7, 41))
    report = stabilization(stream)
    assert report.verdict is Verdict.STABILIZED
    assert rational_from_code(report.last_value) == Fraction(1, 3)
    assert report.last_change_stage == 7


def test_error_ratio_first_stable_matches_oracle():
    i = gallery.marks_multiples_of_3_index()
    j = gallery.identity_2_index()
    # oracle: recompute each stage's guess from the exact brute ratio
    expected_guesses = {}
    for t in range(1, 41):
        ratio = brute_err(i, j, t, 1000)
        margin = Fraction(1, t)
        lo = max(Fraction(0), ratio - margin)
        hi = min(Fraction(1), ratio + margin)
        expected_guesses[t] = exhaustive_simplest(lo, hi, 100)
    first_stable = max(
        t for t in expected_guesses if expected_guesses[t] != Fraction(1, 3)
    ) + 1
    stream = run_stages(error_ratio_property(i, j), 0, 40)
    report = stabilization(stream)
    assert report.last_change_stage == first_stable


def test_error_ratio_finite_differences_vanish():
    stream = run_stages(
        error_ratio_property(
            gallery.differs_at_3_index(), gallery.identity_2_index()
        ),
        0,
        40,
    )
    report = stabilization(stream)
    assert rational_from_code(report.last_value) == Fraction(0)


def test_error_ratio_exactness_no_floats():
    stream = run_stages(
        error_ratio_property(
            gallery.marks_multiples_of_3_index(), gallery.identity_2_index()
        ),
        0,
        12,
    )
    for _, v in stream.guesses():
        value = rational_from_code(v)
        assert isinstance(value, Fraction)


def _cycle(values):
    return lambda n: values[n % len(values)]


def test_canonical_enumeration_three_functions():
    lits = [literal_index(3), literal_index(4), literal_index(5)]
    src = _cycle([lits[0], lits[0], lits[1], lits[0], lits[2], lits[1]])
    canon = canonical_enumeration(src)
    finals = []
    for n in range(3):
        report = stabilization(run_stages(canon(n), n, 30))
        assert report.verdict is Verdict.STABILIZED
        finals.append(report.last_value)
    assert finals == lits  # first-occurrence order, pairwise distinct
    for a in range(3):
        for b in range(a + 1, 3):
            assert isinstance(
                brute_equal_upto(finals[a], finals[b], 16, 100).verdict, Refuted
            )


def test_canonical_duplicates_never_fill_second_position():
    src = _cycle([literal_index(3)])
    canon = canonical_enumeration(src)
    first = stabilization(run_stages(canon(0), 0, 24))
    assert first.last_value == literal_index(3)
    second = run_stages(canon(1), 1, 24)
    assert all(isinstance(e.outcome, NoOutput) for e in second.events)


def test_canonical_same_function_twice_collapses():
    # two different tables for one function: only the first is accepted
    src = _cycle([gallery.identity_2_index(), gallery.identity_4_index()])
    canon = canonical_enumeration(src)
    assert stabilization(run_stages(canon(0), 0, 24)).last_value == gallery.identity_2_index()
    second = run_stages(canon(1), 1, 24)
    assert all(isinstance(e.outcome, NoOutput) for e in second.events)


def test_cbe_reflexive_and_fast_machine_survives():
    id4 = gallery.identity_4_index()
    fast = gallery.fast_identity_index()
    canon = canonical_enumeration(_cycle([id4]))
    cbe = complexity_bound_enumeration(canon, _cycle([id4, fast]))
    survivors_at = {}
    for n in range(2):
        stream = run_stages(cbe(n), n, 24)
        report = stabilization(stream)
        assert report.verdict is Verdict.STABILIZED
        survivors_at[n] = report.last_value
    values = set(survivors_at.values())
    assert pair(id4, id4) in values  # reflexive survivor
    assert pair(id4, fast) in values  # strictly faster equivalent stays


def test_cbe_evicts_differing_machine():
    id4 = gallery.identity_4_index()
    det4 = gallery.differs_at_4_index()
    canon = canonical_enumeration(_cycle([id4]))
    cbe = complexity_bound_enumeration(canon, _cycle([id4, det4]))
    position1 = run_stages(cbe(1), 1, 24)
    outcomes = {e.stage: e.outcome for e in position1.events}
    # the impostor agrees and is no slower on inputs 0..3, so the pair list
    # has two entries until stage 4 exposes the planted difference
    assert isinstance(outcomes[3], Guess)
    assert all(isinstance(outcomes[t], NoOutput) for t in range(4, 25))
    # the violation replays: outputs differ at input 4
    a = run(id4, 4, 100)
    b = run(det4, 4, 100)
    assert a.output != b.output


def test_property_ids_are_stable():
    from limitlab.properties import PROPERTY_IDS

    assert PROPERTY_IDS == (
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


def test_all_properties_reduce_over_constant_sequences():
    # running through the coded-prefix route equals the direct route
    schedule = BudgetSchedule()
    i2 = gallery.identity_2_index()
    i4 = gallery.identity_4_index()
    eq_pair = pair(i2, i4)
    enum_a = _cycle([i2])
    enum_b = _cycle([i4])
    src = _cycle([literal_index(3), literal_index(4)])
    cases = [
        ("k", 5, shortest_program_property),
        ("incompressible", 1, incompressible_property),
        ("partial-detect", gallery.loops_on_2_index(), divergence_search_property),
        ("partial-enum", 0, lambda n: divergers_enumeration_property(n, window=3)),
        (
            "easy-eq",
            eq_pair,
            lambda s: bounded_equality_property(
                *unpair(s), StepBound(8, 8, 1), StepBound(8, 8, 1)
            ),
        ),
        (
            "class-eq",
            eq_pair,
            lambda s: class_equality_property(*unpair(s), enum_a, enum_b),
        ),
        ("error-ratio", eq_pair, lambda s: error_ratio_property(*unpair(s))),
        ("canonical", 0, lambda n: canonical_enumeration(src)(n)),
        (
            "cbe",
            0,
            lambda n: complexity_bound_enumeration(
                canonical_enumeration(src), _cycle([literal_index(3)])
            )(n),
        ),
    ]
    for pid, s, build in cases:
        direct = run_stages(build(s), s, 9, schedule)
        composed = run_stages(
            compose_prefix_property(PrefixForm(build, schedule), az_sequence(az_index(s)), pid),
            s,
            9,
            schedule,
        )
        assert [e.outcome for e in direct.events] == [
            e.outcome for e in composed.events
        ], pid
