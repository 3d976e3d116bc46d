"""limitlab: a desk-scale laboratory for limit computability.

The pieces, bottom up:

  encoding    diagonal pairing, tuple codes, prefix codes
  machine     the Goedel-numbered machine universe and its simulator
  gallery     hand-built state tables with pinned behaviours
  histories   computation-history codes, halting and mind-change predicates
  engine      guess streams, budgets, stabilization, constant sequences
  properties  the catalog of limit-computable properties
  oracle      brute-force, budget-relative certification
  cli         batch front end (run / oracle / inspect / encode / decode / nf-check)
"""

from .encoding import (
    decode_prefix,
    encode_prefix,
    pair,
    tuple_code,
    tuple_decode,
    unpair,
)
from .machine import (
    BLANK,
    Configuration,
    Diverger,
    Halted,
    LEFT,
    Literal,
    ONE,
    OUT_OF_BUDGET,
    OutOfBudget,
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
    run,
    run_on_empty,
    table_index,
    trace,
)
from .histories import (
    StagePropertyMachine,
    decode_history,
    encode_history,
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
)
from .engine import (
    BudgetSchedule,
    GuessStream,
    Guess,
    NO_OUTPUT,
    NoOutput,
    SequenceFamily,
    StabilizationReport,
    StageEvent,
    StageFunction,
    Verdict,
    az_index,
    az_inverse,
    az_sequence,
    compose_prefix_property,
    pure_stage_function,
    run_stages,
    stabilization,
    trace_lines,
)
from .properties import (
    PROPERTY_IDS,
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
from .oracle import (
    Certificate,
    Confirmed,
    Refuted,
    brute_equal_upto,
    brute_err,
    brute_incompressible,
    brute_k,
)

__version__ = "0.1.0"
