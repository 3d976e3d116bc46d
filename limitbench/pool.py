"""Build pool.json: the candidate jobs of every workload and their expected outputs.

Usage (from the root of a checkout): python3 limitbench/pool.py [workload ...]

Candidates are generated from a fixed pool seed.  Each is then run once as a
benchmark job; its output digest and job time are recorded, and it must pass
the same checks a benchmark run applies.  The recorded digests are what later
runs compare against, so rebuild the pool only on a commit whose outputs are
trusted.  Runs pick their jobs from the pool by their own seed.
"""

from __future__ import annotations

import json
import random
import statistics
import sys

from run import POOL, ROOT, check_job, digest, run_job

sys.path.insert(0, str(ROOT / "src"))

from limitlab import encoding, gallery, histories  # noqa: E402
from limitlab.machine import (  # noqa: E402
    Halted,
    Simulator,
    StateTable,
    decode_program,
    index_to_program,
    literal_index,
    table_index,
)

POOL_SEED = "limitbench-pool-1"

UNIVERSE_X = ((20000, 22000), (40000, 42000), (100000, 102000))
UNIVERSE_FAMILIES = 24

# Minimal history code sizes in bits, each band +-4%: the typical code of a
# 10-, 11- and 12-step run.  Runs stop at L <= 13, where one job takes about
# 3.5 s (a 20-step trace takes minutes to decode); the top band is one step
# below that so a run holds a dozen rounds instead of four.
HISTORY_BITS = (67700, 135700, 271400)
HISTORY_FAMILIES = 16
HISTORY_MAX_STEPS = 13

CERTIFY_N = 15
CERTIFY_BUDGETS = (10000, 20000, 40000)
CERTIFY_FAMILIES = 32

RESCAN_FAMILIES = 8
# The gallery's total machines.  loops_on_2 is left out: it diverges on every
# input whose binary form starts "10", and the memo keeps each of those tapes,
# so error-ratio against it at t_max 800 grows past 2 GB.
GALLERY = [
    gallery.fast_identity_index(),
    gallery.identity_2_index(),
    gallery.identity_4_index(),
    gallery.differs_at_3_index(),
    gallery.differs_at_4_index(),
    gallery.marks_multiples_of_3_index(),
]


def _ids(values) -> str:
    return ",".join(str(v) for v in values)


def _random_table(rng: random.Random) -> int:
    k = rng.randrange(2, 5)
    rows = tuple(
        tuple((rng.randrange(3), rng.randrange(2), rng.randrange(k + 1)) for _ in range(3))
        for _ in range(k)
    )
    return table_index(StateTable(k, rows))


def universe(rng: random.Random) -> list[dict]:
    slots = []
    for level, (lo, hi) in enumerate(UNIVERSE_X):
        xs = rng.sample(range(lo, hi), UNIVERSE_FAMILIES)
        families = [
            [{"spec": {"cli": ["run", "k", str(x), "--t-max", "64"]}, "level": level, "size": literal_index(x)}]
            for x in xs
        ]
        slots.append({"class": "k", "families": families})
    return slots


def _rescan_family(t: int, argv) -> list[dict]:
    return [
        {"spec": {"cli": ["run", *argv, "--t-max", str(t_max)]}, "level": level, "size": t_max}
        for level, t_max in enumerate((t, 2 * t))
    ]


def rescan(rng: random.Random) -> list[dict]:
    """Each re-scanning property at t_max T and 2T, on seeded gallery machines."""

    def two():
        return rng.sample(GALLERY, 2)

    def pair_of(i, j):
        return str(encoding.pair(i, j))

    makers = {
        "partial-enum": lambda n: _rescan_family(80, ["partial-enum", str(n)]),
        "canonical": lambda n: _rescan_family(
            80, ["canonical", str(n % 3), "--src", _ids(rng.sample(GALLERY, 5))]
        ),
        "cbe": lambda n: _rescan_family(
            40,
            ["cbe", str(n % 3), "--src", _ids(rng.sample(GALLERY, 3)),
             "--candidates", _ids(rng.sample(GALLERY, 4))],
        ),
        "error-ratio": lambda n: _rescan_family(400, ["error-ratio", pair_of(*two())]),
        "easy-eq": lambda n: _rescan_family(400, ["easy-eq", pair_of(*two())]),
        "class-eq": lambda n: _rescan_family(400, _class_eq(rng, pair_of)),
        "incompressible": lambda n: _rescan_family(160, ["incompressible", str(n)]),
    }
    slots = []
    for name, make in makers.items():
        families, seen, n = [], set(), 0
        while len(families) < RESCAN_FAMILIES:
            family = make(n)
            n += 1
            key = json.dumps(family[0]["spec"])
            if key not in seen:
                seen.add(key)
                families.append(family)
        slots.append({"class": name, "families": families})
    return slots


def _class_eq(rng, pair_of) -> list[str]:
    i, j = rng.sample(GALLERY, 2)
    class_a = rng.sample(GALLERY, 3)
    class_b = rng.sample(GALLERY, 3)
    class_a[rng.randrange(3)] = i
    class_b[rng.randrange(3)] = j
    return ["class-eq", pair_of(i, j), "--class-a", _ids(class_a), "--class-b", _ids(class_b)]


def histories_slots(rng: random.Random) -> list[dict]:
    """Random 2-4-state tables halting on x, binned by minimal history size."""
    bins = [[] for _ in HISTORY_BITS]
    seen = set()
    while min(len(b) for b in bins) < HISTORY_FAMILIES:
        index, x = _random_table(rng), rng.randrange(64)
        ran = Simulator().result(index, x, HISTORY_MAX_STEPS)
        if not isinstance(ran, Halted) or (index, x) in seen:
            continue
        bits = histories.minimal_history(index, x, ran.steps).bit_length()
        for level, target in enumerate(HISTORY_BITS):
            if abs(bits - target) <= 0.04 * target and len(bins[level]) < HISTORY_FAMILIES:
                seen.add((index, x))
                bins[level].append(
                    [{"spec": {"histories": [index, x, ran.steps]}, "level": level, "size": bits}]
                )
    return [{"class": "histories", "families": b} for b in bins]


def _walks_away(index: int, budget: int = 2000) -> bool:
    """Still running at a small budget on every input, one new cell per step.

    Steps the table here because the Simulator does not expose tape sizes.
    """
    table = decode_program(index_to_program(index)).states
    for z in range(CERTIFY_N + 1):
        tape = {i: 1 + int(b) for i, b in enumerate(format(z, "b"))}
        state, head = 1, 0
        for _ in range(budget):
            write, move, state = table.record(state, tape.get(head, 0))
            tape[head] = write
            head += 1 if move else -1
            if state == 0:
                return False
        if len(tape) < 0.99 * budget:
            return False
    return True


def certify(rng: random.Random) -> list[dict]:
    """Pairs of tables that never halt at the budgets: every step is fresh."""
    walkers = []
    while len(walkers) < 2 * CERTIFY_FAMILIES:
        index = _random_table(rng)
        if index not in walkers and _walks_away(index):
            walkers.append(index)
    families = []
    for i, j in zip(walkers[::2], walkers[1::2]):
        families.append(
            [
                {
                    "spec": {"cli": ["oracle", "equal", str(i), str(j), "--n", str(CERTIFY_N),
                                     "--budget", str(b)]},
                    "level": level,
                    "size": b,
                }
                for level, b in enumerate(CERTIFY_BUDGETS)
            ]
        )
    return [{"class": "equal", "families": families}]


def record(slots: list[dict]) -> None:
    """Run every job once; keep its digest and time, or stop on a failed check."""
    oracle_sim = Simulator()
    for slot in slots:
        rss_kb = 0
        for family in slot["families"]:
            for job in family:
                rec, why = run_job(job["spec"], False, timeout=600)
                if rec is None:
                    raise SystemExit(f"{job['spec']}: {why}")
                job["digest"] = digest(rec["output"])
                job["nominal_s"] = round(rec["job_s"], 4)
                rss_kb = max(rss_kb, rec["rss_kb"])
                why = check_job(job, rec["output"], oracle_sim)
                if why:
                    raise SystemExit(f"{job['spec']}: {why}")
        times = [sum(j["nominal_s"] for j in fam) for fam in slot["families"]]
        print(
            f"{slot['class']}: {len(times)} families,"
            f" median {statistics.median(times):.3f} s, range {min(times):.3f}-{max(times):.3f} s,"
            f" max RSS {rss_kb / 1024:.0f} MB",
            flush=True,
        )


BUILDERS = {
    "universe": universe,
    "rescan": rescan,
    "histories": histories_slots,
    "certify": certify,
}


def main() -> None:
    """Rebuild the workloads named on the command line, or all of them."""
    pool = {}
    if POOL.exists():
        with open(POOL, encoding="utf-8") as fh:
            pool = json.load(fh)
    for name in sys.argv[1:] or list(BUILDERS):
        print(name, flush=True)
        slots = BUILDERS[name](random.Random(f"{POOL_SEED}/{name}"))
        record(slots)
        pool[name] = {"slots": slots}
    with open(POOL, "w", encoding="utf-8") as fh:
        json.dump({name: pool[name] for name in BUILDERS}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
