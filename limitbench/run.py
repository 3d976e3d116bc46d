"""limitlab benchmark: cold CLI and library jobs, checked, with a traced run.

Usage (from the root of a checkout):

    python3 limitbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Every job is one fresh interpreter, run one at a time by this process, so no
job sees a cache that an earlier job filled (`shared_simulator` and the
shortest-program core pool are process globals).  Jobs are drawn by seed from
`pool.json`, which records each job's expected output digest and its nominal
time; `--seconds` sets how many rounds of jobs a run holds, from those
nominal times, so the work done is the same for every run of a seed.

With `--trace 0` the last line of output carries the end-to-end metrics.
With `--trace 1` every job runs twice, untraced and then with span wrappers
installed, the two outputs must be byte-identical, and the last line carries
the per-layer metrics.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
POOL = HERE / "pool.json"

WORKLOADS = ("universe", "rescan", "histories", "certify")

# name -> unit; the order is the order of the output.
END_TO_END = {
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "growth_exp": "slope",
    "pass_share": "ratio",
}
PER_LAYER = {
    "encoding.unpair.calls": "count",
    "encoding.unpair.self_s": "s",
    "encoding.unpair.max_bits": "bits",
    "encoding.pair.calls": "count",
    "encoding.pair.self_s": "s",
    "machine.kind.calls": "count",
    "machine.kind.self_s": "s",
    "machine.decode.calls": "count",
    "machine.decode.self_s": "s",
    "machine.decode.table_share": "ratio",
    "machine.result.calls": "count",
    "machine.result.self_s": "s",
    "machine.result.repeat_share": "ratio",
    "machine.steps_fresh": "steps",
    "machine.steps_per_s": "1/s",
    "histories.encode.calls": "count",
    "histories.encode.self_s": "s",
    "histories.decode.calls": "count",
    "histories.decode.self_s": "s",
    "histories.is_halting.self_s": "s",
    "histories.is_first.self_s": "s",
    "histories.minimal_below.calls": "count",
    "histories.minimal_below.self_s": "s",
    "histories.max_code_bits": "bits",
    "properties.stage.calls": "count",
    "properties.stage.self_s": "s",
    "properties.results_per_stage": "count",
    "engine.run_stages.calls": "count",
    "engine.trace_lines.self_s": "s",
    "engine.stabilization.self_s": "s",
    "oracle.brute_equal_upto.calls": "count",
    "oracle.brute_equal_upto.self_s": "s",
    "cli.main.self_s": "s",
    "trace_overhead_s": "s",
}

# Time of job.py's calibration loop at the reference interpreter speed: its
# median on the 2-core machine that recorded pool.json, under CPython 3.11.
# Job and set-up times are scaled by this over the calibration time measured
# in the job, which takes out most of the drift in the speed of a shared
# machine.
REFERENCE_CALIBRATION_S = 0.026

# A job is killed once it runs this many times its nominal time, plus a
# margin for a slow start, or once the run is RUN_LIMIT_S old, so that a run
# always ends within 180 s.
JOB_LIMIT_FACTOR = 10
JOB_LIMIT_MARGIN_S = 5.0
RUN_LIMIT_S = 165.0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_pool() -> dict:
    with open(POOL, encoding="utf-8") as fh:
        return json.load(fh)


def select_jobs(pool: dict, workload: str, seed: int, seconds: float) -> list[dict]:
    """The jobs of one run: `rounds` rounds, each one family from every slot.

    A slot holds families of jobs that cost about the same; a family is one
    input at every size the slot measures.  Families are drawn without
    replacement, so no input repeats within a run.
    """
    slots = pool[workload]["slots"]
    round_s = sum(
        statistics.median(sum(job["nominal_s"] for job in fam) for fam in slot["families"])
        for slot in slots
    )
    most = min(len(slot["families"]) for slot in slots)
    rounds = max(1, min(most, round(seconds / round_s)))
    rng = random.Random(f"{workload}/{seed}")
    picks = [rng.sample(slot["families"], rounds) for slot in slots]
    jobs = []
    for r in range(rounds):
        for slot, chosen in zip(slots, picks):
            for job in chosen[r]:
                jobs.append(dict(job, cls=slot["class"]))
    return jobs


def run_job(spec: dict, trace: bool, timeout: float) -> tuple[dict | None, str]:
    """Run one job in its own interpreter; (record, "") or (None, reason)."""
    if timeout <= 0:
        return None, "the run reached its time limit"
    cmd = [sys.executable, str(HERE / "job.py"), json.dumps(spec), "1" if trace else "0"]
    spawned = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"killed after {timeout:.0f} s"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {err.strip()[-300:]}"
    try:
        record = json.loads(out.splitlines()[-1])
    except (IndexError, ValueError):
        return None, "no job record on stdout"
    speed = REFERENCE_CALIBRATION_S / record["calibration_s"]
    record["setup_s"] = (record["ready"] - spawned) * speed
    record["scaled_s"] = record["job_s"] * speed
    return record, ""


def check_job(job: dict, output: str, oracle_sim) -> str:
    """Why the output is wrong, or "" when it passes every check.

    oracle_sim is the Simulator the checks run oracles on.  The oracle's
    answers do not depend on what its memo already holds, so one simulator can
    serve every check of a run.
    """
    try:
        why = _check_meaning(job, output, oracle_sim)
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        why = f"malformed output: {exc!r}"
    if not why and digest(output) != job["digest"]:
        why = "output digest differs from the recorded one"
    return why


def _check_meaning(job: dict, output: str, oracle_sim) -> str:
    """The checks that hold for any input, independent of recorded digests."""
    spec = job["spec"]
    if "histories" in spec:
        index, x, steps = spec["histories"]
        got = json.loads(output)
        if not (got["first"] and got["padded_halting"]):
            return "minimal history is not first, or its padding is not halting"
        if got["output"] != got["run_output"] or got["run_steps"] != steps:
            return "history output disagrees with run"
        if got["bits"] != job["size"]:
            return "minimal history code has the wrong size"
    elif spec["cli"][:2] == ["run", "k"]:
        from limitlab import oracle

        x = int(spec["cli"][2])
        t_max = int(spec["cli"][spec["cli"].index("--t-max") + 1])
        final = json.loads(output.splitlines()[-2])
        if final["stage"] != str(t_max):
            return "last stage record is missing"
        if int(final["value"]) != oracle.brute_k(x, t_max - 1, oracle_sim):
            return "final guess differs from oracle.brute_k"
    return ""


def growth_exponent(points: list[tuple[str, int, float, float]]) -> float:
    """Least-squares slope of log(time) against log(size).

    points are (class, level, size, seconds).  Each (class, level) is reduced
    to its median log size and median log time; the slope is fitted with an
    intercept of its own for each class, so classes that differ only by a
    constant factor do not bend it.
    """
    cells = defaultdict(list)
    for cls, level, size, seconds in points:
        cells[cls, level].append((math.log(size), math.log(seconds)))
    by_class = defaultdict(list)
    for (cls, _), values in cells.items():
        by_class[cls].append(
            (statistics.median(v[0] for v in values), statistics.median(v[1] for v in values))
        )
    num = den = 0.0
    for pts in by_class.values():
        mx = statistics.fmean(p[0] for p in pts)
        my = statistics.fmean(p[1] for p in pts)
        num += sum((x - mx) * (y - my) for x, y in pts)
        den += sum((x - mx) ** 2 for x, _ in pts)
    if den == 0:
        raise ValueError("growth_exp needs jobs at two or more sizes")
    return num / den


def end_to_end(done: list[tuple[dict, dict]], attempted: int, failed: int) -> dict:
    records = [rec for _, rec in done]
    return {
        "wall_s": sum(rec["scaled_s"] for rec in records),
        "peak_rss_mb": max(rec["rss_kb"] for rec in records) / 1024,
        "setup_s": statistics.median(rec["setup_s"] for rec in records),
        "growth_exp": growth_exponent(
            [(job["cls"], job["level"], job["size"], rec["scaled_s"]) for job, rec in done]
        ),
        "pass_share": (attempted - failed) / attempted,
    }


def per_layer(traces: list[dict], overhead_s: float) -> dict:
    spans = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for trace in traces:
        for name, s in trace["spans"].items():
            spans[name]["calls"] += s["calls"]
            spans[name]["self_s"] += s["self_s"]

    def total(key):
        return sum(trace[key] for trace in traces)

    def share(num, den):
        return num / den if den else 0.0

    out = {}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field in ("calls", "self_s") and span in spans:
            out[name] = spans[span][field]
    result, stage, decode = spans["machine.result"], spans["properties.stage"], spans["machine.decode"]
    out.update(
        {
            "encoding.unpair.max_bits": max(t["unpair_max_bits"] for t in traces),
            "machine.decode.table_share": share(total("tables_decoded"), decode["calls"]),
            "machine.result.repeat_share": share(total("result_repeats"), result["calls"]),
            "machine.steps_fresh": total("steps_fresh"),
            "machine.steps_per_s": share(total("steps_fresh"), result["self_s"]),
            "histories.max_code_bits": max(t["code_max_bits"] for t in traces),
            "properties.results_per_stage": share(result["calls"], stage["calls"]),
            "trace_overhead_s": overhead_s,
        }
    )
    return {name: out.get(name, 0) for name in PER_LAYER}


def print_levels(done: list[tuple[dict, dict]]) -> None:
    """Per class and size level, to stderr: median size, raw and scaled job
    time and calibration time, and peak RSS."""
    cells = defaultdict(list)
    for job, rec in done:
        cells[job["cls"], job["level"]].append((job["size"], rec))
    for (cls, level), rows in sorted(cells.items()):
        def median(key):
            return statistics.median(rec[key] for _, rec in rows)

        print(
            f"{cls} level {level}: {len(rows)} jobs,"
            f" median size {statistics.median(size for size, _ in rows):g},"
            f" median {median('job_s'):.3f} s raw, {median('scaled_s'):.3f} s scaled,"
            f" calibration {median('calibration_s') * 1000:.1f} ms,"
            f" peak RSS {max(rec['rss_kb'] for _, rec in rows) / 1024:.1f} MB",
            file=sys.stderr,
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "limitlab" / "__init__.py").is_file():
        print(f"error: no limitlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from limitlab.machine import Simulator  # also leaves byte code for the jobs

    stop = time.monotonic() + RUN_LIMIT_S
    oracle_sim = Simulator()
    jobs = select_jobs(load_pool(), args.workload, args.seed, args.seconds)
    done, traced, failures = [], [], []
    for job in jobs:
        limit = JOB_LIMIT_FACTOR * job["nominal_s"] + JOB_LIMIT_MARGIN_S
        record, why = run_job(job["spec"], False, min(limit, stop - time.monotonic()))
        if record is not None and args.trace:
            tracing, why = run_job(job["spec"], True, min(2 * limit, stop - time.monotonic()))
            if tracing is not None and tracing["output"] != record["output"]:
                why = "traced output differs from untraced output"
            elif tracing is not None:
                traced.append((record, tracing))
        if record is not None and not why:
            why = check_job(job, record["output"], oracle_sim)
        if why:
            failures.append((job, why))
        else:
            done.append((job, record))
    for job, why in failures:
        print(f"FAILED {json.dumps(job['spec'])}: {why}", file=sys.stderr)
    print_levels(done)

    if args.trace:
        overhead = sum(t["scaled_s"] - rec["scaled_s"] for rec, t in traced)
        values = per_layer([t["trace"] for _, t in traced], overhead) if traced else {}
        units = PER_LAYER
    else:
        values = end_to_end(done, len(jobs), len(failures)) if done else {}
        units = END_TO_END
    result = {
        "correct": not failures,
        "attempted": len(jobs),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
