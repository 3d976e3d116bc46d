"""Run one benchmark job in a fresh interpreter and report on it.

Usage: python3 limitbench/job.py '<job spec as JSON>' <0|1 trace>

A spec is {"cli": [argv...]} for a `limitlab` command line, or
{"histories": [index, x, steps]} for the halting-history invariants run
through the library.  The job is timed from after `import limitlab` until its
output is in memory.  A fixed pure-Python loop is timed just before and just
after the job, outside its timed region, so that run.py can scale the job
time to a reference interpreter speed.  The job then prints one JSON record:
the monotonic clock reading when it was ready to make its first call into the
program, the job time, the calibration time, the process's peak RSS, the
output, and with tracing on the per-span totals.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import limitlab  # noqa: E402
from limitlab import cli, histories  # noqa: E402

# A job that needs more memory than this fails instead of starving the host.
MAX_ADDRESS_SPACE = 2 << 30


def _cli_job(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"limitlab exited with {code}")
    return buf.getvalue()


def _histories_job(index: int, x: int, steps: int) -> dict:
    """The nf-check invariants on one machine, input and trace length."""
    h = histories.minimal_history(index, x, steps)
    first = histories.is_first_halting_history(index, x, h)
    padded = histories.pad_history(h)
    padded_halting = histories.is_halting_history(index, x, padded)
    output = histories.history_output(h)
    ran = limitlab.run(index, x, steps)
    return {
        "bits": h.bit_length(),
        "padded_bits": padded.bit_length(),
        "first": first,
        "padded_halting": padded_halting,
        "output": output,
        "run_output": ran.output,
        "run_steps": ran.steps,
    }


def _calibration_s() -> float:
    """Time of a fixed pure-Python loop: how fast the interpreter runs right now.

    It allocates almost nothing, so it leaves the peak RSS to the job.
    """
    start = time.perf_counter()
    table = dict.fromkeys(range(1024), 0)
    for i in range(150000):
        table[i & 1023] += i % 7
    return time.perf_counter() - start


def _peak_rss_kb() -> int:
    """This process's peak resident set size.

    getrusage's ru_maxrss would do on a fresh process, but Linux carries the
    parent's high-water mark across fork and exec; VmHWM belongs to the
    address space the job itself built.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MAX_ADDRESS_SPACE, MAX_ADDRESS_SPACE))
    spec = json.loads(sys.argv[1])
    tracer = None
    if sys.argv[2] == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ready = time.monotonic()
    calibration_s = _calibration_s()
    start = time.perf_counter()
    if "cli" in spec:
        output = _cli_job(spec["cli"])
    else:
        output = _histories_job(*spec["histories"])
    job_s = time.perf_counter() - start
    calibration_s = (calibration_s + _calibration_s()) / 2
    record = {
        "ready": ready,
        "job_s": job_s,
        "calibration_s": calibration_s,
        "rss_kb": _peak_rss_kb(),
        "output": output if isinstance(output, str) else json.dumps(output, sort_keys=True),
    }
    if tracer is not None:
        tracer.uninstall()
        record["trace"] = tracer.summary()
    sys.stdout.write(json.dumps(record))


if __name__ == "__main__":
    main()
