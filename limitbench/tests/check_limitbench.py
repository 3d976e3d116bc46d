"""Tests of the benchmark itself.

Run from the root of a checkout:

    python3 -m pytest limitbench/tests/check_limitbench.py

The file name keeps these tests out of the repository's default test run:
one of them runs a round of every workload, about half a minute of jobs.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

import limitlab  # noqa: E402
from limitlab import cli, gallery, histories  # noqa: E402

POOL = run.load_pool()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generation_is_deterministic_per_seed(workload):
    first = run.select_jobs(POOL, workload, 7, 20)
    assert first == run.select_jobs(POOL, workload, 7, 20)
    assert first != run.select_jobs(POOL, workload, 8, 20)
    specs = [json.dumps(job["spec"]) for job in first]
    assert len(set(specs)) == len(specs), "an input repeats within a run"
    assert len({job["level"] for job in first}) >= 2


def _limitlab_bindings() -> dict:
    modules = [m for n, m in sys.modules.items() if n == "limitlab" or n.startswith("limitlab.")]
    owners = modules + [
        v for m in modules for v in vars(m).values() if isinstance(v, type)
    ]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def _small_jobs():
    i, j = gallery.identity_2_index(), gallery.differs_at_4_index()
    return [
        ["run", "k", "300", "--t-max", "20"],
        ["run", "partial-enum", "1", "--t-max", "20"],
        ["run", "error-ratio", str(limitlab.pair(i, j)), "--t-max", "20"],
        ["oracle", "equal", str(i), str(j), "--n", "6", "--budget", "50"],
    ]


def _cli(argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def _history_job(index, x, steps):
    h = histories.minimal_history(index, x, steps)
    return h, histories.is_first_halting_history(index, x, h), histories.pad_history(h)


def test_tracing_keeps_outputs_and_is_removed_afterwards():
    before = _limitlab_bindings()
    index, x, steps = POOL["histories"]["slots"][0]["families"][0][0]["spec"]["histories"]
    plain = [_cli(argv) for argv in _small_jobs()] + [_history_job(index, x, steps)]
    tracer = Tracer()
    tracer.install()
    try:
        assert histories.unpair is not before[id(histories), "unpair"]
        traced = [_cli(argv) for argv in _small_jobs()] + [_history_job(index, x, steps)]
    finally:
        tracer.uninstall()
    assert traced == plain
    after = _limitlab_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    spans = tracer.summary()["spans"]
    for name in ("cli.main", "machine.result", "properties.stage", "encoding.unpair"):
        assert spans[name]["calls"] > 0


def test_traced_job_process_gives_identical_output():
    for argv in _small_jobs()[:2]:
        plain, why = run.run_job({"cli": argv}, False, 60)
        traced, why_traced = run.run_job({"cli": argv}, True, 60)
        assert not why and not why_traced
        assert traced["output"] == plain["output"]
        assert traced["trace"]["spans"]["cli.main"]["calls"] == 1


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_job_of_a_run_passes_its_checks(workload):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1"])
    result = json.loads(buf.getvalue().splitlines()[-1])
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_growth_fit_recovers_a_known_slope():
    points = []
    for cls, scale in (("a", 0.01), ("b", 3.0)):
        for level, size in enumerate((100, 200, 400, 800)):
            t = scale * size**2.7
            points += [(cls, level, size, t), (cls, level, size, t), (cls, level, size, 50 * t)]
    assert run.growth_exponent(points) == pytest.approx(2.7)
    with pytest.raises(ValueError):
        run.growth_exponent([("a", 0, 10, 1.0), ("a", 0, 10, 2.0)])


def test_manifest_matches_the_metrics_the_runner_prints():
    manifest = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == run.PER_LAYER


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
