"""Tests of the benchmark itself, on tiny runs of each workload.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.configure_environment()

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qskein import repcheck  # noqa: E402
from qskein.curves import enumerate_states  # noqa: E402
from qskein.library import annulus_core, torus_curve  # noqa: E402
from qskein.puncture import curve_lift, lift  # noqa: E402
from qskein.qscalar import Laurent  # noqa: E402
from qskein.qtorus import TorusElement  # noqa: E402
from qskein.surface import torus_one_marked  # noqa: E402

WORKLOADS = run.WORKLOADS


def _traced_pass(name, seed=0):
    tracer = tracing.Tracer()
    with tracer.installed():
        jobs = workloads.build(name, seed, tiny=True)
        outputs = run.run_pass(jobs, tracer)[1]
    return tracer, jobs, outputs


def _failed(name):
    jobs = workloads.build(name, 0, tiny=True)
    _, problems = run.judge(jobs, run.run_pass(jobs)[1], run.load_golden(name))
    return sum(bool(p) for p in problems)


@pytest.mark.parametrize("name", WORKLOADS)
def test_outputs_identical_with_tracing_on_and_off(name):
    jobs = workloads.build(name, 0, tiny=True)
    golden = run.load_golden(name)
    plain, problems = run.judge(jobs, run.run_pass(jobs)[1], golden)
    assert not any(problems), problems
    tracer, traced_jobs, outputs = _traced_pass(name)
    traced, problems = run.judge(traced_jobs, outputs, golden, reference=plain)
    assert not any(problems), problems
    assert traced == plain
    assert tracer.spans and all(rec[2] >= rec[1] for rec in tracer.spans)


def _counts_after_judging(name):
    """Counts of a traced pass, taken after its outputs are checked: the
    checks run outside the tracer and must not add to its counts."""
    tracer, jobs, outputs = _traced_pass(name, seed=3)
    before = tracing.counts_only(tracer)
    _, problems = run.judge(jobs, outputs, run.load_golden(name))
    assert not any(problems), problems
    assert tracing.counts_only(tracer) == before
    return before


@pytest.mark.parametrize("name", WORKLOADS)
def test_counts_repeat_exactly_for_one_seed(name):
    first, second = (_counts_after_judging(name) for _ in range(2))
    assert first == second
    assert sum(first.values()) > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_golden_covers_every_input_a_seed_draws(name):
    golden = run.load_golden(name)
    every = {job.key for job in workloads.build(name, 0, every=True)}
    assert every <= set(golden)
    for seed in range(20):
        assert {job.key for job in workloads.build(name, seed)} <= every


def test_layer_metrics_cover_the_declared_list():
    tracer = _traced_pass("traces")[0]
    metrics = tracing.layer_metrics(tracer, 0.0)
    assert list(metrics) == [name for name, _, _ in tracing.PER_LAYER]
    assert metrics["curves.state_candidates"] >= metrics["curves.states_admissible"] > 0


def _small_curves():
    A, core = annulus_core()
    yield core
    ld = lift(torus_one_marked())
    for slope in workloads.TORUS_SLOPES:
        yield curve_lift(ld, torus_curve(slope)[1])
    for walk in workloads.greedy_walks(14):
        for _, _, alpha in walk:
            yield alpha


def test_transfer_matrix_count_equals_enumeration():
    sizes = set()
    for alpha in _small_curves():
        assert checks.transfer_matrix_count(alpha) == len(enumerate_states(alpha))
        sizes.add(len(alpha.steps))
    assert max(sizes) >= 12


def test_corrupted_trace_raises_fail_ratio(monkeypatch):
    honest = workloads.qtrace.trace_once_edge

    def corrupted(*args, **kw):
        shear, skein, count = honest(*args, **kw)
        k, c = sorted(shear.terms.items())[0]
        bad = TorusElement(shear.spec, {**shear.terms, k: c * Laurent.q_power(1)})
        return bad, skein, count

    assert _failed("traces") == 0
    monkeypatch.setattr(workloads.qtrace, "trace_once_edge", corrupted)
    assert _failed("traces") > 0


@pytest.mark.parametrize("name", ["certify", "flipwalk"])
def test_corrupted_verdict_raises_fail_ratio(monkeypatch, name):
    honest = repcheck.verify_identity

    def flipped(*args, **kw):
        verdict = honest(*args, **kw)
        verdict.status = "FAIL" if verdict.status == "PASS" else "PASS"
        return verdict

    monkeypatch.setattr(repcheck, "verify_identity", flipped)
    assert _failed(name) == len(workloads.build(name, 0, tiny=True))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload", "traces",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_metric_lists_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracing.PER_LAYER)
    # certify runs by hand only; BENCHMARK.json lists the workloads that fit
    # the benchmark's time budget at a steady run length
    assert [w["name"] for w in spec["workloads"]] == ["flipwalk", "traces"]
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def test_speed_probe_uses_no_program_code():
    # a change to qskein must not move the probe that scales the timings
    code = ("import sys; sys.path.insert(0, %r); import speed; p = speed.Probe(); "
            "p.sample(); p.sample(); assert p.factor() > 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'qskein'))" % str(BENCH))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    assert proc.stdout.split() == ["[]"]
