"""The benchmark's job lists, run inside the test suite: the reduced lists
of every workload and the full lists of flipwalk and traces.

perfbench/workloads.py calls qskein by name and with set signatures (the
bundle arguments of the trace functions and of phi_flip_from_data among
them).  Running these jobs here makes a change that breaks one of
those calls, or changes one of their exact outputs, fail the test suite,
not only a benchmark run.  Nothing under perfbench/ is written."""

import importlib
import random
import sys
from pathlib import Path

import pytest

from qskein.qtorus import TorusElement
from test_qtorus import assert_shared, reference_product, square_builds

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    """perfbench's run, checks and workloads modules, imported from the
    checkout and dropped from sys.modules afterwards."""
    monkeypatch.syspath_prepend(str(BENCH))
    names = ("run", "checks", "workloads")
    for name in names:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield tuple(importlib.import_module(name) for name in names)
    for name in names:
        sys.modules.pop(name, None)


@pytest.mark.parametrize("name", ["certify", "flipwalk", "traces"])
def test_tiny_jobs_pass_their_checks_and_golden_digests(bench, name):
    run, checks, workloads = bench
    golden = run.load_golden(name)
    jobs = workloads.build(name, 0, tiny=True)
    assert jobs
    for job in jobs:
        out = job.run()
        assert job.check(out) == [], job.key
        assert checks.digest(job.digest(out)) == golden[job.key], job.key


@pytest.mark.parametrize("name", ["flipwalk", "traces"])
def test_full_jobs_pass_their_checks_and_golden_digests(bench, name):
    # the full-size lists add the pentagon, both two-flip walks, the polygon4
    # skein flip-back and the traces rungs above 12 crossings; certify's
    # full list (about 10 s) is left to the benchmark
    run, checks, workloads = bench
    golden = run.load_golden(name)
    jobs = workloads.build(name, 0)
    assert len(jobs) > len(workloads.build(name, 0, tiny=True))
    for job in jobs:
        out = job.run()
        assert job.check(out) == [], job.key
        assert checks.digest(job.digest(out)) == golden[job.key], job.key


def test_trace_squares_share_equal_coefficients(bench, monkeypatch):
    # every greedy-rung trace of the reduced traces list is squared on the
    # grid; each square equals the per-pair reference and holds one object
    # per distinct coefficient, and, with no earlier job's square alive, one
    # int object per distinct exponent; with every square alive, the
    # squares hold one object per distinct coefficient between them
    _, _, workloads = bench
    grid, square_on_grid = [], TorusElement._square

    def recorded(el):
        grid.append(square_on_grid(el))
        return grid[-1]

    def check_squares(job):
        out = job.run()
        for name, square in zip(("shear", "skein"), grid[-2:]):
            assert square is out[name + "_sq"]
            assert square == reference_product(out[name], out[name])
            assert_shared(square)
            exps = [n for c in {id(c): c for c in square.terms.values()}.values()
                    for n in c.terms]
            assert len({id(n) for n in exps}) == len(set(exps))

    monkeypatch.setattr(TorusElement, "_square", recorded)
    jobs = workloads.build("traces", 0, tiny=True)
    for job in jobs:
        check_squares(job)
        grid.clear()
    held = [job.run() for job in jobs]
    assert len(grid) == 2 * len(jobs) > 20
    coeffs = [c for square in grid for c in square.terms.values()]
    assert len({id(c) for c in coeffs}) == len(set(coeffs)) < len(coeffs)
    assert all(out["shear_sq"] is grid[2 * i] for i, out in enumerate(held))


def test_skein_square_takes_the_shear_square_coefficients(bench, monkeypatch):
    # psi changes exponents only, so the skein square psi(t) psi(t) has the
    # coefficients of the shear square t t: while the shear square is
    # alive, the skein square takes each of them and builds no Laurent, and
    # the shear square made again holds the first one's objects
    _, _, workloads = bench
    for job in workloads.build("traces", 0, tiny=True):
        out = job.run()
        shear, skein = out["shear"], out["skein"]
        del out
        first = shear * shear
        second, built = square_builds(monkeypatch, skein)
        assert built == [], job.key
        assert {id(c) for c in second.terms.values()} <= {id(c) for c in first.terms.values()}
        assert first == reference_product(shear, shear)
        assert second == reference_product(skein, skein)
        again, built = square_builds(monkeypatch, shear)
        assert built == []
        assert all(again.terms[k] is c for k, c in first.terms.items())


def layout(el):
    """Keys in order, each coefficient's terms in order, and the number of
    coefficient objects."""
    return ([(k, list(c.terms.items())) for k, c in el.terms.items()],
            len({id(c) for c in el.terms.values()}))


def test_trace_squares_do_not_depend_on_term_order(bench):
    # each traces rung's shear and skein trace, squared with its terms in
    # the original, sorted, reversed and shuffled orders: every order gives
    # the same keys in the same order, the same term order in each
    # coefficient and the same sharing of coefficient objects
    _, _, workloads = bench
    rng = random.Random(0)
    orders = 0
    for job in workloads.build("traces", 0):
        out = job.run()
        for name in ("shear", "skein"):
            items = list(out[name].terms.items())
            shuffled = rng.sample(items, len(items))
            expected = layout(out[name]._square())
            for order in (sorted(items), items[::-1], shuffled):
                el = TorusElement(out[name].spec, dict(order))
                assert list(el.terms) == [k for k, _ in order]
                assert layout(el._square()) == expected, (job.key, name)
                orders += 1
    assert orders == 222
