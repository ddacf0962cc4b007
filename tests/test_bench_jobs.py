"""The benchmark's job lists, run inside the test suite: the reduced lists
of every workload and the full lists of flipwalk and traces.

perfbench/workloads.py calls qskein by name and with set signatures (the
bundle arguments of the trace functions and of phi_flip_from_data among
them).  Running these jobs here makes a change that breaks one of
those calls, or changes one of their exact outputs, fail the test suite,
not only a benchmark run.  Nothing under perfbench/ is written."""

import hashlib
import importlib
import json
import random
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import pytest

from qskein import qtorus
from qskein.qtorus import TorusElement
from test_qtorus import (
    assert_shared, coefficient_sides, layout, reference_product, square_builds)

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
    # per distinct coefficient
    _, _, workloads = bench
    grid, on_grid = [], TorusElement._grid

    def recorded(el, other):
        assert other is el          # the traces jobs' only multi-term products
        grid.append(on_grid(el, other))
        return grid[-1]

    def check_squares(job):
        out = job.run()
        for name, square in zip(("shear", "skein"), grid[-2:]):
            assert square is out[name + "_sq"]
            assert square == reference_product(out[name], out[name])
            assert_shared(square)

    monkeypatch.setattr(TorusElement, "_grid", recorded)
    jobs = workloads.build("traces", 0, tiny=True)
    for job in jobs:
        check_squares(job)
        grid.clear()
    held = [job.run() for job in jobs]
    assert len(grid) == 2 * len(jobs) > 20
    assert all(out["shear_sq"] is grid[2 * i] for i, out in enumerate(held))


def test_skein_square_takes_the_shear_square_coefficients(bench, monkeypatch):
    # psi changes exponents only, so the skein square psi(t) psi(t) has the
    # multiplication table of the shear square t t: while the shear square
    # is alive, the skein square runs no coefficient side, builds no
    # Laurent and holds the shear square's coefficient objects, and the
    # shear square made again holds the first one's objects
    _, _, workloads = bench
    for job in workloads.build("traces", 0, tiny=True):
        out = job.run()
        shear, skein = out["shear"], out["skein"]
        del out
        first = shear * shear
        sides = partial(coefficient_sides, monkeypatch)
        (second, runs), built = square_builds(monkeypatch, skein, sides)
        assert (runs, built) == (0, []), job.key
        assert len(second.terms) == len(first.terms)
        assert {id(c) for c in second.terms.values()} == {id(c) for c in first.terms.values()}
        assert first == reference_product(shear, shear)
        assert second == reference_product(skein, skein)
        (again, runs), built = square_builds(monkeypatch, shear, sides)
        assert (runs, built) == (0, [])
        assert all(again.terms[k] is c for k, c in first.terms.items())


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
            expected = layout(out[name]._grid(out[name]))
            for order in (sorted(items), items[::-1], shuffled):
                el = TorusElement(out[name].spec, dict(order))
                assert list(el.terms) == [k for k, _ in order]
                assert layout(el._grid(el)) == expected, (job.key, name)
                # the same square with its operands in two term orders
                assert layout(el._grid(out[name])) == expected, (job.key, name)
                orders += 1
    assert orders == 222


def test_traces_outputs_keep_their_order(bench):
    # every element of the full traces list, in order: the keys, their
    # order and each coefficient's term order of shear, skein and both
    # squares, pinned by one digest; with every output alive, the squares'
    # 16,982 monomials hold 1,513 coefficient objects: one per distinct
    # value in each square, shared by the squares of one table
    _, _, workloads = bench
    names = ("shear", "skein", "shear_sq", "skein_sq")
    digest, held = hashlib.sha256(), []
    for job in workloads.build("traces", 0):
        out = job.run()
        held.append(out)
        digest.update(json.dumps(
            [job.key] + [[[list(k), list(c.terms.items())] for k, c in out[name].terms.items()]
                         for name in names], separators=(",", ":")).encode())
    assert len(held) == 37
    assert digest.hexdigest()[:16] == "8104ad92a1c373ee"
    coeffs = [c for out in held for name in names[2:] for c in out[name].terms.values()]
    assert (len(coeffs), len({id(c) for c in coeffs})) == (16982, 1513)


def test_top_square_working_memory_stays_near_its_result(bench):
    # the top traces rung's shear trace (124 terms, 15,376 ordered term
    # pairs), squared with no live table: the coefficient side frees each
    # array once its last reader has run, so the square's traced peak stays
    # within 1.5 MB of what the square retains (about 0.9 MB above it)
    _, _, workloads = bench
    top, = [job for job in workloads.build("traces", 0) if job.top]
    shear = top.run()["shear"]          # the job's squares die with its output
    tables = len(qtorus._PRODUCTS)
    tracemalloc.start()
    try:
        square = shear * shear
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(shear.terms) == 124
    assert len(qtorus._PRODUCTS) == tables + 1      # it ran the coefficient side
    assert len(square.terms) == 1003
    assert peak - retained < 1.5 * 2 ** 20, (peak, retained)
