"""How the suites turn verdicts and exceptions into rows."""

import json

import pytest

from qskein import suites
from qskein.cli import main
from qskein.curves import classify, transport_curve
from qskein.library import annulus_core, torus_curve
from qskein.puncture import curve_lift, lift
from qskein.repcheck import Verdict
from qskein.shear import ShearSkein
from qskein.surface import torus_one_marked


def case_rows(cases):
    """The (name, T, flip edge, curve) rows of a case rule's pairs."""
    return [case for case, _ in cases]


def stub_verdicts(*pairs):
    """A generator-map check that returns the given (status, orders)
    verdicts, in order, for every composite."""
    def verify(comp, trials=20, seed=0):
        return {"Y%d" % i: Verdict(status, orders, trials)
                for i, (status, orders) in enumerate(pairs)}
    return verify


@pytest.mark.parametrize("pairs, status, detail", [
    # a PASS must not hide an INCONCLUSIVE generator; the detail names the
    # orders of both
    ((("INCONCLUSIVE", (7, 11, 13)), ("PASS", (5, 7, 11))), "INCONCLUSIVE",
     "mod p at orders [5, 7, 11, 13]"),
    # an INCONCLUSIVE generator must not hide a FAIL
    ((("FAIL", (5,)), ("INCONCLUSIVE", (17, 19))), "FAIL", "mod p at orders [5, 17, 19]"),
], ids=["inconclusive-over-pass", "fail-over-inconclusive"])
def test_flipback_row_reports_the_worst_generator(monkeypatch, capsys, pairs, status, detail):
    monkeypatch.setattr(suites, "verify_generator_map_identity", stub_verdicts(*pairs))
    rows = suites.suite_flipback(trials=2)
    assert len(rows) == 2 * len(suites.FLIP_LIBRARY)
    assert {(s, d) for _, s, d in rows} == {(status, detail)}
    code = main(["--json", "verify", "flipback"])
    data = json.loads(capsys.readouterr().out)
    assert {r["status"] for r in data["results"]} == {status}
    assert code == (1 if status == "FAIL" else 0)


def test_transfer_row_names_do_not_depend_on_the_outcome(monkeypatch):
    passing = suites.suite_transfer()

    def broken(alpha, T):
        raise AssertionError("forced")

    monkeypatch.setattr(suites, "psi_image_of_knot_monomial", broken)
    failing = suites.suite_transfer()
    assert [r[0] for r in failing] == [r[0] for r in passing]
    psi_rows = [r for r in failing if r[0].startswith("psi(y^k)=X^eps")]
    assert len(psi_rows) == len(suites.library_simple_curves()) + 1
    assert {(s, d) for _, s, d in psi_rows} == {("FAIL", "forced")}
    assert all(s == "PASS" for _, s, _ in passing)


def test_naturality_builds_one_bundle_per_surface(monkeypatch):
    # every bundle built during the suite counts, those the transfer
    # identity, the traces and Theta would build for themselves included
    built = []
    init = ShearSkein.__init__

    def counted(self, T):
        built.append(T)             # held, so no id is reused
        init(self, T)

    monkeypatch.setattr(ShearSkein, "__init__", counted)
    rows = suites.suite_naturality(trials=2)
    cases = case_rows(suites._naturality_cases())
    assert len(rows) == 2 * len(cases)
    assert all(s == "PASS" for _, s, _ in rows)
    # two surfaces before the flips, one flipped surface per flipped edge:
    # the 12 cases span 6 flips
    flipped = {(id(T), edge) for _, T, edge, _ in cases}
    assert (len(cases), len(flipped)) == (12, 6)
    assert len(built) == len({id(T) for T in built}) == 2 + 6


def test_every_flip_of_every_curve_is_a_case_or_general():
    # each (inner edge, curve) pair of the annulus core and the three lifted
    # torus slopes is in exactly one list, or its transport is general
    A, core = annulus_core()
    ld = lift(torus_one_marked())
    curves = [(A, core)] + [(ld.delta, curve_lift(ld, torus_curve(s)[1]))
                            for s in ("1,0", "0,1", "1,1")]

    def key(T, edge, alpha):
        return T.inner_edges, edge, alpha.steps

    natural = [key(T, e, a) for _, T, e, a in case_rows(suites._naturality_cases())]
    # the last phased case, the (1,-1) curve on the before-variant lift, is hand-built
    phased = [key(T, e, a) for _, T, e, a in case_rows(suites._phased_cases())[:-1]]
    hits = 0
    for T, alpha in curves:
        for edge in T.inner_edges:
            T2, fd = T.flip(edge)
            found = natural.count(key(T, edge, alpha)) + phased.count(key(T, edge, alpha))
            if found == 0:
                assert classify(transport_curve(alpha, T, fd, T2)) == "general", (edge, alpha)
            assert found <= 1, (edge, alpha)
            hits += found
    assert hits == len(natural) + len(phased) == 14
    assert (len(natural), len(phased)) == (12, 2)
