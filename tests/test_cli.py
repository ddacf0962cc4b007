import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qskein import suites
from qskein.cli import main
from qskein.library import annulus_core, torus_curve


@pytest.fixture
def annulus_files(tmp_path):
    A, core = annulus_core()
    surf = tmp_path / "annulus.json"
    curve = tmp_path / "core.json"
    surf.write_text(json.dumps(A.to_json()))
    curve.write_text(json.dumps(core.to_json()))
    return str(surf), str(curve)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_surf_matrices(capsys):
    code, out, _ = run(capsys, "surf", "matrices", "builtin:polygon5")
    assert code == 0
    assert "face matrix Q (7 x 7)" in out
    assert "duality: PH^T = -4 id: True" in out
    assert "PASS" in out


def test_surf_matrices_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "--json", "surf", "matrices", "builtin:polygon4")
    code2, out2, _ = run(capsys, "--json", "surf", "matrices", "builtin:polygon4")
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["inner_edges"] == ["e0_2"]


def test_trace_command(capsys, annulus_files):
    surf, curve = annulus_files
    code, out, _ = run(capsys, "trace", surf, curve, "--side", "both")
    assert code == 0
    assert "3 admissible states" in out
    assert "skein side" in out and "shear side" in out
    code, out, _ = run(capsys, "--json", "trace", surf, curve, "--side", "shear")
    data = json.loads(out)
    assert data["states"] == 3
    assert len(data["shear"]["terms"]) == 3


def test_curve_commands(capsys, annulus_files):
    surf, curve = annulus_files
    code, out, _ = run(capsys, "curve", "classify", surf, curve)
    assert code == 0 and "simple" in out
    code, out, _ = run(capsys, "curve", "states", surf, curve)
    assert code == 0 and "3 admissible states" in out


def test_shear_psi(capsys, annulus_files, tmp_path):
    surf, _ = annulus_files
    elem = tmp_path / "elem.json"
    elem.write_text(json.dumps(
        {"terms": [{"exp": {"d1": 1, "d2": 1}, "coeff": {"0": 1}}]}
    ))
    code, out, _ = run(capsys, "shear", "psi", surf, str(elem))
    assert code == 0
    assert "x[d1]^-2 x[d2]^2" in out


def test_shear_psi_coefficient_defaults_to_one(capsys, annulus_files, tmp_path):
    surf, _ = annulus_files
    outputs = []
    for term in ({"exp": {"d1": 1, "d2": 1}, "coeff": {"0": 1}},
                 {"exp": {"d1": 1, "d2": 1}}):
        elem = tmp_path / "elem.json"
        elem.write_text(json.dumps({"terms": [term]}))
        code, out, err = run(capsys, "shear", "psi", surf, str(elem))
        assert code == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1]
    # a missing coefficient is not an unknown label, and a bad label is named
    elem.write_text(json.dumps({"terms": [{"exp": {"zz": 1}}]}))
    code, _, err = run(capsys, "shear", "psi", surf, str(elem))
    assert code == 2 and "unknown inner edge 'zz'" in err


def test_flipseq_verify(capsys, annulus_files):
    surf, _ = annulus_files
    code, out, _ = run(
        capsys, "flipseq", surf, "d1", "t", "--labels", "t,d1",
        "--verify", "--trials", "2",
    )
    assert code == 0
    assert "returns to start: True" in out
    assert "PASS" in out


def test_puncture_commands(capsys, tmp_path):
    lam, c10 = torus_curve("1,0")
    surf = tmp_path / "torus.json"
    curve = tmp_path / "c10.json"
    surf.write_text(json.dumps(lam.to_json()))
    curve.write_text(json.dumps(c10.to_json()))
    code, out, _ = run(capsys, "puncture", "lift", str(surf))
    assert code == 0 and "boundary loops" in out
    code, out, _ = run(capsys, "puncture", "trace", str(surf), str(curve))
    assert code == 0 and "cross-checked: True" in out


def test_verify_suite(capsys):
    code, out, _ = run(capsys, "verify", "duality")
    assert code == 0
    assert out.count("PASS") >= 9
    assert "suite duality: 9/9 passed" in out


def test_verify_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setitem(
        suites.SUITES, "duality", lambda: [("forced", "FAIL", "")]
    )
    code, out, _ = run(capsys, "verify", "duality")
    assert code == 1


def test_internal_error_exit_code(capsys, monkeypatch):
    # a ValueError raised inside the program is not an input error
    def broken():
        raise ValueError("not caused by the input")

    monkeypatch.setitem(suites.SUITES, "duality", broken)
    code, out, err = run(capsys, "verify", "duality")
    assert code == 3
    assert "input error" not in err
    assert "Traceback" in err
    assert err.splitlines()[-1] == "internal error: ValueError: not caused by the input"


def test_verify_passes_trials_and_seed(capsys, monkeypatch):
    seen = {}

    def phased(trials=6, seed=0):
        seen["phased"] = {"trials": trials, "seed": seed}
        return [("recorded", "PASS", "")]

    def balanced(samples=1000, seed=7):
        seen["balanced"] = {"samples": samples, "seed": seed}
        return [("recorded", "PASS", "")]

    monkeypatch.setitem(suites.SUITES, "phased", phased)
    monkeypatch.setitem(suites.SUITES, "balanced", balanced)
    code, out, _ = run(capsys, "--json", "verify", "phased", "--trials", "3", "--seed", "5")
    data = json.loads(out)
    assert code == 0 and data["trials"] == 3 and data["seed"] == 5
    # balanced takes samples, not trials: the report names the seed only
    code, out, _ = run(capsys, "--json", "verify", "balanced", "--trials", "3", "--seed", "5")
    data = json.loads(out)
    assert code == 0 and data["seed"] == 5 and "trials" not in data
    code, out, _ = run(capsys, "verify", "balanced", "--trials", "3", "--seed", "5")
    assert code == 0 and out.splitlines()[-1] == "suite balanced: 1/1 passed (seed=5)"
    assert seen == {"phased": {"trials": 3, "seed": 5},
                    "balanced": {"samples": 1000, "seed": 5}}


def test_verify_reports_only_what_the_suite_used(capsys):
    # duality takes neither trials nor seed, so its report names neither
    code, out, _ = run(capsys, "--json", "verify", "duality", "--trials", "3", "--seed", "5")
    data = json.loads(out)
    assert code == 0 and data["passed"] == data["total"] > 0
    assert "trials" not in data and "seed" not in data
    code, out, _ = run(capsys, "verify", "duality", "--trials", "3", "--seed", "5")
    summary = out.splitlines()[-1]
    assert code == 0 and summary.startswith("suite duality: ")
    assert summary.endswith(" passed") and "seed" not in summary and "trials" not in summary


def test_verify_output_deterministic(capsys):
    code1, out1, _ = run(capsys, "--json", "verify", "pentagon", "--trials", "2")
    code2, out2, _ = run(capsys, "--json", "verify", "pentagon", "--trials", "2")
    assert code1 == code2 == 0 and out1 == out2
    data = json.loads(out1)
    assert data["seed"] == 0 and data["trials"] == 2


def test_verify_seeded_output_is_byte_identical(capsys):
    code1, out1, _ = run(capsys, "--json", "verify", "pentagon", "--seed", "3")
    code2, out2, _ = run(capsys, "--json", "verify", "pentagon", "--seed", "3")
    assert code1 == code2 == 0 and out1 == out2
    data = json.loads(out1)
    assert data["seed"] == 3 and data["trials"] == 20


def test_input_errors(capsys, tmp_path, annulus_files):
    surf, curve = annulus_files
    code, _, err = run(capsys, "surf", "matrices", str(tmp_path / "no.json"))
    assert code == 2 and "cannot read" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "surf", "matrices", str(bad))
    assert code == 2 and "invalid JSON" in err
    schema_bad = tmp_path / "schema_bad.json"
    schema_bad.write_text(json.dumps({"triangles": [{"sides": ["a", "b"]}]}))
    code, _, err = run(capsys, "surf", "matrices", str(schema_bad))
    assert code == 2 and "schema violation" in err
    code, _, err = run(capsys, "flipseq", surf, "b1")
    assert code == 2 and "boundary" in err
    code, _, err = run(capsys, "surf", "matrices", "builtin:nope")
    assert code == 2
    # values that would raise a ValueError deep inside are rejected where
    # they are read
    elem = tmp_path / "elem.json"
    elem.write_text(json.dumps({"terms": [{"exp": {"d1": 1}, "coeff": {"1.5": 1}}]}))
    cases = [
        (("shear", "psi", surf, str(elem)), "bad coefficient exponent"),
        (("verify", "negative", "--trials", "0"), "--trials must be at least 1"),
        (("verify", "balanced", "--seed", "-1"), "--seed must be at least 0"),
        (("flipseq", surf, "d1", "t", "--labels", "t,d1", "--verify", "--trials", "-2"),
         "--trials must be at least 1"),
        (("flipseq", "builtin:polygon5", "e0_2", "e0_3", "--labels", "n,n"),
         "new label n names an existing edge"),
        (("flipseq", "builtin:polygon5", "e0_2", "--verify"),
         "--verify needs a flip sequence that returns to the start"),
        (("flipseq", surf, "d1", "--labels", "a,b"), "--labels needs one name per flip"),
        (("puncture", "trace", "builtin:torus1"), "puncture trace needs a curve file"),
    ]
    # a curve through a side no triangle has, an element on no inner edge
    steps = json.loads((tmp_path / "core.json").read_text())["steps"]
    off_side = tmp_path / "off_side.json"
    off_side.write_text(json.dumps({"steps": [{**steps[0], "in": "T9.x"}] + steps[1:]}))
    cases.append((("curve", "classify", surf, str(off_side)), "unknown side 'T9.x'"))
    off_edge = tmp_path / "off_edge.json"
    off_edge.write_text(json.dumps({"terms": [{"exp": {"zz": 1}, "coeff": {"0": 1}}]}))
    cases.append((("shear", "psi", surf, str(off_edge)), "unknown inner edge 'zz'"))
    # side-keyed data naming no side, and hints giving a vertex two names
    data = json.loads((tmp_path / "annulus.json").read_text())
    malformed = [
        ("edge_labels", "Q", "zz", "unknown sides Q"),
        ("vertex_hints", "Q", ["a", "b"], "unknown sides Q"),
        ("vertex_hints", "T0.d1", ["v", "v"], "name one vertex both"),
    ]
    for key, side, value, message in malformed:
        path = tmp_path / ("malformed_%s.json" % len(cases))
        path.write_text(json.dumps({**data, key: {**data[key], side: value}}))
        cases.append((("surf", "matrices", str(path)), message))
    for argv, message in cases:
        code, _, err = run(capsys, *argv)
        assert code == 2 and message in err and "Traceback" not in err, argv


NO_SCIPY = """
import sys
import qskein, qskein.cli
from qskein.coordinate_change import Expr
from qskein.qtorus import TorusElement, TorusSpec
from qskein.repcheck import verify_identity
s = TorusSpec(("a", "b"), [[0, 3], [-3, 0]], 2)
x = Expr.from_element(TorusElement.monomial(s, (1, 1)) + TorusElement.monomial(s, (0, 1)))
one = Expr.from_element(TorusElement.monomial(s, (0, 0)))
assert verify_identity(x.inv() * x, one, s, trials=2).passed
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_runtime_imports_no_scipy():
    # scipy is a benchmark dependency only; the CLI and the certifier,
    # inverses included, run on numpy alone
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_closed_pipe_exits_quietly(tmp_path):
    # the psi image of 6,000 terms is about 1.3 MB of JSON, more than a pipe
    # holds, so the CLI is still writing when the reader closes after one line
    element = tmp_path / "element.json"
    element.write_text(json.dumps({"terms": [
        {"exp": {"e0_2": i % 100, "e0_3": i // 100}, "coeff": {"0": 1}}
        for i in range(6000)]}))
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "qskein.cli", "--json", "shear", "psi",
         "builtin:polygon5", str(element)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    assert proc.wait(timeout=120) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()
