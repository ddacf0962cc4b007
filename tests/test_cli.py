import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qskein import cli, suites
from qskein.cli import main
from qskein.coordinate_change import Expr, compose_flips
from qskein.library import annulus_core, torus_curve
from qskein.puncture import lift
from qskein.qscalar import Laurent
from qskein.surface import torus_one_marked


def curve_json(curve):
    """The contents of a curve file: each step's triangle and the sides it
    enters and leaves by, which NormalCurve.from_json reads back."""
    return {"steps": [{"tri": t, "in": curve.T.triangles[t][i], "out": curve.T.triangles[t][o]}
                      for t, i, o in curve.steps]}


@pytest.fixture
def annulus_files(tmp_path):
    A, core = annulus_core()
    surf = tmp_path / "annulus.json"
    curve = tmp_path / "core.json"
    surf.write_text(json.dumps(A.to_json()))
    curve.write_text(json.dumps(curve_json(core)))
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
    code, out, _ = run(capsys, "--json", "curve", "classify", surf, curve)
    assert code == 0
    assert json.loads(out) == {"class": "simple", "multiplicities": {"d1": 1, "d2": 1}}
    code, out, _ = run(capsys, "--json", "curve", "states", surf, curve)
    assert code == 0
    assert json.loads(out) == {"count": 3, "states": [
        {"k": {"d1": 1, "d2": 1}, "values": [1, 1]},
        {"k": {"d1": -1, "d2": 1}, "values": [1, -1]},
        {"k": {"d1": -1, "d2": -1}, "values": [-1, -1]}]}


def test_shear_psi(capsys, annulus_files, tmp_path):
    surf, _ = annulus_files
    elem = tmp_path / "elem.json"
    elem.write_text(json.dumps(
        {"terms": [{"exp": {"d1": 1, "d2": 1}, "coeff": {"0": 1}}]}
    ))
    code, out, _ = run(capsys, "shear", "psi", surf, str(elem))
    assert code == 0
    assert "x[d1]^-2 x[d2]^2" in out
    # an element with no terms is zero, and so is its image
    elem.write_text(json.dumps({"terms": []}))
    code, out, err = run(capsys, "shear", "psi", "builtin:polygon5", str(elem))
    assert (code, out) == (0, "0\n"), err


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


def test_shear_psi_exponents_past_int64(capsys, tmp_path):
    elem = tmp_path / "elem.json"
    b = 3 * 2 ** 61
    elem.write_text(json.dumps({"terms": [{"exp": {"d1": b, "d2": b}}]}))
    code, out, err = run(capsys, "shear", "psi", "builtin:annulus", str(elem))
    assert code == 0, err
    assert out == "1*q^(0) * x[d1]^%d x[d2]^%d\n" % (-2 * b, 2 * b)
    # the quadrilateral of e0_2 has boundary (e0_1, e1_2, e2_3, e0_3)
    elem.write_text(json.dumps({"terms": [{"exp": {"e0_2": 2 ** 70}}]}))
    code, out, err = run(capsys, "--json", "shear", "psi", "builtin:polygon5", str(elem))
    assert code == 0, err
    [term] = json.loads(out)["terms"]
    assert term["exp"] == {"e0_1": 2 ** 70, "e1_2": -2 ** 70, "e2_3": 2 ** 70, "e0_3": -2 ** 70}


def test_flipseq_verify(capsys, annulus_files):
    surf, _ = annulus_files
    code, out, _ = run(
        capsys, "flipseq", surf, "d1", "t", "--labels", "t,d1",
        "--verify", "--trials", "2",
    )
    assert code == 0
    assert "returns to start: True" in out
    assert "PASS" in out


def test_flipseq_renames_a_derived_label_that_exists(capsys):
    # the second flip's derived label names the edge eu_v, so it becomes d2*
    code, out, _ = run(capsys, "flipseq", "builtin:annulus", "d1", "d2")
    assert code == 0
    assert out.splitlines()[:2] == [
        "flip d1 -> eu_v  quad (d2,b1,d2,b2)  b=d",
        "flip d2 -> d2*  quad (eu_v,b2,eu_v,b1)  b=d",
    ]
    assert "final inner edges: ('d2*', 'eu_v')" in out


def test_flipseq_verify_exits_1_on_a_failing_generator(capsys, monkeypatch, annulus_files):
    # one coefficient of the closed walk's composite times q^(1/8)
    def corrupted(*args, **kwargs):
        final, comp, datas = compose_flips(*args, **kwargs)
        pos, neg = comp.images["d2"]
        (c0, factors), *rest = pos.words
        comp.images["d2"] = (Expr(pos.spec, [(c0 * Laurent.q_power(1), factors), *rest]), neg)
        return final, comp, datas

    monkeypatch.setattr(cli, "compose_flips", corrupted)
    surf, _ = annulus_files
    code, out, _ = run(capsys, "flipseq", surf, "d1", "t", "--labels", "t,d1",
                       "--verify", "--trials", "2")
    assert code == 1
    assert "identity on generator d1: PASS" in out
    assert "identity on generator d2: FAIL" in out


def test_surf_matrices_of_a_generalized_surface(capsys):
    code, out, _ = run(capsys, "surf", "matrices", "builtin:torus1")
    assert code == 0 and "face matrix Q (3 x 3)" in out
    assert out.endswith("generalized surface: vertex matrix undefined\n")


def test_puncture_commands(capsys, tmp_path):
    lam, c10 = torus_curve("1,0")
    surf = tmp_path / "torus.json"
    curve = tmp_path / "c10.json"
    surf.write_text(json.dumps(lam.to_json()))
    curve.write_text(json.dumps(curve_json(c10)))
    code, out, _ = run(capsys, "puncture", "lift", str(surf))
    assert code == 0 and "boundary loops" in out
    code, out, _ = run(capsys, "puncture", "trace", str(surf), str(curve))
    assert code == 0 and "cross-checked: True" in out
    code, out, _ = run(capsys, "--json", "puncture", "lift", str(surf))
    data = json.loads(out)
    assert code == 0 and data["points"] == ["p0"] and data["cp_edges"] == {"p0": "cp0"}
    assert data["omega"] == {"a": "a", "b": "b", "c": "c", "g0": "c"}
    assert data["delta"] == json.loads(json.dumps(lift(lam).delta.to_json()))
    code, out, _ = run(capsys, "--json", "puncture", "trace", str(surf), str(curve))
    data = json.loads(out)
    assert code == 0 and data["states"] == 3 and data["cross_checked"] is True
    assert len(data["shear"]["terms"]) == len(data["skein"]["terms"]) == 3


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


# SHA-256 of `qskein --json verify <suite>` at the default trials and seed:
# a change to any row's status or detail, or to a count, changes the digest
VERIFY_DIGESTS = {
    "balanced": "0205970facf2d6639b155513ea0b2d34221b63a72bf5c471820f7eb0ea07e83d",
    "dia9": "d4ef0e595687e19e5d157c9dc8bf556cad97d07c1fd2936bfdc2a21673783368",
    "duality": "e3d3f6be42b6d9fd459ac51624d7c21cf054c35a228bdcf1073570d36878cce9",
    "flipback": "6e5131436fb6e977b563821fd6f68d4a2912d9b957a13e3f67f8ac78a9f2f920",
    "naturality": "9631ac7ad18470fbf6476d091b36c2a33bd5039ecfd699b76c39bc014e7da137",
    "negative": "7ba0642ce27f43e4a683ce6f586d08795b7c6d2979a7fa051850ba43d3f679ea",
    "pentagon": "269c8165cb044e2d66452dcf316a7be383722457695169eeef1fed1c6c475d77",
    "phased": "1e1f5cdf31d9a8f5a20d7da29c6ff026f5a96c7701d01a4511b45bbf09df25c1",
    "punctured": "1a6f9e4d27cba7e0a9bf5c8453b910b207d94188c759c94eb7612c1293d62913",
    "trace": "09da457df9aff6318058961665543a03b7856d9bacca7ebac7563daad249ae35",
    "transfer": "4088a86dd2e5ccace8865b9c319b674d2ff8a5fce1180c3de3a93f1defcd15fb",
}


@pytest.mark.parametrize("suite", sorted(suites.SUITES))
def test_verify_json_output_is_pinned(capsys, suite):
    code, out, _ = run(capsys, "--json", "verify", suite)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[suite], suite


# SHA-256 of the stdout of the other subcommands.  {surf}, {curve} and {elem}
# stand for the annulus, its core curve and the element x[d1] x[d2];
# {torus} and {c10} for the one-marked torus and its (1,0) curve
COMMAND_DIGESTS = {
    "--json surf matrices builtin:polygon3":
        "a4cbc68f96e2be4e3147a08717637cc5b57b0f18c736e938fa8dca051708f633",
    "--json surf matrices builtin:polygon4":
        "8ab3476f98c90f63744503417d2e181b28078c16251bb92fede4c4ee9596fdf1",
    "--json surf matrices builtin:polygon5":
        "3b6cca706e167e79041277fd3caab8c27de22d4280cbbe71ffda31171701d7a0",
    "--json surf matrices builtin:polygon6":
        "7e3091dbc721a1c8033b528b14a35383b5b487348c22ad95b87d64c0f1f5609a",
    "--json surf matrices builtin:polygon7":
        "7f84e43821e11e7ef77c2d7dbc144749a20e18a501044df4192540bdd5dd33f5",
    "--json surf matrices builtin:polygon8":
        "1dc41292ed6834b4217b07ea26e074736623f19ac799c21a3ed689ddf0bba915",
    "--json surf matrices builtin:annulus":
        "dbd50a1a63459b44682c06b2b40c54e0b855ed449c0822ffe7abe4810b20d61d",
    "--json surf matrices builtin:torus1-lift":
        "8a7cb5eda5bbee0d2948bf527a7701cb88898a8afc4bc307797e5a929d403d7c",
    "--json surf matrices builtin:sphere3-lift":
        "b367609c574b0c38b673d9021358c60ad4c8d3172447923e270380e5fb615223",
    "--json surf matrices builtin:torus1":
        "2c1b4053b9fc482310de453cdce2baf7a79bd0fd0a54ca64f4e88f31a9af39bf",
    "--json surf matrices builtin:sphere3":
        "ed467f7ced76a27a0860c2924e0e695edc355bb218f27b5754c76f3fd4c5bf6a",
    "--json puncture lift builtin:torus1":
        "1a4254529a8104bf55c5aaf24ed89c16e821c9ecca0d708a4596ace8208887fd",
    "--json puncture lift builtin:torus1 --variant before":
        "952e75285fbe8d98e4614bdad8dbbb56e91d3087d66df5efb9359d7a33083f63",
    "--json puncture lift builtin:sphere3":
        "3cb9b5f4166e48bbf293fe3ccfe5b40d4d64ccb465ed297c8f6e3c6c0d82a268",
    "--json puncture lift builtin:sphere3 --variant before":
        "dc5c04b7e8ae7a96a334e4d84833562d8ca756675ac87defebbb7dde8addd2f3",
    "--json curve states {surf} {curve}":
        "efd481c31bd0a962da1f7472f91ad51be946c0bbdec1574667a0c0fabc4039e2",
    "--json trace {surf} {curve}":
        "f9cd3262354c4ca7e77346938f3a7e3bac5d4c6b34c84804d543220820c8eb81",
    "--json shear psi {surf} {elem}":
        "99371eb846c4c81b02418c32ae85b254f810e0c8e755a91acd2162a82f9db2a6",
    "--json puncture trace {torus} {c10}":
        "829bbf2543b390ac6a41008253106ccb06511f43de4b09f89945727f93a3bc8e",
    "--json puncture trace {torus} {c10} --variant before":
        "1c4eaa59e22c6916d6468ce84b77ffecc7a3656f2642a182c23eae01761a04f5",
    "flipseq builtin:polygon5 e0_2 e0_3 e1_3 e1_4 e2_4 --verify":
        "5d2662121b41f8f036a79fa47cc883ef0b8ee12a1c3d6c48c791c0196b8f1b16",
}


@pytest.mark.parametrize("command", sorted(COMMAND_DIGESTS))
def test_command_output_is_pinned(capsys, annulus_files, tmp_path, command):
    surf, curve = annulus_files
    elem = tmp_path / "elem.json"
    elem.write_text(json.dumps({"terms": [{"exp": {"d1": 1, "d2": 1}, "coeff": {"0": 1}}]}))
    lam, c10 = torus_curve("1,0")
    files = {"surf": surf, "curve": curve, "elem": str(elem)}
    for name, data in (("torus", lam.to_json()), ("c10", curve_json(c10))):
        files[name] = str(tmp_path / (name + ".json"))
        (tmp_path / (name + ".json")).write_text(json.dumps(data))
    code, out, err = run(capsys, *(word.format(**files) for word in command.split()))
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == COMMAND_DIGESTS[command], command


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
    # the message of the library's KeyError, printed bare, not quoted
    for argv, name in ((("flipseq", "builtin:nosuch", "e0_2"), "nosuch"),
                       (("surf", "matrices", "builtin:nosuch"), "nosuch"),
                       (("surf", "matrices", "builtin:polygonx"), "polygonx"),
                       (("surf", "matrices", "builtin:polygon"), "polygon"),
                       (("surf", "matrices", "builtin:polygon\u0665"), "polygon\u0665"),
                       (("surf", "matrices", "builtin:polygon03"), "polygon03")):
        assert run(capsys, *argv)[::2] == (2, "input error: unknown surface %r\n" % name), argv
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
        # an empty name would otherwise fall back to the default one
        (("flipseq", "builtin:polygon5", "e0_2", "e0_3", "--labels", ",x"),
         "--labels has an empty name"),
        (("flipseq", "builtin:polygon5", "e0_2", "--labels", ""), "--labels has an empty name"),
        (("puncture", "trace", "builtin:torus1"), "puncture trace needs a curve file"),
    ]
    # int() would read the Arabic-Indic three and 1_6 as 3 and 16
    for key in ("\u0663", "1_6"):
        path = tmp_path / ("elem_%d.json" % len(cases))
        path.write_text(json.dumps({"terms": [{"exp": {"d1": 1}, "coeff": {key: 1}}]}))
        cases.append((("shear", "psi", surf, str(path)), "bad coefficient exponent: %r" % key))
    # three spellings of one exponent would overwrite one another
    path = tmp_path / "elem_repeated.json"
    path.write_text(json.dumps({"terms": [{"exp": {"d1": 1}, "coeff": {"3": 1, "03": 2, "+3": 5}}]}))
    cases.append((("shear", "psi", surf, str(path)),
                   "bad coefficient exponent: '03' repeats exponent 3"))
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


def test_puncture_lift_refusal_and_empty_bar_matrix(capsys, tmp_path):
    # lift names its new edges g0, g1, ...: on a torus whose edge c is
    # called g0 the names clash, and the refusal exits 2
    data = torus_one_marked().to_json()
    data["edge_labels"] = {s: "g0" if e == "c" else e for s, e in data["edge_labels"].items()}
    path = tmp_path / "torus_g0.json"
    path.write_text(json.dumps(data))
    assert run(capsys, "puncture", "lift", str(path))[::2] == (
        2, "input error: edge label g0 used by 4 sides\n")
    # a triangle has no inner edge, so its bar matrix H is empty, of rank 0
    code, out, _ = run(capsys, "puncture", "lift", "builtin:polygon3")
    assert code == 0
    assert "bar matrix checks: {'Qbar': True, 'duality': True, 'rank': True}" in out


def test_surface_and_curve_file_faults_are_named(capsys, tmp_path, annulus_files):
    # each fault of a surface or curve file exits 2 with the exact message
    surf, curve = annulus_files
    data = json.loads((tmp_path / "annulus.json").read_text())
    glued, labels = data["gluing"], data["edge_labels"]
    surfaces = [
        ({"gluing": glued + [["T0.b1", "zz"]]}, "unknown side zz in gluing"),
        ({"gluing": glued + [["T0.d1", "T0.b1"]]}, "side T0.d1 glued twice"),
        ({"edge_labels": {**labels, "T0.d1": "x"}},
         "glued sides T0.d1,T1.d1 carry different edge labels"),
        ({"edge_labels": {**labels, "T0.b1": "d1"}}, "edge label d1 used by 3 sides"),
        ({"edge_labels": {**labels, "T0.b1": "b2"}}, "edge label b2 shared by unglued sides"),
    ]
    for i, (change, message) in enumerate(surfaces):
        path = tmp_path / ("surface_%d.json" % i)
        path.write_text(json.dumps({**data, **change}))
        assert run(capsys, "surf", "matrices", str(path))[::2] == (
            2, "input error: %s: %s\n" % (path, message)), message
    steps = json.loads((tmp_path / "core.json").read_text())["steps"]
    path = tmp_path / "split_step.json"
    path.write_text(json.dumps({"steps": [{"in": "T0.d1", "out": "T1.d2"}] + steps[1:]}))
    assert run(capsys, "curve", "classify", surf, str(path))[::2] == (
        2, "input error: %s: in and out sides of a step must share a triangle\n" % path)
    # flips need a marked surface, and the torus has an interior marked point
    assert run(capsys, "flipseq", "builtin:torus1", "a")[::2] == (
        2, "input error: interior marked points: not a marked surface\n")


NO_SCIPY = """
import sys
import qskein, qskein.cli
from qskein.coordinate_change import Expr, _word_product
from qskein.qscalar import ONE
from qskein.qtorus import TorusElement, TorusSpec
from qskein.repcheck import verify_identity
s = TorusSpec(("a", "b"), [[0, 3], [-3, 0]], 2)
x = Expr.from_element(TorusElement.monomial(s, (1, 1)) + TorusElement.monomial(s, (0, 1)))
one = Expr.from_element(TorusElement.monomial(s, (0, 0)))
assert verify_identity(Expr(s, _word_product(ONE, (x.inv(), x))), one, s, trials=2).passed
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
