"""Command line tests, driven through main() with explicit argv."""

import json
import random
from pathlib import Path

import pytest

from preproj import d4, flags
from preproj.cli import main
from preproj.fields import QQ
from preproj.module import LambdaModule, direct_sum
from preproj.quiver import Quiver, double
from preproj.randgen import random_nilpotent_module
from preproj.serialize import module_to_data, save_module


def a2_double():
    return double(Quiver.build(["1", "2"], [("a", "1", "2")]))


def kronecker_double():
    return double(Quiver.build(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("modules")
    paths = {}
    for name, m in d4.zoo(1).items():
        safe = name.replace("(", "_").replace(")", "").replace("-", "m")
        paths[name] = str(root / f"{safe}.json")
        save_module(paths[name], m, name=name)
    dq = a2_double()
    for name, m in {
        "s1": LambdaModule.build(dq, QQ, (1, 0), {}),
        "s2": LambdaModule.build(dq, QQ, (0, 1), {}),
        "x": LambdaModule.build(dq, QQ, (1, 1), {"a": [[1]]}),
        "y": LambdaModule.build(dq, QQ, (1, 1), {"a*": [[1]]}),
    }.items():
        paths[name] = str(root / f"{name}.json")
        save_module(paths[name], m, name=name)
    kq = kronecker_double()
    spinner = LambdaModule.build(
        kq, QQ, (1, 1), {"a": [[1]], "b": [[-1]], "a*": [[1]], "b*": [[1]]}
    )
    paths["spinner"] = str(root / "spinner.json")
    save_module(paths["spinner"], spinner, name="spinner")
    violator = LambdaModule.build(
        kq, QQ, (1, 1), {"a": [[1]], "b": [[1]], "a*": [[1]], "b*": [[1]]}
    )
    paths["violator"] = str(root / "violator.json")
    save_module(paths["violator"], violator, name="violator")
    return paths


def test_validate_accepts_the_example_modules(files, capsys):
    assert main(["validate", files["T"]]) == 0
    out = capsys.readouterr().out
    assert "relations hold" in out and "nilpotent" in out


def test_validate_flags_relation_violations(files, capsys):
    assert main(["validate", files["violator"]]) == 1
    assert "relation fails at vertex" in capsys.readouterr().out


def test_validate_flags_non_nilpotent_modules(files, capsys):
    assert main(["validate", files["spinner"]]) == 1
    assert "not nilpotent" in capsys.readouterr().out


def test_validate_rejects_broken_files(files, tmp_path, capsys):
    path = tmp_path / "bad.json"
    with open(files["T"]) as fh:
        data = json.load(fh)
    data["action"]["a"] = [["1", "2"]]
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) == 2
    assert "arrow 'a': expected 1 columns" in capsys.readouterr().err
    assert main(["validate", str(tmp_path / "missing.json")]) == 2


def test_validate_rejects_undecodable_and_deeply_nested_files(files, tmp_path, capsys):
    with open(files["x"], "rb") as fh:
        text = fh.read()
    latin = tmp_path / "latin.json"
    latin.write_bytes(b"\xff\xfe" + text)
    assert main(["validate", str(latin)]) == 2
    assert "utf-8" in capsys.readouterr().err
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    assert main(["validate", str(deep)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_validate_rejects_inexact_scalars(files, tmp_path, capsys):
    path = tmp_path / "float.json"
    with open(files["x"]) as fh:
        data = json.load(fh)
    data["action"]["a"] = [[0.5]]
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) == 2
    assert "holds 0.5" in capsys.readouterr().err


def test_ext_reports_the_example_dimensions(files, capsys):
    assert main(["ext", files["T"], files["S4"]]) == 0
    out = capsys.readouterr().out
    assert "ext1(M,N)  2" in out and "ext1(N,M)  2" in out


def test_ext_json_output(files, capsys):
    assert main(["ext", files["T"], files["S4"], "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ext1_mn"] == 2 and data["ext1_nm"] == 2
    assert data["ok"] is True


def test_euler_prints_a_profile(files, capsys):
    assert main(["euler", files["M(-1)"], "--word", "3,4,1,2,4"]) == 0
    out = capsys.readouterr().out
    assert "euler       0" in out


def test_euler_with_coefficients(files, capsys):
    assert main(
        ["euler", files["x"], "--word", "1,2", "--coeffs", "1,1", "--format", "json"]
    ) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["euler"] == 1
    assert data["coeffs"] == [1, 1]


def test_euler_exhausted_primes_exit_three(files, capsys):
    assert main(["euler", files["T"], "--word", "1,2,3,4", "--primes", "2,3"]) == 3
    assert "exhausted" in capsys.readouterr().err


def test_euler_unknown_vertex_is_a_math_error(files, capsys):
    assert main(["euler", files["T"], "--word", "9,9,9,9"]) == 1
    assert "unknown vertex" in capsys.readouterr().err


def test_non_prime_override_is_a_usage_error(files):
    with pytest.raises(SystemExit) as exc:
        main(["euler", files["T"], "--word", "1,2", "--primes", "6,7"])
    assert exc.value.code == 2


def test_repeated_prime_override_is_a_usage_error(files, capsys):
    argv = ["euler", files["T"], "--word", "1,2,3,4"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--primes", "3,3,5,7,11,13,17"])
    assert exc.value.code == 2
    assert "prime 3 is repeated" in capsys.readouterr().err


def test_fingerprint_json_round_trips(files, capsys):
    assert main(["fingerprint", files["x"], "--format", "json"]) == 0
    first = capsys.readouterr().out
    data = json.loads(first)
    assert data["chi"] == [1, 0]
    assert data["words"] == [["1", "2"], ["2", "1"]]
    assert main(["fingerprint", files["x"], "--format", "json"]) == 0
    assert capsys.readouterr().out == first


def test_verify_unique_extension_on_a2(files, capsys):
    assert main(["verify", "--thm", "1.2", files["s1"], files["s2"]]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_pairwise_with_anchor_files(files, capsys):
    code = main(
        [
            "verify", "--thm", "1.1", files["s1"], files["s2"],
            "--anchors-fwd", files["x"], "--anchors-bwd", files["y"],
            "--format", "json",
        ]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True
    assert data["strata_fwd"][0]["chi_proj"] == 1


def test_verify_pairwise_needs_anchor_lists(files, capsys):
    assert main(["verify", "--thm", "1.1", files["s1"], files["s2"]]) == 2
    assert "anchors" in capsys.readouterr().err


def test_verify_rejects_wrong_ext_dimension(files, capsys):
    assert main(["verify", "--thm", "1.2", files["T"], files["S4"]]) == 1
    assert "needs exactly 1" in capsys.readouterr().err


def test_verify_unanchored_stratum_exit_three(files, capsys):
    code = main(
        [
            "verify", "--thm", "1.1", files["S4"], files["T"],
            "--anchors-fwd", files["M(0)"], "--anchors-bwd", files["R"],
        ]
    )
    assert code == 3
    assert "match no anchor" in capsys.readouterr().err


def test_example_d4_reproduces_the_worked_example(capsys):
    assert main(["example-d4"]) == 0
    out = capsys.readouterr().out
    assert "delta_M(0) = delta_M(lam) + delta_H    ok" in out
    assert "strata of P Ext^1(S4, T): M(lam) -1, M(0) 1, M(-1) 1, M(inf) 1" in out
    assert "strata of P Ext^1(T, S4): R -1, A 1, B 1, C 1" in out
    assert (
        "delta_T * delta_S4 = delta_M(lam) + delta_R + delta_F + delta_G + delta_H"
        in out
    )
    assert "FAILED" not in out


def without_elapsed(data: dict) -> dict:
    """json.load object hook: drop every timing, keep everything else."""
    return {k: v for k, v in data.items() if k != "elapsed"}


def test_example_d4_json_matches_the_frozen_output(capsys):
    # each frozen file is the output with its timings removed; CI compares
    # against them under python3 -S as well.  At lambda = 2 and 7/2 the
    # forward stratification skips 2 and 3 (and 7 at 7/2), so its windows
    # start at 5
    frozen = {
        "1": ("example_d4.json", (3, 5)),
        "2": ("example_d4_lambda_2.json", (5, 7)),
        "7/2": ("example_d4_lambda_7_2.json", (5, 11)),
    }
    for lam, (name, window) in frozen.items():
        assert main(["example-d4", "--lambda", lam, "--format", "json"]) == 0
        got = json.loads(capsys.readouterr().out, object_hook=without_elapsed)
        want = Path(__file__).with_name(name).read_text()
        assert got == json.loads(want, object_hook=without_elapsed), lam
        assert got["passed"] is True
        fwd = got["pairwise"]["strata_fwd"]
        assert {tuple(s["window"]) for s in fwd} == {window}, lam


def test_family_fingerprint_json_matches_the_frozen_output(capsys):
    # the star family at lambda = 2 slides some words' windows and not
    # others, so the frozen samples and windows pin every word's fit; CI
    # compares against it under python3 -S as well
    here = Path(__file__).parent
    module = here / "m_family_2.json"
    assert main(["fingerprint", str(module), "--format", "json"]) == 0
    got = json.loads(capsys.readouterr().out, object_hook=without_elapsed)
    frozen = (here / "m_family_2_fingerprint.json").read_text()
    assert got == json.loads(frozen, object_hook=without_elapsed)
    windows = {tuple(pr["window"]) for pr in got["profiles"]}
    assert windows == {(2, 3), (3, 5), (5, 7)}


def test_kronecker_fingerprint_json_matches_the_frozen_output(capsys, monkeypatch):
    # frozen before hyperplane pieces were counted by orbits: at some step
    # of this Kronecker module the hyperplanes over the incoming images
    # fall into fixed ones and one orbit, so the frozen counts pin that
    # path; CI compares against it under python3 -S as well
    real = flags._orbits
    mixed = []

    def recorded(m, v, memo):
        orbits = real(m, v, memo)
        sizes = [size for size, _ in orbits]
        mixed.append(1 in sizes and max(sizes) > 1)
        return orbits

    monkeypatch.setattr(flags, "_orbits", recorded)
    here = Path(__file__).parent
    module = here / "kronecker_2_2.json"
    assert main(["fingerprint", str(module), "--format", "json"]) == 0
    got = json.loads(capsys.readouterr().out, object_hook=without_elapsed)
    frozen = (here / "kronecker_2_2_fingerprint.json").read_text()
    assert got == json.loads(frozen, object_hook=without_elapsed)
    assert any(mixed)


def test_a3_fingerprint_json_matches_the_frozen_output(capsys):
    # frozen before one-dimensional pieces were peeled by a zero test and
    # modules with every arrow zero were counted in closed form: this
    # direct sum of dimension (3, 1, 1) has two one-dimensional vertices,
    # and at p = 2 every arrow is zero; CI compares against it under
    # python3 -S as well
    dq = double(Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")]))
    rng = random.Random("dirsum-split/8")
    while True:
        left = random_nilpotent_module(dq, rng, steps=2, max_total=3)
        right = random_nilpotent_module(dq, rng, steps=2, max_total=2)
        if all(a + b <= 3 for a, b in zip(left.dim, right.dim)):
            break
    here = Path(__file__).parent
    module = here / "a3_3_1_1.json"
    whole = module_to_data(direct_sum(left, right), name="A3(3,1,1)")
    assert json.loads(module.read_text()) == whole
    assert main(["fingerprint", str(module), "--format", "json"]) == 0
    got = json.loads(capsys.readouterr().out, object_hook=without_elapsed)
    frozen = (here / "a3_3_1_1_fingerprint.json").read_text()
    assert got == json.loads(frozen, object_hook=without_elapsed)
    assert len(got["words"]) == 20


def test_kronecker_euler_json_matches_the_frozen_output(capsys):
    # the one-word chain path: the word has a step of multiplicity 2 and
    # a zero coefficient, and its count at p = 2 (3, not 0) slides the
    # window past 2; CI compares against it under python3 -S as well
    here = Path(__file__).parent
    module = here / "kronecker_2_2.json"
    argv = ["euler", str(module), "--word", "2,1,2,1", "--coeffs", "2,1,0,1"]
    assert main([*argv, "--format", "json"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got == json.loads((here / "kronecker_2_2_euler.json").read_text())
    assert got["samples"][0] == [2, 3] and got["window"] == [3, 5, 7]


def test_example_d4_generic_parameter_choice(capsys):
    assert main(["example-d4", "--lambda", "2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True
    assert all(item["ok"] for item in data["identities"])
    assert data["expansion"]["ok"] is True


def test_example_d4_rejects_degenerate_parameters(capsys):
    assert main(["example-d4", "--lambda", "0"]) == 2
    assert "degenerate" in capsys.readouterr().err
    assert main(["example-d4", "--lambda", "-1"]) == 2
    capsys.readouterr()
