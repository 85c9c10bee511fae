"""Module file format tests.

A written file must read back bit for bit: the worked-example modules,
fractional scalars, and prime-field modules all round-trip, and every
way a file can be structurally broken raises FormatError rather than
leaking a constructor traceback.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from preproj import d4
from preproj.fields import QQ
from preproj.flags import fingerprint
from preproj.homext import dimension_checks
from preproj.module import LambdaModule, reduce_mod_p, validate
from preproj.quiver import Quiver, double
from preproj.serialize import (
    FormatError,
    dimensions_to_data,
    dumps_canonical,
    fingerprint_to_data,
    load_module,
    module_from_data,
    module_to_data,
    profile_to_data,
    quiver_from_data,
    quiver_to_data,
    report_to_data,
    save_module,
    validation_to_data,
)
from preproj.verify import verify_thm_1_2
from preproj.module import simple


def a2_double():
    return double(Quiver.build(["1", "2"], [("a", "1", "2")]))


def test_zoo_modules_round_trip(tmp_path):
    for name, m in d4.zoo(1).items():
        path = tmp_path / "module.json"
        save_module(path, m, name=name)
        loaded_name, loaded = load_module(path)
        assert loaded_name == name
        assert loaded == m
        again = tmp_path / "again.json"
        save_module(again, loaded, name=loaded_name)
        assert path.read_text() == again.read_text()


def test_fractional_scalars_round_trip(tmp_path):
    m = d4.m_family(Fraction(7, 2))
    path = tmp_path / "m.json"
    save_module(path, m)
    name, loaded = load_module(path)
    assert name is None
    assert loaded == m


def test_prime_field_modules_round_trip(tmp_path):
    m = reduce_mod_p(d4.t_module(), 5)
    data = module_to_data(m)
    assert data["field"] == "F5"
    _, loaded = module_from_data(data)
    assert loaded == m


def test_quiver_round_trip():
    q = d4.star_quiver()
    assert quiver_from_data(quiver_to_data(q)) == q


def test_canonical_dump_is_stable():
    data = module_to_data(d4.t_module(), name="T")
    assert dumps_canonical(data) == dumps_canonical(json.loads(dumps_canonical(data)))


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda d: d.pop("field"), "lacks the 'field'"),
        (lambda d: d.update(field="R"), "field tag"),
        (lambda d: d.update(field="F10"), "field order"),
        (lambda d: d.update(dim=[1, 1]), "map vertices"),
        (lambda d: d["dim"].update({"9": 1}), "unknown vertex"),
        (lambda d: d["dim"].update({"1": -1}), "whole number"),
        (lambda d: d["action"].update({"zz": [[1]]}), "unknown arrow"),
        # two rows for a 1x1 arrow; the id keeps the case's established name
        pytest.param(
            lambda d: d["action"].update({"a": [["1"], ["2"]]}),
            "arrow a has shape 2x1, expected 1x1",
            id="<lambda>-must have 1 rows",
        ),
        (lambda d: d["action"].update({"a": [["1", "2"]]}), "arrow 'a': expected 1 columns"),
        (lambda d: d["action"].update({"a": [["one half"]]}), "bad matrix"),
        (lambda d: d["quiver"].pop("arrows"), "malformed quiver"),
        # JSON floats and booleans are not exact scalars or dimensions
        (lambda d: d.update(field="F5", action={"a": [[1.5]]}), "'a' holds 1.5"),
        (lambda d: d["action"].update({"a": [[0.1]]}), "'a' holds 0.1"),
        (lambda d: d["action"].update({"a": [[True]]}), "'a' holds True"),
        (lambda d: d["dim"].update({"1": True}), "vertex '1' must be"),
    ],
)
def test_broken_module_data_raises_format_error(mangle, message):
    dq = a2_double()
    data = module_to_data(LambdaModule.build(dq, QQ, (1, 1), {"a": [[1]]}))
    mangle(data)
    with pytest.raises(FormatError, match=message):
        module_from_data(data)


def test_non_json_file_raises_format_error(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("not json at all {")
    with pytest.raises(FormatError, match="not valid JSON"):
        load_module(path)


def test_scalar_denominator_clash_over_prime_field():
    dq = a2_double()
    m = LambdaModule.build(dq, QQ, (1, 1), {"a": [[Fraction(1, 5)]]})
    data = module_to_data(m)
    data["field"] = "F5"
    with pytest.raises(FormatError, match="bad matrix"):
        module_from_data(data)


def test_report_serializers_carry_every_field():
    dq = a2_double()
    s1, s2 = simple(dq, "1", QQ), simple(dq, "2", QQ)
    val = validation_to_data(validate(s1))
    assert val == {"ok": True, "nilpotent": True, "residual_vertices": []}
    dims = dimensions_to_data(dimension_checks(s1, s2))
    assert dims["ext1_mn"] == 1 and dims["ok"] is True
    fp = fingerprint(LambdaModule.build(dq, QQ, (1, 1), {"a": [[1]]}))
    fpd = fingerprint_to_data(fp)
    assert fpd["chi"] == [1, 0]
    assert fpd["words"] == [["1", "2"], ["2", "1"]]
    prd = fpd["profiles"][0]
    assert prd["euler"] == 1 and prd["word"] == ["1", "2"]
    assert prd["window"] and prd["validation"] and prd["samples"]
    assert profile_to_data(fp.profiles[0]) == prd
    rep = report_to_data(verify_thm_1_2(s1, s2))
    assert rep["passed"] is True
    assert rep["left"] == [1, 1] and rep["right"] == [1, 1]
    assert rep["mismatches"] == []
    assert rep["method"] == "unique-extension"
    assert rep["elapsed"] > 0


ZOO_DIGESTS = {
    "T": "47cdc3c6c5de1b0d1096d1d774b3f9e0b63a07b45cdbf71deb62b4f5ecd86451",
    "S4": "4a84f208c09e81468824b34251c68793b9c97c1351bb344ac649350bb480e908",
    "M(lam)": "0b9463fd7d7631c53ce50079ccb782205166c53f8d1bb41088b706a0f60796fa",
    "M(0)": "b688729a6d535e235944f6c9923ab5e5af7fc097dbaf01be121d52c1fb2c3a20",
    "M(-1)": "95f0580c9d9cd69882166935fb6e81f5e600be4d31b8c737f4c17f8cd8805223",
    "M(inf)": "b0672d538fe5840eb2654ac247abf71cde8343c8460deac1fba01166ffe3819d",
    "R": "c2906b207f51b1fe25e12ed61cb5929bf73ba8a1212d784abf8507c8f5be3186",
    "A": "8830b2e1006ae3bd52d966e147e9ec2488042bada4e39f9d0399f409ee62d7e6",
    "B": "99b3d1f214e2f7657d88cfbeb75e9ab9f7fed1dd50f026619b7cfdbbd6ed22b8",
    "C": "823cca68d047db2685984389c604dac4c9f50be5abb027ddd7676e2adea8bdd3",
    "F": "250e0269b23a78931a81d164348d75754258fe17d369ebdfa38e960f5aeac591",
    "G": "031285d361f6909910040213cfa1c037c8e3a87ace9db0d65dcf523bb0ce169a",
    "H": "c8352e1f0ae2c4cc76f03328f1d659556a57d6bec76f1ea9dbc5a3b9a90870c8",
}


@pytest.mark.parametrize("lam", [1, 2])
def test_zoo_module_data_frozen(lam):
    want = dict(ZOO_DIGESTS)
    if lam == 2:
        want["M(lam)"] = (
            "c88dd5ed1394f6f76f9a21f7857dea3b568df7821a2f9031a9481abc5aece1a2"
        )
    got = {
        name: hashlib.sha256(dumps_canonical(module_to_data(m)).encode()).hexdigest()
        for name, m in d4.zoo(lam).items()
    }
    assert got == want
