"""JSON formats for modules and for every report the engines produce.

A module file is self-contained: it embeds its quiver, the field, the
dimension vector, and one matrix per doubled arrow, with every scalar
written as an exact string.  Reading a written file reproduces the
module bit for bit.  Structural problems (missing keys, wrong shapes,
unparsable scalars) raise FormatError; mathematical problems are left
to the module constructors.
"""

import json
import re
from itertools import chain
from typing import Dict, List, Optional, Tuple

from .fields import QQ, Field
from .flags import CountProfile, DeltaFingerprint
from .homext import DimensionReport
from .linalg import Matrix, Polynomial
from .module import LambdaModule, ValidationReport
from .quiver import Quiver, double
from .verify import Stratum, VerificationReport


class FormatError(ValueError):
    """The data does not have the expected shape."""


def dumps_canonical(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _field_tag(field: Field) -> str:
    return "Q" if field.is_rational else f"F{field.p}"


def _parse_field_tag(tag) -> Field:
    if tag == "Q":
        return QQ
    if isinstance(tag, str):
        match = re.fullmatch(r"F(\d+)", tag)
        if match:
            try:
                return Field(int(match.group(1)))
            except ValueError as err:
                raise FormatError(str(err)) from None
    raise FormatError(f"unknown field tag {tag!r}, expected 'Q' or 'F<p>'")


def quiver_to_data(q: Quiver) -> Dict:
    return {
        "vertices": list(q.vertices),
        "arrows": [
            {"id": a.name, "from": a.source, "to": a.target} for a in q.arrows
        ],
    }


def quiver_from_data(data) -> Quiver:
    if not isinstance(data, dict):
        raise FormatError("quiver data must be an object")
    try:
        vertices = [str(v) for v in data["vertices"]]
        arrows = [
            (str(a["id"]), str(a["from"]), str(a["to"])) for a in data["arrows"]
        ]
    except (KeyError, TypeError) as err:
        raise FormatError(f"malformed quiver data: {err}") from None
    try:
        return Quiver.build(vertices, arrows)
    except ValueError as err:
        raise FormatError(str(err)) from None


def _is_whole(value) -> bool:
    """An int, but not a bool (JSON true loads as True, which is an int)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _matrix_rows(mat: Matrix) -> List[List[str]]:
    return [[str(value) for value in row] for row in mat.entries]


def module_to_data(m: LambdaModule, name: Optional[str] = None) -> Dict:
    data = {
        "field": _field_tag(m.field),
        "quiver": quiver_to_data(m.quiver),
        "dim": {v: m.dim_of(v) for v in m.quiver.vertices},
        "action": {a.name: _matrix_rows(m.x(a.name)) for a in m.dq.arrows},
    }
    if name is not None:
        data["name"] = name
    return data


def module_from_data(data) -> Tuple[Optional[str], LambdaModule]:
    """Rebuild a module from its data, returning its optional name too.

    Only the JSON layout is checked here: the four keys, the field tag,
    the quiver, that ``dim`` and ``action`` are objects, that every
    matrix is a list of rows of exact scalars (strings or integers, not
    floats or booleans) and that ``name`` is a string.  Everything else
    (vertex and arrow names, dimensions, matrix shapes, scalar values)
    is left to :meth:`LambdaModule.build`, whose ValueError, naming the
    vertex or arrow, becomes a FormatError.

    Raises:
        FormatError: structurally broken data.
    """
    if not isinstance(data, dict):
        raise FormatError("module data must be an object")
    for key in ("field", "quiver", "dim", "action"):
        if key not in data:
            raise FormatError(f"module data lacks the {key!r} key")
    field = _parse_field_tag(data["field"])
    q = quiver_from_data(data["quiver"])
    if not isinstance(data["dim"], dict):
        raise FormatError("dimension data must map vertices to integers")
    if not isinstance(data["action"], dict):
        raise FormatError("action data must map arrow ids to matrices")
    for arrow, rows in data["action"].items():
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise FormatError(f"matrix of arrow {arrow!r} must be a list of rows")
        for x in chain.from_iterable(rows):
            if not (isinstance(x, str) or _is_whole(x)):
                raise FormatError(
                    f"matrix of arrow {arrow!r} holds {x!r}, "
                    "not an exact scalar string or integer"
                )
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise FormatError("module name must be a string")
    try:
        return name, LambdaModule.build(double(q), field, data["dim"], data["action"])
    except ValueError as err:
        raise FormatError(str(err)) from None


def save_module(path, m: LambdaModule, name: Optional[str] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(module_to_data(m, name)))


def load_module(path) -> Tuple[Optional[str], LambdaModule]:
    """Load a module file.

    Raises:
        FormatError: a file that is not UTF-8 JSON, JSON nested too
            deeply to parse, or structurally broken data.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as err:
        raise FormatError(f"{path}: not valid JSON: {err}") from None
    return module_from_data(data)


def polynomial_to_data(poly: Polynomial) -> List[str]:
    return [str(c) for c in poly.coeffs]


def validation_to_data(report: ValidationReport) -> Dict:
    return {
        "ok": report.ok,
        "nilpotent": report.nilpotent,
        "residual_vertices": [v for v, _ in report.residuals],
    }


def dimensions_to_data(report: DimensionReport) -> Dict:
    return {
        "hom_mn": report.hom_mn,
        "hom_nm": report.hom_nm,
        "ext1_mn": report.ext1_mn,
        "ext1_nm": report.ext1_nm,
        "ext2_cokernel": report.ext2_cokernel,
        "form": report.form,
        "ext2_exact": report.ext2_exact,
        "reflexive_ok": report.reflexive_ok,
        "symmetric_ok": report.symmetric_ok,
        "euler_ok": report.euler_ok,
        "ok": report.ok,
    }


def profile_to_data(profile: CountProfile) -> Dict:
    return {
        "word": list(profile.word),
        "coeffs": list(profile.coeffs),
        "degree_bound": profile.degree_bound,
        "samples": [[p, c] for p, c in profile.samples],
        "window": list(profile.window),
        "validation": list(profile.validation),
        "polynomial": polynomial_to_data(profile.polynomial),
        "euler": profile.euler,
    }


def fingerprint_to_data(fp: DeltaFingerprint) -> Dict:
    return {
        "dim": {v: fp.module.dim_of(v) for v in fp.module.quiver.vertices},
        "words": [list(w) for w in fp.words],
        "chi": list(fp.chi),
        "profiles": [profile_to_data(pr) for pr in fp.profiles],
    }


def stratum_to_data(stratum: Stratum) -> Dict:
    return {
        "name": stratum.name,
        "anchor_chi": list(stratum.fingerprint.chi),
        "sizes": [[p, k] for p, k in stratum.sizes],
        "window": list(stratum.window),
        "validation": list(stratum.validation),
        "polynomial": polynomial_to_data(stratum.polynomial),
        "chi_proj": stratum.chi_proj,
    }


def report_to_data(report: VerificationReport) -> Dict:
    return {
        "method": report.method,
        "ext1_dim": report.ext1_dim,
        "passed": report.passed,
        "words": [list(w) for w in report.words],
        "left": list(report.left_values),
        "right": list(report.right_values),
        "mismatches": [list(w) for w in report.mismatches()],
        "strata_fwd": [stratum_to_data(s) for s in report.strata_fwd],
        "strata_bwd": [stratum_to_data(s) for s in report.strata_bwd],
        "primes_used": list(report.primes_used),
        "elapsed": report.elapsed,
    }
