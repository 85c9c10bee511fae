"""Command line front end.

Every subcommand reads self-contained module files (see serialize) and
prints either a human table or canonical JSON; the JSON is the stable
contract.  Exit codes: 0 for pass/valid, 1 for a mathematical failure,
2 for usage and file problems, 3 when counting or stratification aborts
(no polynomial fit, an unanchored stratum, colliding anchors, or too
few primes).
"""

import argparse
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import d4
from .fields import is_prime
from .flags import (
    DeltaFingerprint,
    InsufficientPrimes,
    NonPolynomialCount,
    euler_characteristic,
    fingerprint,
)
from .homext import dimension_checks
from .module import LambdaModule, validate
from .serialize import (
    FormatError,
    dimensions_to_data,
    dumps_canonical,
    fingerprint_to_data,
    load_module,
    profile_to_data,
    report_to_data,
    validation_to_data,
)
from .verify import (
    AnchorCollision,
    UnanchoredStratum,
    VerificationReport,
    _chi_sum,
    verify_thm_1_1,
    verify_thm_1_2,
)

ABORT_ERRORS = (
    NonPolynomialCount,
    UnanchoredStratum,
    AnchorCollision,
    InsufficientPrimes,
)


def _parse_primes(text: str) -> List[int]:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        try:
            p = int(piece)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{piece!r} is not an integer")
        if not is_prime(p):
            raise argparse.ArgumentTypeError(f"{p} is not prime")
        if p in out:
            raise argparse.ArgumentTypeError(f"prime {p} is repeated")
        out.append(p)
    return out


def _parse_word(text: str) -> Tuple[str, ...]:
    if not text.strip():
        return ()
    return tuple(piece.strip() for piece in text.split(","))


def _parse_coeffs(text: str) -> Tuple[int, ...]:
    try:
        out = tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("coefficients must be integers")
    if any(c < 0 for c in out):
        raise argparse.ArgumentTypeError("coefficients must be nonnegative")
    return out


def _parse_lambda(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational number")


def _emit(args, data: Dict, lines: List[str]) -> None:
    if args.format == "json":
        sys.stdout.write(dumps_canonical(data))
    else:
        print("\n".join(lines))


def _load_named(path, fallback_stem: bool = True) -> Tuple[str, LambdaModule]:
    name, m = load_module(path)
    if name is None and fallback_stem:
        base = str(path).rsplit("/", 1)[-1]
        name = base[:-5] if base.endswith(".json") else base
    return name, m


def _load_anchors(paths: Sequence[str]) -> Dict[str, LambdaModule]:
    anchors: Dict[str, LambdaModule] = {}
    for path in paths:
        name, m = _load_named(path)
        if name in anchors:
            raise FormatError(f"duplicate anchor name {name!r}")
        anchors[name] = m
    return anchors


def _poly_str(poly) -> str:
    terms = []
    for k in range(len(poly.coeffs) - 1, -1, -1):
        c = poly.coeffs[k]
        if c == 0:
            continue
        if k == 0:
            var = ""
        elif k == 1:
            var = "p"
        else:
            var = f"p^{k}"
        mag = abs(c)
        body = var if (mag == 1 and var) else (f"{mag}*{var}" if var else str(mag))
        terms.append(("- " if c < 0 else "+ ") + body)
    if not terms:
        return "0"
    head = terms[0].replace("+ ", "", 1).replace("- ", "-", 1)
    return " ".join([head] + terms[1:])


def cmd_validate(args) -> int:
    name, m = _load_named(args.module, fallback_stem=False)
    report = validate(m)
    data = validation_to_data(report)
    data["dim"] = {v: m.dim_of(v) for v in m.quiver.vertices}
    if name:
        data["name"] = name
    lines = []
    label = name or str(args.module)
    if report.residuals:
        verts = ", ".join(v for v, _ in report.residuals)
        lines.append(f"{label}: relation fails at vertex {verts}")
    else:
        lines.append(f"{label}: relations hold")
    if report.nilpotent:
        lines.append(f"{label}: nilpotent")
    else:
        lines.append(f"{label}: not nilpotent")
    _emit(args, data, lines)
    return 0 if report.ok else 1


def cmd_ext(args) -> int:
    _, m = _load_named(args.module_a)
    _, n = _load_named(args.module_b)
    report = dimension_checks(m, n)
    data = dimensions_to_data(report)
    lines = [
        f"hom(M,N)   {report.hom_mn}",
        f"hom(N,M)   {report.hom_nm}",
        f"ext1(M,N)  {report.ext1_mn}",
        f"ext1(N,M)  {report.ext1_nm}",
        f"ext2       {report.ext2_cokernel}"
        + ("" if report.ext2_exact else " (cokernel only, not exact)"),
        f"form       {report.form}",
        f"checks     {'ok' if report.ok else 'FAILED'}",
    ]
    _emit(args, data, lines)
    return 0 if report.ok else 1


def cmd_euler(args) -> int:
    _, m = _load_named(args.module)
    profile = euler_characteristic(
        m, args.word, coeffs=args.coeffs, prime_list=args.primes
    )
    data = profile_to_data(profile)
    lines = [
        f"word        {','.join(profile.word) or '(empty)'}",
        f"coeffs      {','.join(str(c) for c in profile.coeffs) or '(none)'}",
        f"euler       {profile.euler}",
        f"polynomial  {_poly_str(profile.polynomial)}",
        f"window      {', '.join(str(p) for p in profile.window)}",
        f"validation  {', '.join(str(p) for p in profile.validation)}",
        "samples     "
        + " ".join(f"{p}:{c}" for p, c in profile.samples),
    ]
    _emit(args, data, lines)
    return 0


def _fingerprint_lines(fp: DeltaFingerprint) -> List[str]:
    dims = ",".join(str(d) for d in fp.dim)
    lines = [f"dim ({dims}), {len(fp.words)} words"]
    for word, chi in zip(fp.words, fp.chi):
        lines.append(f"  {','.join(word)}  {chi}")
    return lines


def cmd_fingerprint(args) -> int:
    _, m = _load_named(args.module)
    fp = fingerprint(m, prime_list=args.primes)
    data = fingerprint_to_data(fp)
    _emit(args, data, _fingerprint_lines(fp))
    return 0


def _report_lines(rep: VerificationReport) -> List[str]:
    lines = [
        f"method     {rep.method}",
        f"ext1       {rep.ext1_dim}",
        f"words      {len(rep.words)}",
    ]
    for label, strata in (("fwd", rep.strata_fwd), ("bwd", rep.strata_bwd)):
        if strata:
            table = ", ".join(f"{s.name} {s.chi_proj}" for s in strata)
            lines.append(f"strata {label} {table}")
    for word in rep.mismatches():
        k = rep.words.index(word)
        lines.append(
            f"  mismatch {','.join(word)}: "
            f"left {rep.left_values[k]} right {rep.right_values[k]}"
        )
    lines.append(f"primes     {', '.join(str(p) for p in rep.primes_used)}")
    lines.append(f"elapsed    {rep.elapsed:.2f}s")
    lines.append("result     " + ("PASS" if rep.passed else "FAIL"))
    return lines


def cmd_verify(args) -> int:
    _, m = _load_named(args.module_a)
    _, n = _load_named(args.module_b)
    if args.thm == "1.2":
        rep = verify_thm_1_2(m, n, prime_list=args.primes)
    else:
        if not args.anchors_fwd or not args.anchors_bwd:
            raise FormatError(
                "verify --thm 1.1 needs --anchors-fwd and --anchors-bwd"
            )
        rep = verify_thm_1_1(
            m,
            n,
            _load_anchors(args.anchors_fwd),
            _load_anchors(args.anchors_bwd),
            prime_list=args.primes,
        )
    _emit(args, report_to_data(rep), _report_lines(rep))
    return 0 if rep.passed else 1


_IDENTITIES = (
    ("M(0)", "M(lam)", "H"),
    ("M(-1)", "M(lam)", "F"),
    ("M(inf)", "M(lam)", "G"),
    ("A", "R", "F"),
    ("B", "R", "G"),
    ("C", "R", "H"),
)

_EXPANSION = ("M(lam)", "R", "F", "G", "H")


def cmd_example_d4(args) -> int:
    try:
        zoo = d4.zoo(args.lam)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    m_anchors = {k: zoo[k] for k in ("M(lam)", "M(0)", "M(-1)", "M(inf)")}
    r_anchors = {k: zoo[k] for k in ("R", "A", "B", "C")}
    # F, G and H have the direct sum's dimension vector: one count memo
    # serves them and the whole verification
    memo: Dict = {}
    rep = verify_thm_1_1(
        zoo["S4"], zoo["T"], m_anchors, r_anchors,
        prime_list=args.primes, memo=memo,
    )
    fps = {s.name: s.fingerprint for s in rep.strata_fwd + rep.strata_bwd}
    for extra in ("F", "G", "H"):
        fps[extra] = fingerprint(zoo[extra], prime_list=args.primes, memo=memo)
    words = rep.words
    lines = [f"worked example at lambda = {args.lam}", ""]
    data: Dict = {"lambda": str(args.lam), "identities": [], "passed": True}
    lines.append(f"fingerprint identities over {len(words)} words")
    all_ok = True
    for total_name, generic_name, extra_name in _IDENTITIES:
        terms = [(1, fps[total_name]), (-1, fps[generic_name]), (-1, fps[extra_name])]
        ok = not any(_chi_sum(terms, words))
        all_ok = all_ok and ok
        text = f"delta_{total_name} = delta_{generic_name} + delta_{extra_name}"
        lines.append(f"  {text}    {'ok' if ok else 'FAILED'}")
        data["identities"].append({"identity": text, "ok": ok})
    lines.append("")
    lines.append("pairwise identity for (S4, T)")
    for label, strata in (("S4, T", rep.strata_fwd), ("T, S4", rep.strata_bwd)):
        table = ", ".join(f"{s.name} {s.chi_proj}" for s in strata)
        lines.append(f"  strata of P Ext^1({label}): {table}")
    lines.append(
        "  2 * delta_{T + S4} = sum of both brackets    "
        + ("ok" if rep.passed else "FAILED")
    )
    all_ok = all_ok and rep.passed
    data["pairwise"] = report_to_data(rep)
    total_chi = tuple(v // rep.ext1_dim for v in rep.left_values)
    expansion = _chi_sum([(1, fps[name]) for name in _EXPANSION], words)
    exp_ok = total_chi == expansion
    all_ok = all_ok and exp_ok
    lines.append("")
    text = "delta_T * delta_S4 = " + " + ".join(f"delta_{n}" for n in _EXPANSION)
    lines.append("expansion")
    lines.append(f"  {text}    {'ok' if exp_ok else 'FAILED'}")
    data["expansion"] = {
        "identity": text,
        "ok": exp_ok,
        "left": list(total_chi),
        "right": list(expansion),
    }
    data["passed"] = all_ok
    _emit(args, data, lines)
    return 0 if all_ok else 1


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--primes",
        type=_parse_primes,
        default=None,
        metavar="P1,P2,...",
        help="override the primes used for counting",
    )
    common.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="output format (default table)",
    )
    parser = argparse.ArgumentParser(
        prog="preproj",
        description="Exact computations with nilpotent modules over "
        "preprojective algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "validate", parents=[common],
        help="check the relations and nilpotency of a module file",
    )
    p.add_argument("module")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "ext", parents=[common],
        help="Hom/Ext dimensions and the dimension formulas for a pair",
    )
    p.add_argument("module_a")
    p.add_argument("module_b")
    p.set_defaults(func=cmd_ext)

    p = sub.add_parser(
        "euler", parents=[common],
        help="Euler characteristic of one composition series variety",
    )
    p.add_argument("module")
    p.add_argument("--word", type=_parse_word, required=True, metavar="I1,I2,...")
    p.add_argument("--coeffs", type=_parse_coeffs, default=None, metavar="C1,C2,...")
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser(
        "fingerprint", parents=[common],
        help="Euler characteristics over every word with the module's content",
    )
    p.add_argument("module")
    p.set_defaults(func=cmd_fingerprint)

    p = sub.add_parser(
        "verify", parents=[common],
        help="verify a multiplication identity for a module pair",
    )
    p.add_argument("--thm", choices=("1.1", "1.2"), required=True)
    p.add_argument("module_a")
    p.add_argument("module_b")
    p.add_argument(
        "--anchors-fwd", nargs="+", default=None, metavar="FILE",
        help="anchor module files for Ext^1(A, B) strata",
    )
    p.add_argument(
        "--anchors-bwd", nargs="+", default=None, metavar="FILE",
        help="anchor module files for Ext^1(B, A) strata",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "example-d4", parents=[common],
        help="reproduce the bundled star-quiver worked example",
    )
    p.add_argument(
        "--lambda", dest="lam", type=_parse_lambda, default=Fraction(1),
        metavar="R", help="generic family parameter (not 0 or -1)",
    )
    p.set_defaults(func=cmd_example_d4)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ABORT_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
