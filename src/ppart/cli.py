"""Command-line front end.

Every command reads a poset file, prints one deterministic JSON document
to stdout, and maps failures to exit codes: 1 usage, 2 parse/validation,
3 domain precondition, 4 cap/explosion.  Timing goes to stderr so stdout
stays byte-stable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from .complexes import DEFAULT_VERTEX_CAP, delta_complex, forest_consistency, p_forests
from .errors import (
    ArgError,
    CapError,
    CycleError,
    ExplosionError,
    FlavorError,
    InstabilityError,
    LabelError,
    NotFWDError,
    PosetSyntaxError,
    RangeError,
    RemainderError,
)
from .extensions import DEFAULT_CAP, count_extensions, linear_extensions, maj_polynomial
from .partitions import STANDARD, WEAK, delta_data
from .poset import (
    connected_ideals,
    is_naturally_labelled,
    iter_ideals,
    members,
    nontrivial_pairs,
    parse_poset,
)
from .presentation import (
    export,
    graded_generators,
    hibi_check,
    initial_generators,
    is_graded_iso,
    semigroup_ideal,
    toric_generators,
)
from .series import (
    DEFAULT_TRUNC,
    duplication_product,
    hilbert_truncated,
    hook_count,
    hook_formula,
    initial_quotient_hilbert,
    koszul_inverse,
)
from .structure import BuildRecipe, ci_test_counts, ci_test_ideals, classify

SCHEMA = "ppart/1"

_PARSE_ERRORS = (PosetSyntaxError, CycleError, RangeError)
_DOMAIN_ERRORS = (
    NotFWDError,
    LabelError,
    FlavorError,
    RemainderError,
    InstabilityError,
    ArgError,
)
_CAP_ERRORS = (ExplosionError, CapError)


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise PosetSyntaxError(
                f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
            ) from None
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return parse_poset(text), digest


def _emit(command, digest, payload):
    doc = {
        "schema": SCHEMA,
        "command": command,
        "input_sha256": digest,
        "results": payload,
    }
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _qpoly_json(poly):
    return list(poly.coeffs)


def _cmd_analyze(P, args):
    dd = delta_data(P)
    return {
        "n": P.n,
        "covers": [list(c) for c in sorted(P.covers)],
        "ideal_count": sum(1 for _ in iter_ideals(P)),
        "connected_ideals": [members(J) for J in connected_ideals(P)],
        "nontrivial_pairs": [
            [members(p.j1), members(p.j2)] for p in nontrivial_pairs(P)
        ],
        "naturally_labelled": is_naturally_labelled(P),
        "delta": list(dd.delta),
        "delta_chain_condition": dd.satisfies_labelled_condition,
        "maj_p": dd.maj_p,
        "ci_counts": ci_test_counts(P),
        "ci_ideals": ci_test_ideals(P),
    }


def _cmd_extensions(P, args):
    out = {
        "count": count_extensions(P),
        "maj_polynomial": _qpoly_json(maj_polynomial(P, cap=args.cap)),
    }
    if args.list:
        out["extensions"] = [
            {
                "w": list(e.w),
                "des": list(e.des_set),
                "maj": e.maj,
                "des_p": e.des_p,
            }
            for e in linear_extensions(P, cap=args.cap)
        ]
    return out


def _cmd_classify(P, args):
    result = classify(P)
    payload = {
        "ci_counts": ci_test_counts(P),
        "ci_ideals": ci_test_ideals(P),
        "is_fwd": isinstance(result, BuildRecipe),
        "result": result.to_json(),
    }
    return payload


def _cmd_hook(P, args):
    out = {"count": hook_count(P)}
    if is_naturally_labelled(P):
        out["q_polynomial"] = _qpoly_json(hook_formula(P, cap=args.cap))
    else:
        out["q_polynomial"] = None
    return out


def _cmd_hilbert(P, args):
    series = hilbert_truncated(P, args.flavor, args.grading, args.trunc)
    return {
        "flavor": args.flavor,
        "grading": args.grading,
        "series": series.to_json(),
        "pretty": repr(series),
    }


def _cmd_presentation(P, args):
    wide = P.n > 9
    text = export(P, args.format)
    out_path = None
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        out_path = args.out
    sg = semigroup_ideal(P, cap=args.cap)
    return {
        "format": args.format,
        "export": text,
        "written_to": out_path,
        "toric": [g.render(wide) for g in toric_generators(P)],
        "graded": [g.render(wide) for g in graded_generators(P)],
        "initial": [g.render(wide) for g in initial_generators(P)],
        "graded_iso": is_graded_iso(P),
        "hibi": hibi_check(P),
        "semigroup": {
            "generators": [list(g) for g in sg.generators],
            "principal": list(sg.principal) if sg.principal is not None else None,
        },
    }


def _cmd_complex(P, args):
    complex_ = delta_complex(P, cap=args.complex_cap)
    forests = p_forests(P, cap=args.complex_cap)
    report = forest_consistency(P, cap=args.complex_cap)
    return {
        "complex": complex_.to_json(),
        "p_forests": [list(f.parent) for f in forests],
        "consistency": report.to_json(),
    }


def _cmd_selftest(P, args):
    N = min(args.trunc, 8)
    checks = []

    def record(name, fn):
        try:
            ok = bool(fn())
        except _CAP_ERRORS:
            checks.append({"name": name, "status": "skipped"})
            return
        checks.append({"name": name, "status": "pass" if ok else "fail"})

    def maj_vs_standard():
        if not is_naturally_labelled(P):
            return True
        mp = maj_polynomial(P, cap=args.cap)
        # Only degrees <= mp.degree of the product are compared.
        h = hilbert_truncated(P, STANDARD, "q", mp.degree)
        prod = h.one_like()
        for i in range(1, P.n + 1):
            prod = prod * h.one_minus(0, (i,))
        lhs = prod * h
        return all(lhs.coeffs.get((0, (d,)), 0) == mp[d] for d in range(mp.degree + 1))

    def thm42():
        result = classify(P)
        if not isinstance(result, BuildRecipe):
            return True
        return duplication_product(P, result, "q", N) == hilbert_truncated(
            P, WEAK, "q", N
        )

    def hook_vs_maj():
        result = classify(P)
        if not isinstance(result, BuildRecipe) or not is_naturally_labelled(P):
            return True
        return hook_formula(P, cap=args.cap) == maj_polynomial(P, cap=args.cap)

    def ci_agreement():
        return ci_test_counts(P) == ci_test_ideals(P)

    def initial_hilbert():
        return initial_quotient_hilbert(P, "x", N) == hilbert_truncated(
            P, WEAK, "x", N
        )

    def koszul():
        return koszul_inverse(P, N)[1]

    def forests():
        return forest_consistency(P, cap=args.complex_cap).ok

    record("maj_equals_standard_series", maj_vs_standard)
    record("duplication_product_equals_enumeration", thm42)
    record("hook_equals_maj", hook_vs_maj)
    record("ci_tests_agree", ci_agreement)
    record("initial_quotient_hilbert", initial_hilbert)
    record("koszul_inverse_nonnegative", koszul)
    record("forest_counts", forests)
    for c in checks:
        print(f"{c['status']:>7}  {c['name']}", file=sys.stderr)
    ok = all(c["status"] != "fail" for c in checks)
    return {"identities": checks, "ok": ok}


_COMMANDS = {
    "analyze": _cmd_analyze,
    "extensions": _cmd_extensions,
    "classify": _cmd_classify,
    "hook": _cmd_hook,
    "hilbert": _cmd_hilbert,
    "presentation": _cmd_presentation,
    "complex": _cmd_complex,
    "selftest": _cmd_selftest,
}


def _count(text):
    """argparse type of --trunc and the caps: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ppart",
        description="Poset partition toolkit: statistics, series, presentations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("poset", help="path to a .poset file")
        p.add_argument("--trunc", type=_count, default=DEFAULT_TRUNC,
                       help="series truncation order")
        p.add_argument("--cap", type=_count, default=DEFAULT_CAP,
                       help="linear extension enumeration cap")
        p.add_argument("--complex-cap", type=_count, default=DEFAULT_VERTEX_CAP,
                       help="vertex cap for the flag complex")
        if name == "extensions":
            p.add_argument("--list", action="store_true",
                           help="include every extension in the output")
        if name == "hilbert":
            p.add_argument("--flavor", default=WEAK,
                           choices=["weak", "standard", "strict"])
            p.add_argument("--grading", default="q")
        if name == "presentation":
            p.add_argument("--format", default="text", choices=["text", "m2"])
            p.add_argument("--out", default=None,
                           help="also write the export to this file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    started = time.monotonic()
    try:
        P, digest = _load(args.poset)
        payload = _COMMANDS[args.command](P, args)
    except (OSError,) + _PARSE_ERRORS as exc:  # OSError: unreadable input or --out
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _DOMAIN_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except _CAP_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    _emit(args.command, digest, payload)
    print(f"elapsed: {time.monotonic() - started:.3f}s", file=sys.stderr)
    if args.command == "selftest" and not payload["ok"]:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
