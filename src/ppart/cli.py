"""Command-line front end.

Every command reads a poset file, prints one deterministic JSON document
to stdout, and maps failures to exit codes: 1 usage, 2 input or output
(`errors.InputError`, OSError), 4 size cap (`errors.CapError`), 3 any
other `errors.PPartError`.  Timing goes to stderr so stdout stays
byte-stable.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time

from . import errors
from .complexes import DEFAULT_VERTEX_CAP, forest_consistency
from .extensions import DEFAULT_CAP, count_extensions, linear_extensions, maj_polynomial
from .partitions import FLAVORS, STANDARD, WEAK, delta_data, enumerate_partitions
from .poset import (
    connected_ideals,
    count_ideals,
    is_naturally_labelled,
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
    normalize_grading,
)
from .structure import BuildRecipe, ci_test_counts, ci_test_ideals, classify

SCHEMA = "ppart/1"


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise errors.PosetSyntaxError(
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
    sys.stdout.flush()  # a closed stdout fails here, inside main's error mapping


def _qpoly_json(poly):
    return list(poly.coeffs)


def _cmd_analyze(P, args):
    dd = delta_data(P)
    return {
        "n": P.n,
        "covers": [list(c) for c in sorted(P.covers)],
        "ideal_count": count_ideals(P),
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
        out["q_polynomial"] = _qpoly_json(hook_formula(P))
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
    report = forest_consistency(P, cap=args.complex_cap)
    return {
        "complex": report.complex.to_json(),
        "p_forests": [list(parent) for parent, _ in report.terms],
        "consistency": report.to_json(),
    }


def _cmd_selftest(P, args):
    N = min(args.trunc, 8)
    checks = []
    seconds = []  # per check, for stderr only

    def record(name, fn):
        started = time.monotonic()
        try:
            status = "pass" if fn() else "fail"
        except errors.CapError:
            status = "skipped"
        seconds.append(time.monotonic() - started)
        checks.append({"name": name, "status": status})

    def maj_vs_standard():
        if not is_naturally_labelled(P):
            return True
        mp = maj_polynomial(P, cap=args.cap)
        # The standard vectors counted by |f| directly, not by
        # hilbert_truncated (which computes them from maj), times
        # (1 - q)(1 - q^2)...(1 - q^n), up to the degree of maj.
        c = [0] * (mp.degree + 1)
        for f in enumerate_partitions(P, STANDARD, mp.degree):
            c[sum(f)] += 1
        for i in range(1, P.n + 1):
            for d in range(mp.degree, i - 1, -1):
                c[d] -= c[d - i]
        return tuple(c) == mp.coeffs

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
        return hook_formula(P) == maj_polynomial(P, cap=args.cap)

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
    for c, elapsed in zip(checks, seconds):
        print(f"{c['status']:>7}  {c['name']}  {elapsed:.3f}s", file=sys.stderr)
    ok = all(c["status"] != "fail" for c in checks)
    return {"identities": checks, "ok": ok}


def _count(text):
    """argparse type of --trunc and the caps: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def _grading(text):
    """argparse type of --grading: a name `normalize_grading` accepts,
    kept as written because the output echoes it."""
    try:
        normalize_grading(text)
    except errors.ArgError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


_OPTIONS = {
    "--trunc": dict(type=_count, default=DEFAULT_TRUNC,
                    help="series truncation order"),
    "--cap": dict(type=_count, default=DEFAULT_CAP,
                  help="linear extension enumeration cap"),
    "--complex-cap": dict(type=_count, default=DEFAULT_VERTEX_CAP,
                          help="vertex cap for the flag complex"),
    "--list": dict(action="store_true",
                   help="include every extension in the output"),
    "--flavor": dict(default=WEAK, choices=FLAVORS),
    "--grading": dict(type=_grading, default="q"),
    "--format": dict(default="text", choices=["text", "m2"]),
    "--out": dict(default=None, help="also write the export to this file"),
}

# Each command's handler and the options that handler reads.
_COMMANDS = {
    "analyze": (_cmd_analyze, ()),
    "extensions": (_cmd_extensions, ("--cap", "--list")),
    "classify": (_cmd_classify, ()),
    "hook": (_cmd_hook, ()),
    "hilbert": (_cmd_hilbert, ("--trunc", "--flavor", "--grading")),
    "presentation": (_cmd_presentation, ("--cap", "--format", "--out")),
    "complex": (_cmd_complex, ("--complex-cap",)),
    "selftest": (_cmd_selftest, ("--trunc", "--cap", "--complex-cap")),
}


@functools.cache
def build_parser():
    """The argument parser, built on first use and kept for the process:
    parsing leaves it unchanged, and `main` looks each handler up in
    `_COMMANDS` when it runs."""
    parser = argparse.ArgumentParser(
        prog="ppart",
        description="Poset partition toolkit: statistics, series, presentations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("poset", help="path to a .poset file")
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    started = time.monotonic()
    try:
        P, digest = _load(args.poset)
        payload = _COMMANDS[args.command][0](P, args)
        _emit(args.command, digest, payload)
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's final flush of the
        # unwritten output does not fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output was written",
              file=sys.stderr)
        return 2
    except (OSError, errors.InputError) as exc:  # OSError: unreadable input or --out
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except errors.CapError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except errors.PPartError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    print(f"elapsed: {time.monotonic() - started:.3f}s", file=sys.stderr)
    if args.command == "selftest" and not payload["ok"]:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
