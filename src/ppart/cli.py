"""Command-line front end.

Every command reads a poset file, prints one deterministic JSON document
to stdout, and maps failures to exit codes: 1 usage, 2 input or output
(`errors.InputError`, OSError), 4 size cap (`errors.CapError`), 3 any
other `errors.PPartError`.  Timing goes to stderr so stdout stays
byte-stable.

Stdout is byte for byte `json.dumps(doc, indent=2, sort_keys=True) + "\\n"`,
written in pieces by `_emit`: with `indent`, json encodes in pure Python
and writes once per token, so `_json` builds the same text from json's
C string escaper, `int.__repr__` and joins, and `_write` sends it out a
member at a time where a document or a listing is large.
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
from .extensions import DEFAULT_CAP, linear_extensions, maj_coefficients, maj_polynomial
from .partitions import FLAVORS, STANDARD, WEAK, count_by_size, delta_data
from .poset import (
    _decimal,
    connected_ideals,
    count_ideals,
    is_naturally_labelled,
    members,
    nontrivial_pairs,
    parse_poset,
)
from .presentation import hibi_check, presentation_of, semigroup_ideal
from .qpoly import QPolynomial, _q_product
from .series import (
    DEFAULT_TRUNC,
    _koszul_walk,
    _stanley_q,
    duplication_product,
    hilbert_truncated,
    hook_count,
    hook_formula,
    initial_quotient_hilbert,
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


_escape = json.encoder.encode_basestring_ascii  # json's own, under ensure_ascii
_FLAT = {int: int.__repr__, str: _escape}  # list items written by one C-level map
_LONG = 1000  # more members than this are written one by one at any depth


def _json(o, pad):
    """o as `json.dumps(o, indent=2, sort_keys=True)` writes it, with pad
    ("\\n" and the indentation of o's line) at the start of each line after
    the first.  Exact types only: anything else, a float, a dict with a
    non-str key, or a subclass such as a NamedTuple or an IntEnum, is left
    to json itself.  Its text holds no raw newline, since a string escapes
    its own, so re-indenting it is one replace."""
    t = type(o)
    if t is str:
        return _escape(o)
    if t is int:
        return int.__repr__(o)
    if o is None:
        return "null"
    if t is bool:
        return "true" if o else "false"
    if t is list or t is tuple:
        if not o:
            return "[]"
        inner = pad + "  "
        kinds = {*map(type, o)}
        flat = _FLAT.get(kinds.pop()) if len(kinds) == 1 else None
        items = map(flat, o) if flat else [_json(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if t is dict:
        if not o:
            return "{}"
        if {*map(type, o)} == {str}:
            inner = pad + "  "
            return "{" + inner + ("," + inner).join(
                [_escape(k) + ": " + _json(v, inner) for k, v in sorted(o.items())]
            ) + pad + "}"
    return json.dumps(o, indent=2, sort_keys=True).replace("\n", pad)


def _write(write, o, pad, depth):
    """Write _json(o, pad) in pieces: a non-empty list, tuple or dict with
    str keys writes each member on its own down to depth levels, and
    below them when it has more than _LONG members, so the whole text of
    a large document or listing is never held at once."""
    t = type(o)
    items = None
    if (t is list or t is tuple or t is dict) and o and (depth > 0 or len(o) > _LONG):
        if t is not dict:
            brackets, items = "[]", (("", v) for v in o)
        elif {*map(type, o)} == {str}:
            brackets, items = "{}", [(_escape(k) + ": ", v) for k, v in sorted(o.items())]
    if items is None:
        write(_json(o, pad))
        return
    inner = pad + "  "
    opening = brackets[0]
    for key, v in items:
        write(opening + inner + key)
        _write(write, v, inner, depth - 1)
        opening = ","
    write(pad + brackets[1])


def _emit(command, digest, payload):
    doc = {
        "schema": SCHEMA,
        "command": command,
        "input_sha256": digest,
        "results": payload,
    }
    _write(sys.stdout.write, doc, "\n", 3)  # down to each member of a result
    sys.stdout.write("\n")
    sys.stdout.flush()  # a closed stdout fails here, inside main's error mapping


def _cmd_analyze(P, args):
    dd = delta_data(P)
    return {
        "n": P.n,
        "covers": sorted(P.covers),
        "ideal_count": count_ideals(P),
        "connected_ideals": [members(J) for J in connected_ideals(P)],
        "nontrivial_pairs": [
            [members(p.j1), members(p.j2)] for p in nontrivial_pairs(P)
        ],
        "naturally_labelled": is_naturally_labelled(P),
        "delta": dd.delta,
        "delta_chain_condition": dd.satisfies_labelled_condition,
        "maj_p": dd.maj_p,
        "ci_counts": ci_test_counts(P),
        "ci_ideals": ci_test_ideals(P),
    }


def _cmd_extensions(P, args):
    maj = maj_polynomial(P, cap=args.cap).coeffs
    out = {"count": sum(maj), "maj_polynomial": maj}  # |L(P)| is W(1)
    if args.list:
        out["extensions"] = [
            {
                "w": e.w,
                "des": e.des_set,
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
    if not is_naturally_labelled(P):
        return {"count": hook_count(P), "q_polynomial": None}
    q = hook_formula(P).coeffs
    return {"count": sum(q), "q_polynomial": q}  # |L(P)| is W(1)


def _cmd_hilbert(P, args):
    series = hilbert_truncated(P, args.flavor, args.grading, args.trunc)
    return {
        "flavor": args.flavor,
        "grading": args.grading,
        "series": series.to_json(),
        "pretty": repr(series),
    }


def _cmd_presentation(P, args):
    sg = semigroup_ideal(P, cap=args.cap)  # the |L(P)| cap trips before Pi is listed
    pres = presentation_of(P)
    toric, graded, initial = families = pres.rendered()
    text = pres.export(args.format, families)
    if args.out:  # written after the cap check, so a capped run leaves no file
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return {
        "format": args.format,
        "export": text,
        "written_to": args.out or None,
        "toric": toric,
        "graded": graded,
        "initial": initial,
        "graded_iso": pres.graded_iso,
        "hibi": hibi_check(P),
        "semigroup": {
            "generators": sg.generators,
            "principal": sg.principal,
        },
    }


def _cmd_complex(P, args):
    report = forest_consistency(P, cap=args.complex_cap)
    return {
        "complex": report.complex.to_json(),
        "p_forests": [parent for parent, _ in report.terms],
        "consistency": report.to_json(),
    }


def _cmd_selftest(P, args):
    N = min(args.trunc, 8)
    recipe = classify(P)
    fwd = isinstance(recipe, BuildRecipe)
    natural = is_naturally_labelled(P)
    maj = functools.cache(lambda: maj_polynomial(P, cap=args.cap))

    def maj_vs_standard():
        W = maj()
        # The standard vectors counted by |f| through their chains of
        # level ideals, not by hilbert_truncated (which computes them
        # from maj), times (1 - q)(1 - q^2)...(1 - q^n), up to the
        # degree of maj.
        c = _q_product(count_by_size(P, STANDARD, W.degree), times=range(1, P.n + 1))
        return tuple(c) == W.coeffs

    # (name, applies, check): a row that does not apply passes unrun.  A
    # formula that maj() or a series takes is checked against a named walk.
    table = [
        ("maj_equals_standard_series", natural, maj_vs_standard),
        ("duplication_product_equals_enumeration", fwd,
         lambda: duplication_product(P, recipe, "q", N).coeffs == _stanley_q(P, WEAK, N)),
        ("hook_equals_maj", fwd and natural,
         lambda: maj() == QPolynomial(maj_coefficients(P, P.n * (P.n - 1) // 2))),
        ("ci_tests_agree", True, lambda: ci_test_counts(P) == ci_test_ideals(P)),
        ("initial_quotient_hilbert", True,
         lambda: initial_quotient_hilbert(P, "x", N) == hilbert_truncated(P, WEAK, "x", N)),
        ("koszul_inverse_nonnegative", True, lambda: _koszul_walk(P, N)[1]),
        ("forest_counts", True, lambda: forest_consistency(P, cap=args.complex_cap).ok),
    ]
    checks = []
    for name, applies, check in table:
        started = time.monotonic()
        try:
            status = "pass" if not applies or check() else "fail"
        except errors.CapError:
            status = "skipped"
        print(f"{status:>7}  {name}  {time.monotonic() - started:.3f}s", file=sys.stderr)
        checks.append({"name": name, "status": status})
    ok = all(c["status"] != "fail" for c in checks)
    return {"identities": checks, "ok": ok}


def _count(text):
    """argparse type of --trunc and the caps: an integer >= 0, in ASCII decimal."""
    try:
        return _decimal(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}") from None


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
