"""Command-line interface: counting, enumeration, catalogue, verification, export.

Exit status: 0 when every check passes, 1 when a mathematical verdict
fails, 2 on usage or input errors.  Each command imports the layers it
runs, so ``count`` loads no nerve and a verdict loads no other presentation.
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalan import DEFAULT_COUNT_BOUND, HARD_LEVEL_BOUND
from .errors import CatalanSetError

EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2
# enumerate and export hold the whole level; level 12 peaks at about 98 MB
# and each level above it is about four times larger
HELD_LEVEL_BOUND = 12
# verify-identities checks every identity on every simplex up to its level:
# a nerve stops at its default top level, 4 (chain3-min at level 5 ran past
# 150 s and 361 MB); the Catalan set at 8 (about 6 s; level 9 takes 38 s)
NERVE_IDENTITY_BOUND = 4
CATALAN_IDENTITY_BOUND = 8
# order-probe at level 6 takes about 0.4 s and 26 MB cold, at level 7 about
# 3 s and 91 MB (one Xeon core)
ORDER_PROBE_BOUND = 6


def _level_arg(parser: argparse.ArgumentParser, value: str, ceiling: int = HARD_LEVEL_BOUND) -> int:
    try:
        n = int(value)
    except ValueError:
        parser.error(f"level {value!r} is not an integer")
    if n < 0 or n > ceiling:
        parser.error(f"level {n} outside 0..{ceiling}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catalan-sset",
        description="Counting, catalogue and classification checks for the Catalan simplicial set.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("count", help="level counts against the closed-form references")
    p.add_argument("--max-n", default=str(DEFAULT_COUNT_BOUND))
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("enumerate", help="print one level in canonical order")
    p.add_argument("--n", required=True)

    sub.add_parser("catalogue", help="print the named simplices and verify them")

    p = sub.add_parser("verify-identities", help="simplicial identity harness")
    p.add_argument("--input", help="run on the nerve of this input instead of the Catalan set")
    p.add_argument("--max-n", default=None)

    for verb, text in (
        ("verify-theorem", "maps out of the Catalan set vs internal structures"),
        ("verify-monads", "maps into a plain nerve vs monads"),
    ):
        p = sub.add_parser(verb, help=text)
        p.add_argument("--input", required=True)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output")

    p = sub.add_parser("order-probe", help="inclusion and rotation order preservation")
    p.add_argument("--n", default="3")

    p = sub.add_parser("export", help="write a level as deterministic JSON")
    p.add_argument("--what", choices=("catalan",), default="catalan")
    p.add_argument("--n", required=True)
    p.add_argument("--output", required=True)

    return parser


def _cmd_count(args, parser) -> int:
    from . import tamari
    from .catalan import level_count, nondegenerate_count, reference_counts

    max_n = _level_arg(parser, args.max_n)
    cat_ref, motzkin_ref = reference_counts(max_n)
    rows = []
    all_ok = True
    for n in range(max_n + 1):
        enumerated = level_count(n)
        nondeg = nondegenerate_count(n)
        paths = tamari.dyck_crosscheck(n)
        ok = enumerated == cat_ref[n] == paths and nondeg == motzkin_ref[n]
        all_ok = all_ok and ok
        rows.append((n, enumerated, cat_ref[n], paths, nondeg, motzkin_ref[n], ok))
    if args.format == "json":
        doc = [
            {
                "n": n,
                "simplices": enum,
                "catalan": ref,
                "paths": paths,
                "nondegenerate": nd,
                "motzkin": mref,
                "match": ok,
            }
            for (n, enum, ref, paths, nd, mref, ok) in rows
        ]
        print(json.dumps(doc, sort_keys=True))
    else:
        print(f"{'n':>3} {'simplices':>10} {'catalan':>10} {'paths':>10} "
              f"{'nondeg':>8} {'motzkin':>8}  match")
        for (n, enum, ref, paths, nd, mref, ok) in rows:
            print(
                f"{n:>3} {enum:>10} {ref:>10} {paths:>10} {nd:>8} {mref:>8}  "
                + ("ok" if ok else "MISMATCH")
            )
    return EXIT_OK if all_ok else EXIT_FAIL


def _cmd_enumerate(args, parser) -> int:
    from .catalan import enumerate_level, nondegenerate_level

    n = _level_arg(parser, args.n, ceiling=HELD_LEVEL_BOUND)
    sims = enumerate_level(n)
    nd = set(nondegenerate_level(n))
    print(f"n={n} count={len(sims)}")
    for x in sims:
        word = "".join(map(str, x.bit_tuple()))
        marker = "*" if x in nd else "."
        print(f"{word or '-'} {marker}")
    return EXIT_OK


def _cmd_catalogue(args, parser) -> int:
    from .catalogue import catalogue, verify_catalogue

    for ns in catalogue():
        faces = ", ".join(ns.face_labels) if ns.faces else "-"
        word = "".join(map(str, ns.matrix.bit_tuple())) or "-"
        print(f"{ns.name:>4}  level {ns.level}  bits {word:<10}  faces ({faces})")
    report = verify_catalogue()
    print(report.summary())
    return EXIT_OK if report.ok else EXIT_FAIL


def _embedded(obj):
    """A monoidal poset embedded as a monoidal 2-category; other inputs as given."""
    from .bicats import embed

    return embed(obj) if hasattr(obj, "elements") else obj


def _cmd_verify_identities(args, parser) -> int:
    from .bicats import PosetalMonoidalBicat
    from .catalan import CatalanSet
    from .inputs import resolve_input
    from .nerve import BicatNerve, MonoidalNerve

    if args.input:
        max_n = _level_arg(
            parser, args.max_n if args.max_n is not None else "4", ceiling=NERVE_IDENTITY_BOUND
        )
        source = resolve_input(args.input)
        # the input is validated as it is read, and the embedding of a valid
        # poset is valid, so the nerve does not validate it again
        obj = _embedded(source)
        if isinstance(obj, PosetalMonoidalBicat):
            space = MonoidalNerve(obj, top_level=max_n, validate=False)
            label = "monoidal nerve" if obj is source else "monoidal nerve of the embedded poset"
        else:
            space = BicatNerve(obj, top_level=max_n, validate=False)
            label = "nerve"
    else:
        max_n = _level_arg(
            parser, args.max_n if args.max_n is not None else "5", ceiling=CATALAN_IDENTITY_BOUND
        )
        space = CatalanSet(top_level=max_n)
        label = "catalan set"
    report = space.verify_simplicial_identities(max_n)
    print(f"{label}: {report.summary()}")
    return EXIT_OK if report.ok else EXIT_FAIL


def _cmd_verdict(args, parser) -> int:
    """verify-theorem or verify-monads, by ``args.verb``; the verdict is
    looked up in ``classify`` when the command runs."""
    from . import classify
    from .bicats import PosetalMonoidalBicat
    from .inputs import resolve_input

    obj = _embedded(resolve_input(args.input))
    if args.verb == "verify-theorem":
        if not isinstance(obj, PosetalMonoidalBicat):
            parser.error("verify-theorem needs a monoidal input")
        report = classify.verify_theorem(obj, input_name=args.input)
    else:
        report = classify.verify_monad_remark(obj, input_name=args.input)
    text = report.to_json_text() if args.format == "json" else report.summary() + "\n"
    # write --output first: a path that cannot be written exits 2 with
    # stdout empty, not after printing the verdict
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report.to_json_text())
    sys.stdout.write(text)
    return EXIT_OK if report.ok else EXIT_FAIL


def _cmd_order_probe(args, parser) -> int:
    from . import tamari

    n = _level_arg(parser, args.n, ceiling=ORDER_PROBE_BOUND)
    report = tamari.order_probe(n)
    print(report.summary())
    return EXIT_OK if report.inclusion_ok else EXIT_FAIL


def _cmd_export(args, parser) -> int:
    from .catalan import level_export

    n = _level_arg(parser, args.n, ceiling=HELD_LEVEL_BOUND)
    doc = level_export(n)
    text = json.dumps(doc, sort_keys=True) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK


_DISPATCH = {
    "count": _cmd_count,
    "enumerate": _cmd_enumerate,
    "catalogue": _cmd_catalogue,
    "verify-identities": _cmd_verify_identities,
    "verify-theorem": _cmd_verdict,
    "verify-monads": _cmd_verdict,
    "order-probe": _cmd_order_probe,
    "export": _cmd_export,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.verb](args, parser)
    except (CatalanSetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
