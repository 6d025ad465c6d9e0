"""Child-process entry points of the benchmark.

Each job runs in a fresh interpreter, started by ``run.py`` with the
package's ``src`` directory on ``PYTHONPATH``:

    python3 bench/job.py setup [INPUT ...]
    python3 bench/job.py model-squares --levels 5 --sandwich 4 [--trace]
    python3 bench/job.py traced-cli count --max-n 10
    python3 bench/job.py traced-cli verify-theorem --input or2 --format json

``setup`` imports the package and loads and validates the named inputs,
with no enumeration.  ``model-squares`` checks the interval-table, relation
and ideal presentations against each other.  ``traced-cli`` repeats a CLI
job through the library with spans around its calls into each layer:
first the pieces one by one, then the whole call that the CLI makes.  The
last stdout line of the last two is one JSON object holding the job's
result and its spans.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys

from spans import NullTracer, Tracer


def _setup(names: list[str]) -> None:
    from catalan_sset import cli  # noqa: F401  (imports every layer)
    from catalan_sset.inputs import resolve_input

    for name in names:
        resolve_input(name)


# -- model-squares ------------------------------------------------------------


def model_squares(tr, levels: int, sandwich: int) -> dict:
    """Round trips, the square-ideal census, every action square at levels <=
    ``levels`` through both pullbacks, and the adjoint laws and sandwich
    identity at endpoints <= ``sandwich``.  Returns counts, violations included."""
    from catalan_sset import delta
    from catalan_sset.catalan import act, enumerate_level
    from catalan_sset.models import (
        adjoint_ideals,
        compose_ideals,
        enumerate_square_ideals,
        ideal_leq,
        ideal_pullback,
        identity_ideal,
        ideal_to_lax,
        lax_to_ideal,
        lax_to_relation,
        relation_pullback,
        relation_to_lax,
    )

    out = {
        "roundtrips": 0,
        "roundtrip_violations": 0,
        "square_ideals": [],
        "squares": 0,
        "square_violations": 0,
        "adjoint_laws": 0,
        "adjoint_violations": 0,
        "sandwiches": 0,
        "sandwich_violations": 0,
    }
    top = max(levels, sandwich)
    level, ideals, rels = {}, {}, {}
    for n in range(top + 1):
        level[n] = enumerate_level(n)  # under a millisecond at these levels
        with tr.span("models.roundtrip"):
            ideals[n] = [lax_to_ideal(x) for x in level[n]]
            rels[n] = [lax_to_relation(x) for x in level[n]]
            back = [ideal_to_lax(b) for b in ideals[n]]
            back_rel = [relation_to_lax(r) for r in rels[n]]
        out["roundtrips"] += len(level[n])
        out["roundtrip_violations"] += sum(
            a != x or b != x for x, a, b in zip(level[n], back, back_rel)
        )
    ideal_of = {x: b for n in level for x, b in zip(level[n], ideals[n])}
    rel_of = {x: r for n in level for x, r in zip(level[n], rels[n])}

    for n in range(levels + 1):
        with tr.span("models.enumerate_square_ideals") as c:
            found = enumerate_square_ideals(n)
            # it tries one column top in i..n for each column i
            c["models.enumerate_square_ideals.candidates"] = math.factorial(n + 1)
            c["models.enumerate_square_ideals.accepted"] = len(found)
        out["square_ideals"].append(len(found))

    for n in range(levels + 1):
        for m in range(levels + 1):
            with tr.span("delta.all_maps") as c:
                maps = list(delta.all_maps(m, n))
                c["delta.all_maps.maps"] = len(maps)
            for xi in maps:
                with tr.span("catalan.act") as c:
                    ys = [act(xi, x) for x in level[n]]
                    c["catalan.act.calls"] = len(ys)
                with tr.span("models.ideal_pullback") as c:
                    ips = [ideal_pullback(xi, b) for b in ideals[n]]
                    c["models.ideal_pullback.calls"] = len(ips)
                with tr.span("models.relation_pullback") as c:
                    rps = [relation_pullback(xi, r) for r in rels[n]]
                    c["models.relation_pullback.calls"] = len(rps)
                out["squares"] += len(ys)
                out["square_violations"] += sum(
                    ip != ideal_of[y] or rp != rel_of[y]
                    for y, ip, rp in zip(ys, ips, rps)
                )

    for m in range(sandwich + 1):
        for n in range(sandwich + 1):
            with tr.span("delta.all_maps") as c:
                maps = list(delta.all_maps(m, n))
                c["delta.all_maps.maps"] = len(maps)
            for xi in maps:
                lo, up = adjoint_ideals(xi)
                with tr.span("models.compose_ideals") as c:
                    unit = compose_ideals(up, lo)
                    counit = compose_ideals(lo, up)
                    sandwiched = [
                        compose_ideals(compose_ideals(up, b), lo) for b in ideals[n]
                    ]
                    c["models.compose_ideals.calls"] = 2 + 2 * len(sandwiched)
                with tr.span("models.ideal_pullback") as c:
                    ips = [ideal_pullback(xi, b) for b in ideals[n]]
                    c["models.ideal_pullback.calls"] = len(ips)
                out["adjoint_laws"] += 2
                out["adjoint_violations"] += (
                    not ideal_leq(identity_ideal(m), unit)
                ) + (not ideal_leq(counit, identity_ideal(n)))
                out["sandwiches"] += len(ips)
                out["sandwich_violations"] += sum(
                    s != ip for s, ip in zip(sandwiched, ips)
                )
    return out


# -- traced CLI jobs ------------------------------------------------------------


def _traced_count(tr: Tracer, argv: list[str]) -> None:
    from catalan_sset import tamari
    from catalan_sset.catalan import enumerate_level, nondegenerate_level

    max_n = int(argv[argv.index("--max-n") + 1])
    for n in range(max_n + 1):
        with tr.span("catalan.enumerate_level") as c:
            sims = enumerate_level(n)
            c["catalan.enumerate_level.simplices"] = len(sims)
        with tr.span("catalan.nondegenerate_level") as c:
            found = nondegenerate_level(n)
            c["catalan.nondegenerate_level.tested"] = len(sims)
            c["catalan.nondegenerate_level.found"] = len(found)
        with tr.span("tamari.dyck_crosscheck"):
            tamari.dyck_crosscheck(n)


def _traced_classification(tr: Tracer, argv: list[str]) -> tuple[dict, object]:
    from catalan_sset import classify, sset
    from catalan_sset.bicats import (
        embed,
        require_valid,
        validate_bicat,
        validate_monoidal_bicat,
    )
    from catalan_sset.catalan import CatalanSet
    from catalan_sset.inputs import resolve_input
    from catalan_sset.nerve import BicatNerve, MonoidalNerve

    theorem = argv[0] == "verify-theorem"
    name = argv[argv.index("--input") + 1]
    with tr.span("inputs.resolve_input"):
        obj = resolve_input(name)
        if hasattr(obj, "elements"):
            obj = embed(obj)
    with tr.span("bicats.validate"):
        require_valid((validate_monoidal_bicat if theorem else validate_bicat)(obj))
    nerve = (MonoidalNerve if theorem else BicatNerve)(obj, validate=False)
    for n in range(5):
        with tr.span("nerve.level") as c:
            c["nerve.simplices"] = len(nerve.level(n))
    with tr.span("sset.enumerate_truncated_maps") as c:
        enum = sset.enumerate_truncated_maps(CatalanSet(4), nerve, 4)
        c["sset.maps"] = len(enum.maps)
        c["sset.rejections"] = len(enum.rejections)
    with tr.span("sset.naturality_failures"):
        unnatural = sum(len(sset.naturality_failures(f)) for f in enum.maps)
    pieces = {"maps": len(enum.maps), "naturality_failures": unnatural}
    if theorem:
        with tr.span("classify.direct_classification"):
            pieces["direct"] = len(classify.direct_classification(obj))
        with tr.span("classify.structures"):
            pieces["structures"] = len(classify.skew_monoidales(obj))
    else:
        with tr.span("classify.structures"):
            pieces["structures"] = len(classify.monads(obj))
    return pieces, obj


def _traced_cli(argv: list[str]) -> dict:
    """Trace the pieces, then the whole call, and rebuild the CLI's stdout."""
    from catalan_sset import classify, cli

    tr = Tracer(" ".join(argv))
    buf = io.StringIO()
    if argv[0] == "count":
        _traced_count(tr, argv)
        pieces = {}
        # the levels are cached by now, so this is the CLI's own formatting
        # plus the path recount
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    else:
        pieces, obj = _traced_classification(tr, argv)
        name = argv[argv.index("--input") + 1]
        if argv[0] == "verify-theorem":
            with tr.span("classify.verify_theorem"):
                report = classify.verify_theorem(obj, input_name=name)
        else:
            with tr.span("classify.verify_monad_remark"):
                report = classify.verify_monad_remark(obj, input_name=name)
        pieces["report"] = report.map_count
        buf.write(report.to_json_text())  # the CLI's --format json output
        code = 0 if report.ok else 1
    return {"exit": code, "stdout": buf.getvalue(), "pieces": pieces, "spans": tr.spans}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="job.py")
    sub = parser.add_subparsers(dest="kind", required=True)
    p = sub.add_parser("setup")
    p.add_argument("inputs", nargs="*")
    p = sub.add_parser("model-squares")
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--sandwich", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    p = sub.add_parser("traced-cli")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    if args.kind == "setup":
        _setup(args.inputs)
        return 0
    if args.kind == "model-squares":
        tr = Tracer("model-squares") if args.trace else NullTracer()
        doc = {"result": model_squares(tr, args.levels, args.sandwich)}
        if args.trace:
            doc["spans"] = tr.spans
    else:
        doc = _traced_cli(args.argv)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
