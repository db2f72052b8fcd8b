"""
Command-line front end.

    garside-census <command> [args] [--format plain|json] [--out FILE]

Commands: count, matrix, charpoly, normalize, oracle, table, conjecture,
verify; only count, matrix, table and verify offer --format csv.  JSON
renders integers as decimal strings, counts print in full however many
digits they have, and identical invocations produce byte-identical
output.  Exit status is 0 on success, 1 on a verification mismatch or a
failed exact check of spectral, 2 on usage errors.  Integers are
written in ASCII digits.  count --via Mprime|M22|M23 uses the oracle
paths and needs --last PERM or --last delta R, which they count at the
half twist on the first n-R strands, as oracle does; R is in 1..n;
charpoly prints the factored form for --kind Mbar unless --raw is given,
and --kind M|Mprime as Mbar(n)'s polynomial times a power of x; table,
conjecture and verify take --nmax <= MBAR_CAP.
"""
from __future__ import annotations

import argparse
import functools
import io
import itertools
import sys
from typing import Iterable, Iterator

from . import descents, formulas, matrices, oracle, permutations, reference, spectral, words


def _emit(text: str, out: str | None) -> None:
    _write([text if text.endswith("\n") else text + "\n"], out)


def _write(pieces: Iterable[str], out: str | None) -> None:
    """Write the pieces of a text in turn to stdout, or to the file out."""
    if out is None:
        sys.stdout.writelines(pieces)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise ValueError(f"cannot write --out {out}: {exc.strerror}") from exc


def _strings(obj):
    """obj with every int as its decimal string; bools stay bools."""
    if type(obj) is int:
        return str(obj)
    if isinstance(obj, dict):
        return {k: str(v) if type(v) is int else _strings(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [str(v) if type(v) is int else _strings(v) for v in obj]
    return obj


def _json_pieces(obj, pad: str = "") -> Iterator[str]:
    """
    The text of json.dumps(_strings(obj), indent=2) in pieces, obj nested
    at indent pad: a dict or list that holds a dict or list goes out item
    by item, anything else whole, so a matrix goes out one row at a time.
    """
    # json here and csv in _emit_csv are imported by the format that writes
    # them, so a plain command starts up without loading either
    import json

    items = []
    if isinstance(obj, dict):
        items, brackets = [(json.dumps(k) + ": ", v) for k, v in obj.items()], "{}"
    elif isinstance(obj, (list, tuple)):
        items, brackets = [("", v) for v in obj], "[]"
    if not any(isinstance(v, (dict, list, tuple)) for _, v in items):
        yield json.dumps(_strings(obj), indent=2).replace("\n", "\n" + pad)
        return
    yield brackets[0]
    for k, (key, v) in enumerate(items):
        yield f"{',' if k else ''}\n{pad}  {key}"
        yield from _json_pieces(v, pad + "  ")
    yield f"\n{pad}{brackets[1]}"


def _emit_json(obj, out: str | None) -> None:
    _write(itertools.chain(_json_pieces(obj), "\n"), out)


def _emit_csv(rows: list[list], out: str | None) -> None:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    _emit(buf.getvalue(), out)


def _parse_last(tokens: list[str] | None, n: int):
    """--last as (the last factor, R): a bracketed permutation and None, or
    for 'delta R' the half twist on the first n-R strands and R."""
    if not tokens:
        return None, None
    if tokens[0] == "delta":
        if len(tokens) != 2:
            raise ValueError("--last delta takes exactly one integer argument")
        try:
            r = permutations.parse_int(tokens[1])
        except ValueError:
            raise ValueError(f"--last delta takes an integer, got {tokens[1]!r}") from None
        if not 1 <= r <= n:
            raise ValueError(f"r={r} out of range 1..{n}")
        return permutations.partial_flip(n, n - r), r
    if len(tokens) != 1:
        raise ValueError("--last takes one permutation or 'delta R'")
    return permutations.parse_permutation(tokens[0]), None


def _cmd_count(args) -> int:
    last_perm, r = _parse_last(args.last, args.n)
    if args.via != "Mbar":
        if last_perm is None:
            raise ValueError(f"--via {args.via} counts by a last permutation; give --last PERM or delta R")
        value = oracle.b_of_simple_via(args.n, args.d, last_perm, args.via)
    elif r is not None:
        value = matrices.b_delta(args.n, args.d, r)
    elif last_perm is not None:
        value = matrices.b_of_simple(args.n, args.d, last_perm)
    else:
        value = matrices.b_total(args.n, args.d)
    label = (f"delta {r}" if r is not None
             else None if last_perm is None else permutations.format_permutation(last_perm))
    if args.format == "json":
        obj = {"n": args.n, "d": args.d, "value": value}
        if label is not None:
            obj["last"] = label
        _emit_json(obj, args.out)
    elif args.format == "csv":
        _emit_csv([["n", "d", "last", "value"], [args.n, args.d, label, value]], args.out)
    else:
        _emit(str(value), args.out)
    return 0


def _build_matrix(kind: str, n: int):
    return {"M": matrices.build_M, "Mprime": matrices.build_Mprime, "Mbar": matrices.build_Mbar}[kind](n)


def _cmd_matrix(args) -> int:
    m = _build_matrix(args.kind, args.n)
    label_str = {"M": permutations.format_permutation, "Mprime": permutations.format_descent_set,
                 "Mbar": descents.format_parts}[m.kind]
    labels = [label_str(label) for label in m.labels]
    if args.format == "json":
        _emit_json({"n": m.n, "kind": m.kind, "labels": labels, "rows": m.rows}, args.out)
    elif args.format == "csv":
        _emit_csv([["label", *labels]] + [[label, *row] for label, row in zip(labels, m.rows)], args.out)
    else:
        width = max(map(len, labels))
        cols = [len(str(max(col))) for col in zip(*m.rows)]  # the widest entry, as entries are non-negative
        lines = []
        for label, row in zip(labels, m.rows):
            cells = " ".join(str(e).rjust(w) for e, w in zip(row, cols))
            lines.append(f"{label.ljust(width)}  {cells}")
        _emit("\n".join(lines), args.out)
    return 0


def _cmd_charpoly(args) -> int:
    size = matrices._checked_size(args.kind, args.n)
    # M = Y·F with F·Y = Mprime (Y[x][s] = [s ⊆ D_R(x)], F[s][y] = [D_L(y) = s]), and
    # Mprime = X·E with E·X = Mbar (X the p(n) distinct columns of Mprime, E[mu][J] =
    # [J has partition mu]).  Sylvester's identity, det(xI_a - YF) = x^(a-b) det(xI_b - FY)
    # for YF a x a and FY b x b, makes every kind's polynomial Mbar(n)'s times x^(size - p(n)),
    # so neither M nor Mprime is built.
    mbar = spectral.charpoly(args.n)
    poly = (0,) * (size + 1 - len(mbar)) + mbar
    factors = None
    if args.kind == "Mbar" and not args.raw:
        # x - 1, then the intertwiner factors that charpoly(n) has cached
        factors = [spectral.charpoly(1)]
        factors += (spectral._new_factor(k)[0] for k in range(2, args.n + 1))
    if args.format == "json":
        obj = {"n": args.n, "kind": args.kind, "coefficients_constant_first": poly}
        if factors is not None:
            obj["factors"] = factors
        _emit_json(obj, args.out)
    else:
        lines = [f"coefficients (constant first): {' '.join(str(c) for c in poly)}"]
        if factors is not None:
            lines.append(
                "factored: " + " * ".join(f"({spectral.poly_str(f)})" for f in factors)
            )
        _emit("\n".join(lines), args.out)
    return 0


@functools.lru_cache(maxsize=None)
def _descent_text(mask: int) -> str:
    """The brace text of a descent mask, e.g. '{1,3}' for 0b101."""
    return permutations.format_descent_set(descents.set_of_mask(mask))


def _cmd_normalize(args) -> int:
    word = words.parse_word(args.word, args.n)
    seq = words.normalize(word)
    factors = [
        (x, permutations.descent_mask(permutations.inverse(x)), permutations.descent_mask(x))
        for x in seq.factors
    ]
    if args.format == "json":
        obj = {
            "n": args.n,
            "word": args.word,
            "degree": words.degree(seq),
            "factors": [
                {
                    "permutation": x,
                    "d_left": sorted(descents.set_of_mask(left)),
                    "d_right": sorted(descents.set_of_mask(right)),
                }
                for x, left, right in factors
            ],
        }
        _emit_json(obj, args.out)
    else:
        lines = [f"degree {words.degree(seq)}"]
        for k, (x, left, right) in enumerate(factors, start=1):
            lines.append(
                f"factor {k}: {permutations.format_permutation(x)}"
                f"  d_left={_descent_text(left)}  d_right={_descent_text(right)}"
            )
        _emit("\n".join(lines), args.out)
    return 0


def _cmd_oracle(args) -> int:
    last_perm, _ = _parse_last(args.last, args.n)
    if args.engine == "brute":
        value = oracle.brute_count(args.n, args.d, last=last_perm)
    else:
        value = oracle.dp_count(args.n, args.d, last=last_perm)
    if args.format == "json":
        obj = {"n": args.n, "d": args.d, "engine": args.engine, "value": value}
        if last_perm is not None:
            obj["last"] = permutations.format_permutation(last_perm)
        _emit_json(obj, args.out)
    else:
        _emit(str(value), args.out)
    return 0


def _table_rows(nmax: int, dmax: int):
    rows = []
    for (n, rho), values in matrices.computed_table(nmax, dmax).items():
        flags = [
            {"d": d, "flag": reference.PAPER_DISCREPANCY, "note": note}
            for (fn, frho, d), note in sorted(reference.TABLE1_FLAGGED_CELLS.items())
            if (fn, frho) == (n, rho) and d <= dmax
        ]
        row_note = reference.TABLE1_ROW_NOTES.get((n, rho))
        if row_note is not None:
            flags.append({"flag": reference.PAPER_DISCREPANCY, "note": row_note})
        label = "b_{%d,d}(1)" % n if rho == 1 else "b_{%d,d}(Delta_%d)" % (n, rho)
        rows.append({"n": n, "rho": rho, "label": label, "values": values, "flags": flags})
    return rows


def _cmd_table(args) -> int:
    rows = _table_rows(args.nmax, args.dmax)
    if args.format == "json":
        _emit_json(rows, args.out)
    elif args.format == "csv":
        out = [["label"] + [f"d={d}" for d in range(1, args.dmax + 1)] + ["flags"]]
        for r in rows:
            notes = "; ".join(f["note"] for f in r["flags"])
            out.append([r["label"], *r["values"], notes])
        _emit_csv(out, args.out)
    else:
        width = max(len(r["label"]) for r in rows)
        lines = []
        footnotes = []
        for r in rows:
            cells = " ".join(str(v).rjust(12) for v in r["values"])
            mark = ""
            if r["flags"]:
                mark = " *"
                for f in r["flags"]:
                    footnotes.append(f"* {r['label']}: {f['note']}")
            lines.append(f"{r['label'].ljust(width)}  {cells}{mark}")
        lines.extend(footnotes)
        _emit("\n".join(lines), args.out)
    return 0


def _cmd_conjecture(args) -> int:
    rows = []
    all_ok = True
    for n in range(2, args.nmax + 1):
        rep = spectral.new_factor_simple_roots(n)
        rho = spectral.rho_max(n)
        all_ok = all_ok and rep.all_ok
        rows.append((rep, rho))
    if args.format == "json":
        obj = [
            {
                "n": rep.n,
                "divides": rep.divides,
                "quotient_constant_first": rep.quotient,
                "expected_degree": rep.expected_degree,
                "degree_ok": rep.degree_ok,
                "constant_nonzero": rep.constant_nonzero,
                "squarefree": rep.squarefree,
                "coprime_with_previous": rep.coprime_with_previous,
                "rho_max": f"{rho:.6f}",
            }
            for rep, rho in rows
        ]
        _emit_json(obj, args.out)
    else:
        lines = []
        for rep, rho in rows:
            verdict = "ok" if rep.all_ok else "FAIL"
            lines.append(
                f"n={rep.n}: {verdict} divides={rep.divides}"
                f" quotient={spectral.poly_str(rep.quotient)} degree={rep.expected_degree}"
                f" squarefree={rep.squarefree} coprime={rep.coprime_with_previous}"
                f" rho={rho:.3f}"
            )
        _emit("\n".join(lines), args.out)
    return 0 if all_ok else 1


def _cmd_verify(args) -> int:
    reports = formulas.verify_all(nmax=args.nmax, dmax=args.dmax)
    if args.formula is not None:
        reports = tuple(r for r in reports if r.formula == args.formula)
        if not reports:
            raise ValueError(f"unknown formula id {args.formula!r}")
    failed = any(not r.ok for r in reports)
    if args.format == "json":
        obj = [
            {
                "formula": r.formula,
                "ok": r.ok,
                # expected and computed as text, so the bool checks print "True" like the ints
                "checks": [
                    {k: str(v) if k in ("expected", "computed") else v
                     for k, v in c._asdict().items() if v is not None}
                    for c in r.checks
                ],
            }
            for r in reports
        ]
        _emit_json(obj, args.out)
    elif args.format == "csv":
        out = [["formula", "label", "expected", "computed", "status"]]
        for r in reports:
            for c in r.checks:
                status = "ok" if c.match else ("flagged" if c.flag else "MISMATCH")
                out.append([r.formula, c.label, c.expected, c.computed, status])
        _emit_csv(out, args.out)
    else:
        lines = []
        for r in reports:
            lines.append(f"{r.formula}: {'ok' if r.ok else 'FAIL'} ({len(r.checks)} checks)")
            for c in r.checks:
                if not c.match:
                    status = "flagged" if c.flag else "MISMATCH"
                    lines.append(
                        f"  {status} {c.label}: expected {c.expected}, computed {c.computed}"
                    )
        _emit("\n".join(lines), args.out)
    return 1 if failed else 0


def _int_in(low: int | None = None, high: int | None = None):
    """argparse type: an integer (permutations.parse_int), no smaller than low and no larger than high where given."""
    def integer(text: str) -> int:
        try:
            value = permutations.parse_int(text)
        except ValueError:  # CPython's digit limit too, which main lifts only after parsing
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {text}")
        return value
    return integer


def _add_common(p: argparse.ArgumentParser, with_csv: bool = False) -> None:
    formats = ["plain", "csv", "json"] if with_csv else ["plain", "json"]
    p.add_argument("--format", choices=formats, default="plain")
    p.add_argument("--out", default=None, help="write output to a file instead of stdout")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; each parse_args returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="garside-census",
        description="Exact counting of normal sequences of positive braids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count braids of degree at most d, optionally by last factor")
    p.add_argument("n", type=_int_in())
    p.add_argument("d", type=_int_in())
    p.add_argument("--last", nargs="+", default=None, metavar="PERM|delta R",
                   help="pin the last factor: a permutation like [3,1,2], or 'delta R' for the half twist on the first n-R strands")
    p.add_argument("--via", choices=["Mbar", "Mprime", "M22", "M23"], default="Mbar")
    _add_common(p, with_csv=True)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("matrix", help="emit an incidence matrix")
    p.add_argument("kind", choices=["M", "Mprime", "Mbar"])
    p.add_argument("n", type=_int_in())
    _add_common(p, with_csv=True)
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("charpoly", help="characteristic polynomial of a counting matrix")
    p.add_argument("n", type=_int_in())
    p.add_argument("--kind", choices=["M", "Mprime", "Mbar"], default="Mbar")
    p.add_argument("--raw", action="store_true", help="coefficient list only")
    _add_common(p)
    p.set_defaults(func=_cmd_charpoly)

    p = sub.add_parser("normalize", help="normal form of a positive braid word")
    p.add_argument("-n", dest="n", type=_int_in(), required=True)
    p.add_argument("word")
    _add_common(p)
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("oracle", help="brute-force or dp count of normal sequences")
    p.add_argument("n", type=_int_in())
    p.add_argument("d", type=_int_in())
    p.add_argument("--last", nargs="+", default=None, metavar="PERM|delta R")
    p.add_argument("--engine", choices=["brute", "dp"], default="dp")
    _add_common(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("table", help="grid of counts by last half twist")
    p.add_argument("--nmax", type=_int_in(2, matrices.MBAR_CAP), default=6)
    p.add_argument("--dmax", type=_int_in(1), default=6)
    _add_common(p, with_csv=True)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("conjecture", help="nested-spectrum check for consecutive n")
    p.add_argument("--nmax", type=_int_in(2, matrices.MBAR_CAP), default=10)
    _add_common(p)
    p.set_defaults(func=_cmd_conjecture)

    p = sub.add_parser("verify", help="evaluate every closed formula against the pipeline")
    p.add_argument("--formula", default=None)
    p.add_argument("--nmax", type=_int_in(2, matrices.MBAR_CAP), default=8)
    p.add_argument("--dmax", type=_int_in(2), default=20)
    _add_common(p, with_csv=True)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # counts outgrow CPython's 4300-digit default limit on str(int); lift it for this
    # call only (Python 3.10.0-3.10.6 has no limit), so an in-process caller keeps its own
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (ValueError, spectral.ExactCheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
