"""Command-line entry point: verification suites, basis listings, reductions.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage error.
Output formats: table (default), json and, outside verify, csv; all
deterministic for fixed arguments and seed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

from . import graph_basis as gb
from . import pvb_family as fam
from . import pvh_checker as pvh
from . import quad_algebra as qa
from .report import VerificationReport


def _emit_rows(args, command: str, params: dict, header: list[str],
               rows: list[list], out) -> None:
    doc = io.StringIO()
    with qa._int_digits_unlimited():
        if args.format == "json":
            json.dump({"command": command, "params": params,
                       "rows": [dict(zip(header, r)) for r in rows]},
                      doc, indent=2, sort_keys=True)
            doc.write("\n")
        elif args.format == "csv":
            writer = csv.writer(doc, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        else:
            widths = [max(len(str(x)) for x in [h] + [r[t] for r in rows])
                      for t, h in enumerate(header)]
            for r in [header] + rows:
                doc.write("  ".join(str(x).ljust(w)
                                    for x, w in zip(r, widths)).rstrip() + "\n")
    # Only a complete document is written, a line at a time: one large
    # write to a pipe closed part way through can end short without an error.
    out.writelines(doc.getvalue().splitlines(keepends=True))


def _presentation(args, max_degree: int = 2) -> qa.QuadraticPresentation:
    """The --presentation file, or the --family/--n presentation, loaded by
    `load_presentation` within --budget."""
    path = getattr(args, "presentation", None)
    if not path:
        return fam.load_presentation({"family": args.family or "pvb",
                                      "n": args.n},
                                     max_degree, args.budget)
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read presentation file {path}: "
                         f"{exc.strerror}") from None
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ValueError(f"presentation file {path} is not JSON: "
                         f"{exc}") from None
    try:
        return fam.load_presentation(data, max_degree, args.budget)
    except ValueError as exc:
        raise ValueError(f"presentation file {path}: {exc}") from None


def _require_at_least(low: int, **values) -> None:
    for name, v in values.items():
        if v < low:
            flag = name.replace("_", "-")
            raise ValueError(f"--{flag} must be >= {low}, got {v}")


#: The triangles each table command prints, one column per triangle.
_TABLES = {"lah": (gb.lah,), "stirling": (gb.stirling1, gb.stirling2)}


def _cmd_table(args, out) -> int:
    _require_at_least(0, n=args.n)
    triangles = _TABLES[args.command]
    qa._check_budget(len(triangles) * (args.n + 1) * (args.n + 2) // 2,
                     args.budget, args.command + " table of {} triangle entries")
    rows = [[args.n, k] + [t(args.n, k) for t in triangles]
            for k in range(0, args.n + 1)]
    _emit_rows(args, args.command, {"n": args.n},
               ["n", "k"] + [t.__name__ for t in triangles], rows, out)
    return 0


_BASIS_ENUM = {
    "chain-gangs": gb.enumerate_chain_gangs,
    "updown": gb.enumerate_updown,
    "down": gb.enumerate_down,
    "up": gb.enumerate_up,
}


def _near_diagonal(kind: str, n: int, k: int) -> int:
    """T(n, k), k <= n, of the triangle `kind`, in about (n - k)^2 steps.

    T(n, k) counts partitions of [n] into k blocks (blocks in a linear order
    for L, in a cyclic order for c).  Without its one-element blocks, such a
    partition is one of a v-set into v - (n - k) blocks of two or more
    elements, and v <= 2(n - k).  So T(n, k) is the sum of C(n, v)
    A(v, v - n + k), where A counts the latter partitions of [v]: element v
    joins a block of the rest, or makes one of the T(2, 1) blocks of two with
    one of the v - 1 others, A(v, b) = weight(v, b) A(v-1, b) +
    (v - 1) T(2, 1) A(v-2, b-1) with A(0, 0) = 1.
    """
    weight = gb._TRIANGLE_WEIGHTS[kind]
    pair = weight(2, 1)
    d, top = n - k, min(n, 2 * (n - k))
    diag = [1] + [0] * top  # A(v, v - j) for j = 0; A(v, b) = 0 for 2b > v
    for j in range(1, d + 1):
        hi = min(2 * j, top)  # v - 1 = 0 for v = 1, so diag[-1] adds nothing
        diag = [0] * j + [weight(v, v - j) * diag[v - 1]
                          + (v - 1) * pair * diag[v - 2]
                          for v in range(j, hi + 1)] + [0] * (top - hi)
    return sum(math.comb(n, v) * a for v, a in enumerate(diag))


def _triangle_count(kind: str, n: int, k: int) -> int:
    """T(n, k), k <= n, from the nearer side of the triangle: row n kept to
    columns 0..k, about n k steps, when k < n - k, else `_near_diagonal`."""
    if k < n - k:
        return gb._triangle_row(kind, n, k)[k]
    return _near_diagonal(kind, n, k)


#: Size of each listing: count(n, n - degree) monomials, L(n, n - degree)
#: for ordered blocks, S for blocks and c for cycles.
_BASIS_COUNT = {
    listing: functools.partial(_triangle_count, kind) for listing, kind
    in [("chain-gangs", "lah"), ("updown", "lah"), ("down", "stirling2"),
        ("up", "stirling1")]}


def _refuse_uncounted(log_bound: float, budget: int, what: str):
    """Refuse, uncounted, a count above e^log_bound > 10^digits (log10 e is
    rounded down) once digits reaches 4300 and the budget's length."""
    digits = int(log_bound * 0.4342944819)
    if digits >= max(4300, len(str(budget))):
        raise qa.SizeBudgetError(digits, budget, what.format("more than 10^{}"))


def _cmd_basis(args, out) -> int:
    _require_at_least(0, n=args.n, degree=args.degree)
    what, k = args.kind + " basis of {} monomials", args.n - args.degree
    # T(n, k) >= k^(n-k): 1..k in distinct blocks, each other element in one
    _refuse_uncounted(min(args.degree, 10 ** 300) * math.log(max(k, 1)),
                      args.budget, what)
    count = _BASIS_COUNT[args.kind](args.n, k) if k >= 0 else 0
    qa._check_budget(count, args.budget, what)
    monos = _BASIS_ENUM[args.kind](args.n, args.degree)
    if args.emit_dot:
        for t, m in enumerate(monos):
            out.write(m.forest(args.n).to_dot(name=f"m{t}") + "\n")
        return 0
    rows = [[t, str(m)] for t, m in enumerate(monos)]
    _emit_rows(args, "basis", {"kind": args.kind, "n": args.n,
                               "degree": args.degree},
               ["index", "monomial"], rows, out)
    return 0


def _cmd_reduce(args, out) -> int:
    _require_at_least(0, n=args.n)
    mono, sign = gb.parse_wedge_word(args.monomial, args.n or None)
    if mono is None:
        combo = {}
    else:
        reducer = gb.prune_normal_form if args.rules == "prune" \
            else gb.lex_normal_form
        combo = reducer(mono)
        if sign < 0:
            combo = {m: -c for m, c in combo.items()}
    rows = [[str(combo[m]), str(m)] for m in sorted(combo, key=gb._by_edges)]
    _emit_rows(args, "reduce", {"rules": args.rules, "monomial": args.monomial},
               ["coeff", "monomial"], rows, out)
    return 0


def _cmd_hilbert(args, out) -> int:
    _require_at_least(0, max_degree=args.max_degree)
    dims = qa.koszul_euler_check(_presentation(args, args.max_degree),
                                 args.max_degree, args.budget).payload
    rows = [[m, a, b] for m, (a, b) in
            enumerate(zip(dims["primal_dims"], dims["dual_dims"]))]
    _emit_rows(args, "hilbert",
               {"family": args.family, "n": args.n,
                "max_degree": args.max_degree},
               ["degree", "dim_algebra", "dim_dual"], rows, out)
    return 0


def _family_or_file(report):
    """A suite running `report` on the --family/--n family, or degree 2 on a
    --presentation file (the tool does not search for global syzygies)."""
    def verify(args) -> VerificationReport:
        if args.presentation:
            return pvh.degree2_report(_presentation(args))
        return report(fam.AlgebraFamily.parse(args.family or "pvb", args.n),
                      args.budget)
    return verify


def _verify_coproduct(args) -> VerificationReport:
    qa._check_budget(len(gb._COPRODUCT_ROWS) * math.perm(args.n, 4),
                     args.budget, "coproduct check of {} reductions")
    return gb.coproduct_table_check(args.n)


def _verify_euler(args) -> VerificationReport:
    _require_at_least(1, max_degree=args.max_degree)
    return qa.koszul_euler_check(_presentation(args, args.max_degree),
                                 args.max_degree, budget=args.budget)


def _verify_lahstirling(args) -> VerificationReport:
    what = "lahstirling check of {} ordered partitions"
    # a(n) >= n! (and a increases, so n may be capped)
    _refuse_uncounted(math.lgamma(min(args.n, 10 ** 300) + 1), args.budget,
                      what)
    # the sum of rows 0..n of the Lah triangle, from its row sums
    # a(m) = (2m-1) a(m-1) - (m-1)(m-2) a(m-2), a(0) = a(1) = 1 (OEIS A000262)
    count, prev, row = 1, 1, 1  # a(0) counted; prev, row = a(0), a(1)
    for m in range(2, args.n + 2):
        count += row
        prev, row = row, (2 * m - 1) * row - (m - 1) * (m - 2) * prev
    qa._check_budget(count, args.budget, what)
    mismatches = []
    for n in range(0, args.n + 1):
        for k in range(0, n + 1):
            by_enum = gb.lah_by_enumeration(n, k)
            by_identity = sum(gb.stirling1(n, l) * gb.stirling2(l, k)
                              for l in range(0, n + 1))
            if by_enum != by_identity or by_enum != gb.lah(n, k):
                mismatches.append({"n": n, "k": k, "enum": by_enum,
                                   "identity": by_identity,
                                   "recurrence": gb.lah(n, k)})
    return VerificationReport(
        check="lah-stirling",
        params={"max_n": args.n},
        expected={"mismatches": 0},
        actual={"mismatches": len(mismatches)},
        payload={"failing": mismatches},
    )


_TENSOR = "tensor-space dimension"

#: Each suite: its check, the options it reads besides --format, and what
#: its --budget bounds (None: it takes no --budget).
_VERIFIERS = {
    "pvh": (_family_or_file(pvh.pvh_report),
            ["--n", "--family", "--presentation"], _TENSOR),
    "degree2": (_family_or_file(pvh.degree2_report),
                ["--n", "--family", "--presentation"], _TENSOR),
    "euler": (_verify_euler,
              ["--n", "--family", "--presentation", "--max-degree"], _TENSOR),
    "psi": (lambda args: fam.psi_image_check(args.n, args.budget), ["--n"],
            _TENSOR),
    "coproduct": (_verify_coproduct, ["--n"], "number of reductions"),
    "lahstirling": (_verify_lahstirling, ["--n"],
                    "number of ordered partitions"),
    "confluence": (lambda args: gb.confluence_check(args.n, args.trials,
                                                    args.seed),
                   ["--n", "--seed", "--trials"], None),
}


def _cmd_verify(args, out) -> int:
    if getattr(args, "presentation", None):
        if args.family or args.n is not None:
            raise ValueError("--presentation replaces --family and --n")
    elif args.n is None or args.n < 2:
        raise ValueError("--n is required (and must be >= 2)")
    report = args.verify(args)
    if args.format == "json":
        json.dump(report.to_json(), out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        out.write(report.one_line() + "\n")
    return 0 if report.passed else 1


#: Every option a command may read, as argparse keywords.
_OPTIONS = {
    "--n": dict(type=int, required=True, help="strand count"),
    "--degree": dict(type=int, required=True),
    "--family": dict(choices=["pvb", "pfb", "pb"], default="pvb",
                     help="algebra family (default pvb)"),
    "--presentation": dict(metavar="FILE",
                           help="presentation JSON instead of --family/--n"),
    "--max-degree": dict(type=int, default=3),
    "--seed": dict(type=int, default=0),
    "--trials": dict(type=int, default=200),
}


def _command(sub, name, func, names, budget,
             formats=("table", "json", "csv"), help=None, **defaults):
    """Add command `name`, run by `func`, with the named options, --format
    over `formats` and, unless `budget` is None, a --budget bounding it.
    An option named in `defaults` is optional, with that default."""
    p = sub.add_parser(name, help=help)
    for flag in names:
        kwargs = dict(_OPTIONS[flag])
        if flag[2:] in defaults:
            kwargs.update(required=False, default=defaults[flag[2:]])
        p.add_argument(flag, **kwargs)
    p.add_argument("--format", choices=formats, default="table")
    if budget:
        p.add_argument("--budget", type=int, default=qa.DEFAULT_BUDGET,
                       help=f"largest admissible {budget}")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qal",
        description="Quadratic algebras of the pure virtual braid family: "
                    "graph-indexed bases, rewriting normal forms, and "
                    "exact verification of the quadraticity criterion.")
    sub = parser.add_subparsers(dest="command", required=True)
    _command(sub, "lah", _cmd_table, ["--n"], "number of triangle entries",
             help="Lah number table")
    _command(sub, "stirling", _cmd_table, ["--n"],
             "number of triangle entries", help="Stirling number tables")
    p = _command(sub, "basis", _cmd_basis, ["--n", "--degree"],
                 "listing size", help="graph-indexed basis listings")
    p.add_argument("kind", choices=sorted(_BASIS_ENUM))
    p.add_argument("--emit-dot", action="store_true",
                   help="emit DOT digraphs instead of a listing")
    p = _command(sub, "reduce", _cmd_reduce, ["--n"], None, n=0,
                 help="normal form of a wedge monomial")
    p.add_argument("rules", choices=["prune", "lex"])
    p.add_argument("monomial", help='wedge word, e.g. "1>2,2>3,3>1"')
    suites = sub.add_parser("verify", help="run a verification suite"
                            ).add_subparsers(dest="what", required=True)
    for what, (verify, names, budget) in sorted(_VERIFIERS.items()):
        # no default --n or --family, so --presentation can refuse them
        _command(suites, what, _cmd_verify, names, budget, ("table", "json"),
                 n=None, family=None).set_defaults(verify=verify)
    _command(sub, "hilbert", _cmd_hilbert, ["--n", "--family", "--max-degree"],
             _TENSOR, help="graded dimensions of A and its dual")
    return parser


def run(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except (qa.SizeBudgetError, gb.RewriteBoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (`qal ... | head`): stop quietly, and
        # send the interpreter's final flush of stdout to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE, the shell's status for this case
    sys.exit(code)


if __name__ == "__main__":
    main()
