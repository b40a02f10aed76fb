"""Command-line front end.

A `sweep` row is the `lvalue --q Q --index I` report of its argmax I,
its radius widened when the row is ambiguous.

Exit codes: 0 success with nothing violated; 1 usage or I/O error, an
out-of-range q, --qmax, --grid or --threads, a row file to resume that another
run wrote, an --out file that is not a row file, a figure-data row file
with a malformed complete row, a figure-data --out that names its --in,
or a tol below a record's |L| radius, each with an error message; 2 a theorem
exception, an indeterminate verdict (from its first evaluation: tol
changes no computed value, so nothing is retried), or a failed lemma
check.
"""

from __future__ import annotations

import argparse
import sys

from .batch import l_value, l_values
from .bounds import check_theorem
from .characters import count_primitive
from .lemmas import run_all
from .sweep import emit_figure_data, summarize, sweep


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _build_parser() -> _Parser:
    p = _Parser(prog="l1sweep",
                description="Rigorous L(1,chi) sweeps and bound verification")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("sweep", help="verify the bound over a conductor range")
    s.add_argument("--qmin", type=int, required=True)
    s.add_argument("--qmax", type=int, required=True)
    s.add_argument("--tol", type=float, default=1e-9,
                   help="absolute tolerance per L-value (default 1e-9): every "
                        "reported |L(1,chi)| radius must be at most tol; it "
                        "changes no computed value, only which conductors are "
                        "refused")
    s.add_argument("--threads", type=int, default=1,
                   help="worker processes (default 1)")
    s.add_argument("--out", required=True, help="row file path")

    lv = sub.add_parser("lvalue", help="print L(1,chi) for one conductor")
    lv.add_argument("--q", type=int, required=True)
    lv.add_argument("--index", type=int, default=None,
                    help="character enumeration index (default: all primitive)")

    fd = sub.add_parser("figure-data", help="emit (q, max excess) plot data")
    fd.add_argument("--in", dest="in_path", required=True)
    fd.add_argument("--parity", choices=("even", "odd"), required=True)
    fd.add_argument("--out", required=True)

    cl = sub.add_parser("check-lemmas", help="run the lemma validation suite")
    cl.add_argument("--grid", type=int, default=100)

    ct = sub.add_parser("count", help="count primitive characters up to qmax")
    ct.add_argument("--qmax", type=int, required=True)
    ct.add_argument("--all-q", action="store_true")
    return p


def _cmd_sweep(args) -> int:
    summary = sweep(args.qmin, args.qmax, 3, args.tol, args.threads, args.out)
    print(summarize(summary))
    return 2 if summary.exceptions else 0


def _cmd_lvalue(args) -> int:
    if args.index is None:
        records = l_values(args.q)
    else:                   # raises ValueError unless a primitive chi has it
        record = l_value(args.q, args.index)
        records = [] if record is None else [record]
    if not records:
        print(f"q={args.q}: no primitive characters")
        return 0
    code = 0
    for r in records:
        rep = check_theorem(r)
        print(f"q={r.q} index={r.index} parity={r.parity} conductor={r.q} "
              f"L(1,chi)={r.re:.12f}{r.im:+.12f}i "
              f"|L|={r.abs_mid:.12f}(+/-{r.abs_rad:.1e}) "
              f"excess={r.excess_mid:+.7f} margin={rep.margin_mid:+.7f} "
              f"verdict={rep.verdict}"
              + ("" if rep.theorem_applies else " [3 does not divide q]"))
        if rep.verdict != "pass":
            code = 2
    return code


def _cmd_figure_data(args) -> int:
    n = emit_figure_data(args.in_path, args.parity, args.out)
    print(f"wrote {n} points to {args.out}")
    return 0


def _cmd_check_lemmas(args) -> int:
    results = run_all(args.grid)
    ok = True
    for res in results:
        print(res.line())
        ok = ok and res.verdict == "pass"
    return 0 if ok else 2


def _cmd_count(args) -> int:
    print(count_primitive(args.qmax, None if args.all_q else 3))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "sweep": _cmd_sweep,
        "lvalue": _cmd_lvalue,
        "figure-data": _cmd_figure_data,
        "check-lemmas": _cmd_check_lemmas,
        "count": _cmd_count,
    }[args.command]
    try:
        return handler(args)
    except (OSError, ValueError) as e:  # bad input or I/O; includes ToleranceError
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
