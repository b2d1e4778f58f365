"""Command-line front end: construct, solve, bounds, exact, probe, verify.

Exit codes: 0 success (and "colorable" for solve), 1 not colorable (solve
only), 2 usage or validation errors, including refused oracle searches.
Primary output is byte-deterministic for identical flags.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import bounds as bounds_mod
from . import construction, formats, oracle, solver

EXIT_OK = 0
EXIT_NOT_COLORABLE = 1
EXIT_ERROR = 2

# `bounds --range` holds every row in memory before it prints
MAX_RANGE_ROWS = 100_000

# the `bounds` table's columns, for the header and for every row
BOUNDS_LAYOUT = "{:>6}  {:>3}  {:>5}  {:<12}  {:>5}  {:<14}  {:>5}  {:>9}  {:>9}"


def _capped_search(search, *args):
    """Run an oracle search under the cap from CHOOSABILITY_SEARCH_CAP; a
    refusal for exceeding that cap names the variable that raises it."""
    raw = os.environ.get("CHOOSABILITY_SEARCH_CAP", str(oracle.DEFAULT_SEARCH_CAP))
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"CHOOSABILITY_SEARCH_CAP must be an integer, got {raw!r}")
    try:
        return search(*args, cap=cap)
    except oracle.SearchTooLarge as exc:
        raise oracle.SearchTooLarge(
            f"{exc}; set CHOOSABILITY_SEARCH_CAP to raise the cap") from None


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        formats.write_atomic(out_path, text)


def _read(path: str) -> str:
    with open(path, "r") as handle:
        return handle.read()


# -- construct -------------------------------------------------------------

def cmd_construct(args) -> int:
    assignment = construction.hard_instance(args.q, args.c)
    if args.format == "json":
        text = formats.dumps_instance(assignment)
    else:
        text = formats.instance_to_text(assignment)
    _emit(text, args.out)
    return EXIT_OK


# -- solve -----------------------------------------------------------------

def cmd_solve(args) -> int:
    assignment = formats.loads_instance(_read(args.instance))
    result = solver.colorable(assignment)
    ok, reason = solver.check_certificate(assignment, result)
    if not ok:
        raise AssertionError(f"solver produced a certificate that fails its check: {reason}")
    _emit(formats.dumps_certificate(result), args.out)
    return EXIT_OK if result.colorable else EXIT_NOT_COLORABLE


# -- bounds ----------------------------------------------------------------

def _parse_range(text: str) -> tuple[int, int]:
    lo_hi = text.split("..")
    if len(lo_hi) != 2:
        raise ValueError(f"range must look like 10..15, got {text!r}")
    try:
        lo, hi = int(lo_hi[0]), int(lo_hi[1])
    except ValueError:
        raise ValueError(f"range endpoints must be integers, got {text!r}")
    if lo < 1 or hi < lo:
        raise ValueError(f"invalid range {text!r}: need 1 <= lo <= hi")
    if hi - lo + 1 > MAX_RANGE_ROWS:
        raise ValueError(
            f"range {text!r} spans {hi - lo + 1} rows, above the cap of "
            f"{MAX_RANGE_ROWS}; split it into ranges of at most {MAX_RANGE_ROWS} rows"
        )
    return lo, hi


def cmd_bounds(args) -> int:
    lo, hi = _parse_range(args.range) if args.range is not None else (args.n, args.n)
    # each row is the BoundsReport's fields, in declaration order, plus "ktv"
    rows = [vars(report) | {"ktv": bounds_mod.ktv_reference_bounds(report.n, args.c)}
            for report in bounds_mod.bounds_reports(lo, hi, args.c)]
    if args.json:
        sys.stdout.write(formats.json_line(rows))
        return EXIT_OK
    lines = [BOUNDS_LAYOUT.format("n", "c", "lower", "provenance", "upper", "provenance",
                                  "exact", "ktv-low", "ktv-high")]
    for row in rows:
        *fields, exact, (ktv_lo, ktv_hi) = row.values()
        lines.append(BOUNDS_LAYOUT.format(*fields, "-" if exact is None else exact,
                                          f"{ktv_lo:.3f}", f"{ktv_hi:.3f}"))
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


# -- exact -----------------------------------------------------------------

def cmd_exact(args) -> int:
    result = _capped_search(oracle.chi_l_complete_search, args.n, args.c)
    if args.json:
        sys.stdout.write(formats.json_line(vars(result)))
    else:
        sys.stdout.write(f"chi_l(K_{result.n}, c={result.c}) = {result.chi_l}\n")
        sys.stdout.write(f"assignments checked: {result.assignments_checked}\n")
        if result.defeated_by is not None:
            shown = " ".join(str(list(lst)) for lst in result.defeated_by)
            sys.stdout.write(f"list size {result.chi_l - 1} defeated by: {shown}\n")
    return EXIT_OK


# -- probe -----------------------------------------------------------------

def cmd_probe(args) -> int:
    report = _capped_search(oracle.conjecture_probe, args.nmax, args.c)
    if args.json:
        # the ProbeReport's fields; its SmallGraph is written as {n, edges, assignment}
        payload = vars(report)
        if report.counterexample is not None:
            graph, assignment = report.counterexample
            payload = payload | {"counterexample": {"n": graph.n, "edges": graph.edges,
                                                    "assignment": assignment}}
        sys.stdout.write(formats.json_line(payload))
        return EXIT_OK
    if report.counterexample is None:
        sys.stdout.write(
            f"no counterexample among all labeled graphs with up to "
            f"{report.n_max} vertices (c={report.c})\n"
        )
    else:
        graph, assignment = report.counterexample
        sys.stdout.write(
            f"COUNTEREXAMPLE: graph on {graph.n} vertices, edges {list(graph.edges)}, "
            f"assignment {[list(lst) for lst in assignment]}\n"
        )
    values = " ".join(f"K_{n}={k}" for n, k in sorted(report.complete_values.items()))
    sys.stdout.write(f"complete-graph values: {values}\n")
    sys.stdout.write(
        f"graphs checked: {report.graphs_checked}, "
        f"assignments checked: {report.assignments_checked}\n"
    )
    return EXIT_OK


# -- verify ----------------------------------------------------------------

def cmd_verify(args) -> int:
    assignment = formats.loads_instance(_read(args.instance))
    report = solver.validate_assignment(assignment, assignment.k, assignment.c)
    cert_ok = None
    cert_note = None
    if args.certificate is not None:
        certificate = formats.loads_certificate(_read(args.certificate))
        cert_ok, cert_note = solver.check_certificate(assignment, certificate)
    if args.json:
        sys.stdout.write(formats.json_line(vars(report) | {"certificate_consistent": cert_ok}))
    else:
        if report.valid:
            sys.stdout.write(
                f"valid ({assignment.k},{assignment.c})-assignment: "
                f"n={assignment.n} num_colors={assignment.num_colors}\n"
            )
        else:
            u, v = report.bad_pair
            sys.stdout.write(
                f"invalid: lists[{u}] and lists[{v}] overlap in "
                f"{report.overlap} > {assignment.c} colors\n"
            )
        if cert_ok is not None:
            status = "consistent" if cert_ok else "INCONSISTENT"
            sys.stdout.write(f"certificate {status}: {cert_note}\n")
    ok = report.valid and (cert_ok is not False)
    return EXIT_OK if ok else EXIT_ERROR


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="choosability",
        description="Extremal list assignments on complete graphs: "
                    "construct hard instances, decide colorability with "
                    "certificates, and tabulate bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="write the finite-field hard instance for (q, c)")
    p.add_argument("--q", type=int, required=True, help="prime power")
    p.add_argument("--c", type=int, required=True, help="pairwise intersection cap")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("solve", help="decide colorability of an instance file")
    p.add_argument("instance", help="instance JSON path")
    p.add_argument("--out", help="certificate path (default: stdout)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bounds", help="lower/upper/exact bound table")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, help="single n")
    group.add_argument("--range", help="inclusive range, e.g. 10..15")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("exact", help="exhaustive exact value for K_n (desk scale)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("probe", help="exhaustive check that no small graph "
                                     "needs larger lists than K_n")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("verify", help="validate an instance file and optionally "
                                      "a certificate against it")
    p.add_argument("instance", help="instance JSON path")
    p.add_argument("certificate", nargs="?", help="certificate JSON path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    # every refusal in the package (bad input, inadmissible (q, c), a search
    # or instance over its cap, is_prime's range) is a ValueError subclass;
    # deeply nested JSON can exhaust the interpreter's recursion limit
    except (ValueError, OverflowError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
