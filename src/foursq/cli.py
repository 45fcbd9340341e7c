"""Command-line front end: gen, verify, search, prove, seq.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 verification/proof failure, 2 usage or domain error, 141 (128 + SIGPIPE,
as a shell reports a process the signal killed) when stdout is closed
before the output is written, with nothing on stderr.  All potentially
large integers are serialized as decimal strings, and output is
byte-identical across runs for identical arguments.
"""

import argparse
import functools
import json
import os
import sys
from typing import Optional

from .certify import Certificate, DomainError, verify_four
from .family import (ConstructionError, index_points, make_companion,
                     make_main)
from .search import ORACLE_MAX_BOUND, brute_oracle, census_path, search_triples
from .sequences import sequence_values
from .symbolic import prove_identities

SCHEMA_VERSION = "1"
INDEX_CAP = 10_000  # sequence indices accepted on the command line

CSV_COLUMNS = ["n", "variant", "a", "r", "b", "c", "s", "admissible"]


def _certificate_record(cert: Certificate) -> dict:
    """The JSON form of a verify certificate.  A `Certificate` is a tuple,
    which `json` would write as an array of numbers."""
    return {"ab": str(cert.r_ab), "ac": str(cert.r_ac), "bc": str(cert.r_bc),
            "abc": str(cert.r_abc)}


def _row(fmt: str, n: Optional[int], variant: str, a: int, r: int, b: int,
         c: int, s: int, admissible: bool, cert: Certificate):
    """One gen or search member as the row it is printed as: for JSON a
    record with its certificate, otherwise the list of its CSV_COLUMNS
    strings, with no certificate strings built.  In every gen and search
    member the certificate's r_ab is |r| and its r_abc is s, so the record
    reuses the strings of r, its sign dropped, and of s."""
    r_str, s_str = str(r), str(s)
    if fmt != "json":
        return ["" if n is None else str(n), variant, str(a), r_str, str(b),
                str(c), s_str, str(admissible)]
    return {"n": None if n is None else str(n), "variant": variant,
            "a": str(a), "r": r_str, "b": str(b), "c": str(c), "s": s_str,
            "admissible": admissible,
            "certificate": {"ab": r_str.lstrip("-"), "ac": str(cert.r_ac),
                            "bc": str(cert.r_bc), "abc": s_str}}


def _emit_json(command: str, payload: dict) -> None:
    doc = {"schema_version": SCHEMA_VERSION, "command": command, "payload": payload}
    print(json.dumps(doc, indent=2))


def _emit(fmt: str, command: str, payload: dict, rows: list) -> None:
    """Print gen or search output: the whole JSON `payload`, which holds
    the `rows` records, or the `rows` string lists as CSV or as a table.
    No CSV field needs quoting (decimal integers with an optional sign,
    fixed words, the empty n of search rows), so a row is its fields
    joined by commas, as `csv.writer` would write it."""
    if fmt == "json":
        _emit_json(command, payload)
    elif fmt == "csv":
        for row in [CSV_COLUMNS, *rows]:
            sys.stdout.write(",".join(row) + "\n")
    else:
        widths = [max(map(len, col)) for col in zip(CSV_COLUMNS, *rows)]
        for row in [CSV_COLUMNS, *rows]:
            print("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())


def _check_index_range(start: int, stop: int) -> None:
    for n in (start, stop):
        if abs(n) > INDEX_CAP:
            raise DomainError(f"index {n} exceeds the CLI index cap {INDEX_CAP}")
    if start > stop:
        raise DomainError(f"empty index range {start}..{stop}")


def _cmd_gen(args) -> int:
    _check_index_range(args.start, args.stop)
    variants = ["main", "companion"] if args.variant == "both" else [args.variant]
    makers = [make_main if variant == "main" else make_companion
              for variant in variants]
    rows = []
    # one point and one set of power lists per index, for every variant
    for at in index_points(args.start, args.stop):
        for make in makers:
            cand = make(at.n, at)
            rows.append(_row(args.format, cand.n, cand.variant, cand.a,
                             cand.r, cand.b, cand.c, cand.s, cand.admissible,
                             cand.certificate()))
    _emit(args.format, "gen", {"records": rows}, rows)
    return 0


def _cmd_verify(args) -> int:
    a, b, c = int(args.a), int(args.b), int(args.c)
    outcome = verify_four(a, b, c)
    if args.format == "json":
        payload = {
            "a": str(a), "b": str(b), "c": str(c),
            "ok": outcome.ok,
            "certificate": (_certificate_record(outcome.certificate)
                            if outcome.ok else None),
            "first_failure": outcome.first_failure,
            "failing_value": (None if outcome.failing_value is None
                              else str(outcome.failing_value)),
        }
        _emit_json("verify", payload)
    else:
        if outcome.ok:
            cert = outcome.certificate
            print(f"ok ({a},{b},{c}): roots ab={cert.r_ab} ac={cert.r_ac} "
                  f"bc={cert.r_bc} abc={cert.r_abc}")
        else:
            print(f"fail ({a},{b},{c}): {outcome.first_failure}+1="
                  f"{outcome.failing_value} not square")
    return 0 if outcome.ok else 1


def _cmd_search(args) -> int:
    # check the census, then run the oracle, so that a census that cannot
    # run and the oracle's bound cap both fail before any output
    use_kernel, reason = census_path(args.max, args.pure, args.jobs)
    reference = brute_oracle(args.max) if args.oracle else None
    print(f"search path: {'kernel' if use_kernel else 'pure Python'} "
          f"({reason})", file=sys.stderr)
    result = search_triples(args.max, jobs=args.jobs, force_pure=args.pure)
    rows = [_row(args.format, None, "external", a, cert.r_ab, b, c,
                 cert.r_abc, True, cert)
            for a, b, c, cert in result.triples]
    _emit(args.format, "search", {
        "bound": result.bound,
        "count": len(rows),
        "triples": rows,
        "stats": {
            "pairs_scanned": result.stats.pairs_scanned,
            "candidates_tested": result.stats.candidates_tested,
        },
    }, rows)
    print(f"search --max {result.bound}: {len(rows)} triples, "
          f"{result.stats.pairs_scanned} pairs scanned, "
          f"{result.stats.candidates_tested} candidates tested, "
          f"{result.stats.elapsed:.3f}s", file=sys.stderr)
    if reference is not None:
        if reference.triples != result.triples:
            got = {t[:3] for t in result.triples}
            want = {t[:3] for t in reference.triples}
            print(f"oracle mismatch: missing={sorted(want - got)} "
                  f"extra={sorted(got - want)}", file=sys.stderr)
            return 1
        print("oracle agrees", file=sys.stderr)
    return 0


def _cmd_prove(args) -> int:
    report = prove_identities()
    if args.format == "json":
        _emit_json("prove", {
            "identities": [
                {"name": it.name, "description": it.description,
                 "passed": it.passed, "note": it.note}
                for it in report.items
            ],
            "core_ok": report.core_ok,
        })
    else:
        print(f"{'name':5} {'status':7} description")
        for it in report.items:
            status = "pass" if it.passed else "FAIL"
            note = f"  [{it.note}]" if it.note else ""
            print(f"{it.name:5} {status:7} {it.description}{note}")
            if it.residual is not None:
                print(f"      residual: {it.residual!r}")
        print(f"core identities: {report.core_passed}/{report.core_total} "
              f"pass")
    return 0 if report.core_ok else 1


def _cmd_seq(args) -> int:
    _check_index_range(args.start, args.stop)
    values = sequence_values(args.name.upper(), args.start, args.stop)
    print(" ".join(str(v) for v in values))
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused.

    Reuse is safe because the parser holds no per-call state: argparse
    looks up sys.stdout, sys.stderr and the terminal width when it prints,
    and each `_cmd_*` handler looks up its globals when it runs.
    """
    parser = argparse.ArgumentParser(
        prog="foursq",
        description="Four-square triples: generate family members, verify, "
                    "search exhaustively, and machine-check the identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="evaluate the families over an index range")
    p.add_argument("start", type=int)
    p.add_argument("stop", type=int)
    p.add_argument("variant", nargs="?", choices=["main", "companion", "both"],
                   default="main")
    p.add_argument("--format", choices=["json", "csv", "table"], default="table")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="check the four square conditions")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("c")
    p.add_argument("--format", choices=["json", "table"], default="table")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="exhaustive census up to a bound")
    p.add_argument("--max", type=int, required=True, help="upper bound for c")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers (default 1; at most one per CPU)")
    p.add_argument("--oracle", action="store_true",
                   help=f"cross-check against the brute-force reference "
                        f"(bound <= {ORACLE_MAX_BOUND})")
    p.add_argument("--pure", action="store_true",
                   help="force the pure-Python path even if the kernel is built")
    p.add_argument("--format", choices=["json", "csv", "table"], default="table")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("prove", help="machine-check the family identities")
    p.add_argument("--format", choices=["json", "table"], default="table")
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("seq", help="print P, A or R over an index range")
    p.add_argument("name", choices=["P", "A", "R", "p", "a", "r"])
    p.add_argument("start", type=int)
    p.add_argument("stop", type=int)
    p.set_defaults(func=_cmd_seq)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage
        return int(exc.code or 0)
    # Indices up to INDEX_CAP and verify arguments have far more than the
    # 4300 decimal digits CPython 3.11+ converts by default.
    digit_limit = (sys.get_int_max_str_digits()
                   if hasattr(sys, "get_int_max_str_digits") else None)
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader went away (say `| head -1`); point stdout at devnull so
        # that the flush at interpreter exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except ConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
