"""Command-line front end: single checks, family scans, verification suites.

Exit codes: 0 success, 1 usage or parse problem, 2 field construction problem,
3 verification failure (including any criteria/oracle disagreement, which is
treated as a hard error rather than a report row).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time

from .criteria import CriterionVerdict, applicable_criteria
from .errors import (
    BadIndex,
    EvenCharacteristicRejected,
    FieldTooLarge,
    NonPrime,
    ParseError,
    ScatterpolyError,
)
from .field import (
    DEFAULT_CAP,
    FieldCtx,
    FieldParams,
    field_basis,
    modulus_text,
)
from .linpoly import parse_poly
from .scatter import ScatterReport, is_exceptional_desk, is_scattered_bruteforce
from .verify import SUITES, run_suites

_CSV_COLUMNS = ["p", "m", "n", "poly", "index", "criteria", "oracle", "agree",
                "witness_y", "witness_z"]

_CONSTRUCTION_ERRORS = (NonPrime, FieldTooLarge, EvenCharacteristicRejected)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit 1
        raise ParseError(message)


def _default_cap() -> int:
    text = os.environ.get("SCATTERPOLY_CAP", str(DEFAULT_CAP))
    try:
        return int(text)
    except ValueError as exc:
        raise ParseError(
            f"SCATTERPOLY_CAP must be an integer, got {text!r}") from exc


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ParseError(f"bad integer list {text!r}") from exc


# ---------------------------------------------------------------------------
# JSON-friendly views


def _fingerprint(field: FieldParams) -> dict:
    """Sizes, plus modulus and generator when ``materialized`` (within the limit)."""
    materialized = isinstance(field, FieldCtx)
    base = {
        "p": field.p,
        "m": field.m,
        "n": field.n,
        "q": field.q,
        "extension_degree": field.degree,
        "size": field.size,
        "order": field.order,
        "projective_points": field.subfield_index,
        "materialized": materialized,
    }
    if materialized:
        base.update({
            "modulus": list(field.modulus),
            "modulus_text": modulus_text(field),
            "modulus_encoding": field.modulus_encoding,
            "gamma_coeffs": list(field.gamma_coeffs),
            "gamma_encoding": field.gamma_encoding,
            "factorization": [[prime, exp] for prime, exp in field.factorization],
        })
    return base


def _element_view(basis: FieldCtx, elem) -> dict:
    return {"dlog": elem.dlog, "coeffs": list(basis.coeffs(elem)), "text": str(elem)}


def _report_view(basis: FieldCtx, report: ScatterReport) -> dict:
    out = {
        "scattered": report.scattered,
        "index": report.index,
        "projective_points": report.projective_points,
        "distinct_ratio_values": report.distinct_ratio_values,
        "witness": None,
        "deciding_pair_count": report.deciding_pair_count,
    }
    if report.witness is not None:
        out["witness"] = {"y": _element_view(basis, report.witness[0]),
                          "z": _element_view(basis, report.witness[1])}
    return out


def _verdict_view(v: CriterionVerdict) -> dict:
    return {
        "source": v.source,
        "applicable": v.applicable,
        "verdict": v.verdict,
        "hypotheses": [{"name": h.name, "satisfied": h.satisfied,
                        "detail": h.detail} for h in v.hypotheses],
        "index_verdicts": [[t, bool(val)] for t, val in v.index_verdicts],
        "notes": list(v.notes),
    }


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# field-info


def cmd_field_info(args) -> int:
    basis = field_basis(args.p, args.m, args.n, cap=args.cap)
    if args.output == "json":
        print(_dump(_fingerprint(basis)))
        return 0
    factor_text = " * ".join(f"{prime}^{exp}" if exp > 1 else str(prime)
                             for prime, exp in basis.factorization) or "1"
    print(f"field F_{basis.q}^{basis.n} = F_{basis.p}^{basis.degree} "
          f"(p={basis.p}, m={basis.m}, n={basis.n})")
    print(f"modulus: {modulus_text(basis)} (encoding {basis.modulus_encoding})")
    print(f"generator g: coeffs {list(basis.gamma_coeffs)} "
          f"(encoding {basis.gamma_encoding}), order {basis.order}")
    print(f"group order: {basis.order} = {factor_text}")
    print(f"subfield index (q^n-1)/(q-1): {basis.subfield_index}")
    return 0


# ---------------------------------------------------------------------------
# requests: field, polynomial, CSV row


def _field(args, capped: bool) -> FieldParams:
    """The request's field: a FieldCtx, which builds its table only if read.

    Beyond :func:`field.table_limit` the sizes come back alone, or a
    ``capped`` request fails with FieldTooLarge.
    """
    try:
        return field_basis(args.p, args.m, args.n, cap=args.cap)
    except FieldTooLarge:
        if capped:
            raise
        return FieldParams(args.p, args.m, args.n)


def _row(params: FieldParams, poly_text: str, t: int,
         verdicts: list[CriterionVerdict], report: ScatterReport | None) -> dict:
    """One CSV row for ``check`` and ``scan``.

    ``criteria`` shows the first verdict at t; ``agree`` is "no" when any
    verdict at t contradicts the oracle.
    """
    def cell(scattered: bool) -> str:
        return "scattered" if scattered else "not-scattered"

    values = [v.verdict_for_index(t) for v in verdicts]
    values = [value for value in values if value is not None]
    oracle_cell = agree = witness_y = witness_z = ""
    if report is not None:
        oracle_cell = cell(report.scattered)
        if values:
            agree = "no" if any(v != report.scattered for v in values) else "yes"
        if report.witness is not None:
            witness_y, witness_z = str(report.witness[0]), str(report.witness[1])
    return {
        "p": params.p, "m": params.m, "n": params.n,
        "poly": poly_text, "index": t,
        "criteria": cell(values[0]) if values else "n/a",
        "oracle": oracle_cell, "agree": agree,
        "witness_y": witness_y, "witness_z": witness_z,
    }


def _print_csv(rows) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    sys.stdout.write(buf.getvalue())


# ---------------------------------------------------------------------------
# check


def build_check_envelope(args) -> tuple[dict, dict]:
    """Run one check request; returns (envelope, CSV row)."""
    t = args.index
    if not 0 <= t < args.n:
        raise BadIndex(f"index {t} out of range 0..{args.n - 1}")
    m_list = _parse_int_list(args.m_list) if args.m_list else []

    timing: dict[str, float] = {}
    t0 = time.perf_counter()
    oracle = args.mode in ("oracle", "both")
    field = _field(args, capped=oracle or bool(m_list))
    poly = parse_poly(field, args.poly)
    terms, poly_norm = poly.dlog_terms(), str(poly)
    build_s = time.perf_counter() - t0

    verdicts: list[CriterionVerdict] = []
    if args.mode in ("criteria", "both"):
        t0 = time.perf_counter()
        verdicts = applicable_criteria(field, terms, t)
        timing["criteria_s"] = time.perf_counter() - t0

    report = None
    if oracle:
        t0 = time.perf_counter()
        table_s = field.table_s
        report = is_scattered_bruteforce(field, poly, t, census=args.census)
        # a table the oracle built counts as construction, not as scanning
        table_s = field.table_s - table_s
        timing["oracle_s"] = time.perf_counter() - t0 - table_s
        build_s += table_s
    if isinstance(field, FieldCtx):
        timing["build_s"] = build_s

    tower = []
    if m_list:
        t0 = time.perf_counter()
        for verdict in is_exceptional_desk(args.p, args.m, args.n, terms, t, m_list,
                                           cap=args.cap, base=field):
            tower.append({
                "m": verdict.m,
                "extension_degree": verdict.ctx.n,
                "field_size": verdict.ctx.size,
                "report": _report_view(verdict.ctx, verdict.report),
            })
        timing["tower_s"] = time.perf_counter() - t0

    row = _row(field, poly_norm, t, verdicts, report)
    envelope = {
        "request": {
            "command": "check",
            "p": args.p, "m": args.m, "n": args.n,
            "poly": args.poly, "poly_normalized": poly_norm,
            "index": t, "mode": args.mode, "census": args.census,
            "jobs": args.jobs, "cap": args.cap, "m_list": m_list,
        },
        "field": _fingerprint(field),
        "results": {
            "criteria": [_verdict_view(v) for v in verdicts],
            "oracle": _report_view(field, report) if report is not None else None,
            "agreement": (None if report is None or not verdicts
                          else row["agree"] != "no"),
            "tower": tower,
        },
        "timing": timing,
    }
    return envelope, row


def cmd_check(args) -> int:
    envelope, row = build_check_envelope(args)
    if args.output == "json":
        print(_dump(envelope))
    elif args.output == "csv":
        _print_csv([row])
    else:
        _print_check_text(envelope)
    if row["agree"] == "no":
        print("error: criteria and oracle disagree; this falsifies a criterion",
              file=sys.stderr)
        return 3
    return 0


def _print_check_text(envelope) -> None:
    req = envelope["request"]
    res = envelope["results"]
    print(f"check {req['poly_normalized']} over "
          f"F_{envelope['field']['q']}^{req['n']} at index {req['index']}")
    for v in res["criteria"]:
        if v["applicable"]:
            per_index = ", ".join(f"@{t}: {'scattered' if val else 'not scattered'}"
                                  for t, val in v["index_verdicts"])
            if not per_index:
                per_index = "holds" if v["verdict"] else "does not hold"
            print(f"  criterion {v['source']}: {per_index}")
        else:
            missing = [h["name"] for h in v["hypotheses"] if not h["satisfied"]]
            print(f"  criterion {v['source']}: not applicable ({', '.join(missing)})")
    oracle = res["oracle"]
    if oracle is not None:
        line = (f"  oracle: {'scattered' if oracle['scattered'] else 'not scattered'} "
                f"({oracle['distinct_ratio_values']}/{oracle['projective_points']} "
                f"distinct ratio values)")
        if oracle["deciding_pair_count"] is not None:
            line += f", {oracle['deciding_pair_count']} deciding pairs"
        print(line)
        if oracle["witness"] is not None:
            print(f"  witness: y={oracle['witness']['y']['text']}, "
                  f"z={oracle['witness']['z']['text']}")
    if res["agreement"] is not None:
        print(f"  agreement: {'yes' if res['agreement'] else 'NO'}")
    for step in res["tower"]:
        verdict = "scattered" if step["report"]["scattered"] else "not scattered"
        print(f"  tower m={step['m']} (degree {step['extension_degree']}, "
              f"size {step['field_size']}): {verdict}")


# ---------------------------------------------------------------------------
# scan


def _scan_family(args, params: FieldParams):
    """The family's member texts, and the function giving each member's indices."""
    if args.indices == "all":
        explicit = list(range(params.n))
    elif args.indices and args.indices != "own":
        explicit = _parse_int_list(args.indices)
    else:
        explicit = None

    if args.family == "pseudoregulus":
        texts = [f"{r}:g^0" for r in range(params.n)]
        if explicit is None:
            explicit = list(range(params.n))
    elif args.family == "binomial":
        coeffs = _parse_int_list(args.coeff_dlogs) if args.coeff_dlogs else \
            ([0, params.order // 2] if params.order % 2 == 0 else [0])
        texts = []
        for r1 in range(1, params.n):
            bound = params.q**r1 - 1
            for r2 in range(r1 + 1, params.n):
                for k1 in coeffs:
                    for k2 in coeffs:
                        order2 = params.order // math.gcd(params.order, k2)
                        if bound % order2 == 0:
                            texts.append(f"{r1}:g^{k1 % params.order},"
                                         f"{r2}:g^{k2 % params.order}")
    elif args.family == "custom":
        texts = args.poly
    else:
        raise ParseError(f"unknown family {args.family!r}")

    def indices(terms):
        if explicit is None:
            return sorted({r for r, _ in terms})
        for t in explicit:
            if not 0 <= t < params.n:
                raise BadIndex(f"index {t} out of range 0..{params.n - 1}")
        return explicit

    return texts, indices


def cmd_scan(args) -> int:
    field = _field(args, capped=False)
    texts, indices = _scan_family(args, field)
    rows = []
    for text in texts:
        poly = parse_poly(field, text)
        terms = poly.dlog_terms()
        for t in indices(terms):
            verdicts = applicable_criteria(field, terms, t)
            report = None
            if isinstance(field, FieldCtx):
                report = is_scattered_bruteforce(field, poly, t)
            rows.append(_row(field, text, t, verdicts, report))

    if args.output == "json":
        print(_dump({"request": {"command": "scan", "family": args.family,
                                 "p": args.p, "m": args.m, "n": args.n},
                     "rows": rows}))
    elif args.output == "text":
        for row in rows:
            print(f"{row['poly']} @ {row['index']}: criteria={row['criteria']} "
                  f"oracle={row['oracle'] or 'skipped'}"
                  + (f" agree={row['agree']}" if row["agree"] else ""))
    else:
        _print_csv(rows)
    if any(row["agree"] == "no" for row in rows):
        print("error: criteria and oracle disagree somewhere in the scan",
              file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    try:
        results = run_suites(args.suite)
    except KeyError as exc:
        raise ParseError(exc.args[0]) from exc
    if args.output == "json":
        print(_dump([{
            "name": r.name, "passed": r.passed, "checks": r.checks,
            "failures": r.failures, "seconds": r.seconds, "metrics": r.metrics,
        } for r in results]))
    else:
        for r in results:
            print(r.line())
        total = sum(r.checks for r in results)
        failed = [r.name for r in results if not r.passed]
        print(f"{len(results)} suites, {total} checks, "
              f"{'all passed' if not failed else 'FAILED: ' + ', '.join(failed)}")
    return 0 if all(r.passed for r in results) else 3


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="scatterpoly",
                     description="Scatteredness of linearized polynomials over "
                                 "small finite fields: exhaustive oracle, fast "
                                 "criteria, verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_field_args(p, cap=True):
        p.add_argument("--p", type=int, required=True, help="characteristic")
        p.add_argument("--m", type=int, default=1, help="q = p^m (default 1)")
        p.add_argument("--n", type=int, required=True, help="extension degree over F_q")
        if cap:
            p.add_argument("--cap", type=int, default=_default_cap(),
                           help="max field size for table construction "
                                "(env SCATTERPOLY_CAP)")

    info = sub.add_parser("field-info", help="print the field fingerprint")
    add_field_args(info)
    info.add_argument("--output", choices=("text", "json"), default="text")
    info.set_defaults(func=cmd_field_info)

    check = sub.add_parser("check", help="decide one polynomial at one index")
    add_field_args(check)
    check.add_argument("--poly", required=True,
                       help="terms r:g^k or r:[c0,c1,...], comma separated")
    check.add_argument("--index", type=int, required=True)
    check.add_argument("--mode", choices=("oracle", "criteria", "both"),
                       default="both")
    check.add_argument("--output", choices=("text", "json", "csv"), default="text")
    check.add_argument("--jobs", type=int, default=1,
                       help="ignored: the scan is serial; kept so existing "
                            "command lines still parse and echo it")
    check.add_argument("--census", action="store_true",
                       help="also count deciding pairs")
    check.add_argument("--m-list", dest="m_list", default="",
                       help="extension multipliers for the tower oracle, e.g. 1,2")
    check.set_defaults(func=cmd_check)

    scan = sub.add_parser("scan", help="sweep a family and cross-check")
    add_field_args(scan)
    scan.add_argument("--family", choices=("pseudoregulus", "binomial", "custom"),
                      required=True)
    scan.add_argument("--poly", action="append", default=[],
                      help="custom family member (repeatable)")
    scan.add_argument("--indices", default="own",
                      help="'all', 'own' (family-specific), or a comma list")
    scan.add_argument("--coeff-dlogs", dest="coeff_dlogs", default="",
                      help="coefficient dlogs for the binomial family "
                           "(default: 0 and the dlog of -1)")
    scan.add_argument("--output", choices=("csv", "json", "text"), default="csv")
    scan.set_defaults(func=cmd_scan)

    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.add_argument("--suite", required=True,
                        help=f"one of: {', '.join(SUITES)}")
    verify.add_argument("--output", choices=("text", "json"), default="text")
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _CONSTRUCTION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ScatterpolyError, ValueError, KeyError) as exc:  # usage and parse problems
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
