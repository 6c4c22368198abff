"""Command-line entry point wiring the whole toolkit together.

Exit codes: 0 on success, 1 when a requested check computes a failing
verdict (or an output file cannot be written), 2 on usage errors and on
requests that are refused before any computation (unknown names, unbound
parameters, budget refusals).  All reports are deterministic: JSON output
uses sorted keys and exact rational strings, text output has a stable line
order, and files are written atomically (temp file, then rename).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np

from .algebra import (
    CatalogError,
    bind_params,
    data_dir,
    leibniz_residual,
    load_catalog,
    load_errata,
    lower_central_series,
    printed_variant,
    witness_dict,
)
from .compat import (
    compat_scan,
    is_compatible,
    lambda_sample_check,
    load_claimed_pairs,
    pair_witness,
)
from .exact import ExactError, ExprSyntaxError, parse_expr
from .fp import (
    DEFAULT_BUDGET,
    RefusedSize,
    _check_prime,
    bind_family,
    coverage,
    matrix_rows,
    sweep_kernel,
    sweep_shard,
)
from .operators import (
    KIND_NAMES,
    audit_families,
    audit_summary,
    build_system,
    dimension_report,
    load_families,
    make_kind,
    verify_family,
)


class UsageError(Exception):
    """Bad flags or names; reported on stderr with exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# shared plumbing

def _base_dir(args) -> Path:
    if getattr(args, "data_dir", None):
        return Path(args.data_dir)
    return data_dir()


def _load_tables(args):
    return load_catalog(_base_dir(args) / "catalog.json")


def _find(tables, name):
    for t in tables:
        if t.name == name:
            return t
    raise UsageError(f"unknown algebra {name!r}")


def _table(args, name):
    return _find(_load_tables(args), name)


def _families_for(args, kind_name):
    path = _base_dir(args) / "families" / (kind_name.replace("-", "_")
                                           + ".json")
    return load_families(kind_name, path)


def _parse_params(pairs):
    out = {}
    for item in pairs or []:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise UsageError(f"--param expects NAME=VALUE, got {item!r}")
        try:
            out[name] = parse_expr(value)
        except ExprSyntaxError as err:
            raise UsageError(f"--param {item!r}: {err}") from err
    return out


def _bind(table, params, *, require_bound=False):
    if params:
        try:
            table = bind_params(table, params)
        except ValueError as err:
            raise UsageError(str(err)) from err
    if require_bound and not table.is_bound():
        names = ", ".join(table.param_names())
        raise UsageError(
            f"{table.name} has unbound parameters ({names}); "
            f"bind them with --param NAME=VALUE")
    return table


def _make_kind(args):
    weight = getattr(args, "weight", None)
    if weight is not None and args.op != "rota-baxter":
        raise UsageError("--weight applies to rota-baxter only")
    try:
        return make_kind(args.op, weight)
    except (ValueError, ExprSyntaxError) as err:
        raise UsageError(str(err)) from err


def _canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2,
                      ensure_ascii=True) + "\n"


def _emit(args, payload, lines) -> None:
    text = _canonical_json(payload) if args.format == "json" \
        else "\n".join(lines) + "\n"
    if args.output:
        _atomic_write(Path(args.output), text)
    else:
        sys.stdout.write(text)


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                               prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# commands

def cmd_catalog(args) -> int:
    tables = _load_tables(args)
    if args.action == "list":
        payload = [{"name": t.name, "dim": t.dim,
                    "params": t.param_names()} for t in tables]
        _emit(args, payload, [t.name for t in tables])
        return 0
    if not args.name:
        raise UsageError("catalog show needs an algebra name")
    t = _find(tables, args.name)
    entries = [[i + 1, j + 1, k + 1, str(t.c[i][j][k])]
               for i in range(t.dim) for j in range(t.dim)
               for k in range(t.dim) if not t.c[i][j][k].is_zero]
    payload = {"name": t.name, "dim": t.dim,
               "params": [{"name": p.name, "admissible": p.admissible}
                          for p in t.params],
               "entries": entries}
    lines = [f"{t.name}  (dim {t.dim})"]
    for p in t.params:
        lines.append(f"  parameter {p.name} in {p.admissible}")
    for i, j, k, e in entries:
        lines.append(f"  [e{i}, e{j}] -> {e} * e{k}")
    _emit(args, payload, lines)
    return 0


def cmd_check_leibniz(args) -> int:
    table = _table(args, args.name)
    reading = "shipped"
    if args.as_printed:
        errata = load_errata(_base_dir(args) / "errata.json")
        match = next((e for e in errata if e["algebra"] == args.name
                      and e.get("printed_table")), None)
        if match is None:
            raise UsageError(
                f"no alternative printed reading recorded for {args.name}")
        table = printed_variant(table, match)
        reading = "as-printed"
    table = _bind(table, _parse_params(args.param))
    hit = leibniz_residual(table).first_failure()
    payload = {"algebra": args.name, "reading": reading,
               "residual_zero": hit is None, "witness": witness_dict(hit)}
    if hit is None:
        lines = [f"{args.name} ({reading}): bracket identity holds"]
    else:
        i, j, k, q, value = hit
        lines = [f"{args.name} ({reading}): identity fails at "
                 f"(e{i}, e{j}, e{k}), coordinate {q}: {value}"]
    _emit(args, payload, lines)
    return 0 if hit is None else 1


def cmd_lcs(args) -> int:
    table = _bind(_table(args, args.name), _parse_params(args.param),
                  require_bound=True)
    dims, nilpotent = lower_central_series(table)
    payload = {"algebra": args.name, "dims": dims, "nilpotent": nilpotent}
    lines = [f"{args.name}: descending bracket powers {dims} "
             f"({'nilpotent' if nilpotent else 'not nilpotent'})"]
    _emit(args, payload, lines)
    return 0 if nilpotent else 1


def cmd_equations(args) -> int:
    table = _bind(_table(args, args.name), _parse_params(args.param))
    kind = _make_kind(args)
    sys_ = build_system(table, kind)
    eqs = []
    for eq, den, (i, j, q, cond) in zip(sys_.equations, sys_.denominators,
                                        sys_.labels):
        row = {"i": i, "j": j, "q": q, "poly": str(eq)}
        if cond:
            row["condition"] = cond
        if not den.is_const or str(den) != "1":
            row["denominator"] = str(den)
        eqs.append(row)
    payload = {"algebra": args.name, "kind": kind.name,
               "weight": str(kind.weight) if kind.weight is not None else None,
               "unknowns": list(sys_.unknowns),
               "max_degree": sys_.max_degree(),
               "equations": eqs}
    lines = [f"{args.name} {kind.name}: {len(eqs)} equations in "
             f"{len(sys_.unknowns)} unknowns, degree {sys_.max_degree()}"]
    for row in eqs:
        tag = f"({row['i']},{row['j']},{row['q']}"
        tag += f",{row['condition']})" if "condition" in row else ")"
        body = row["poly"]
        if "denominator" in row:
            body = f"({body}) / ({row['denominator']})"
        lines.append(f"  {tag}  {body} = 0")
    _emit(args, payload, lines)
    return 0


def cmd_verify(args) -> int:
    if args.family_file:
        fams = load_families(None, Path(args.family_file))
    elif args.kind:
        fams = _families_for(args, args.kind)
    else:
        fams = []
        for kind_name in KIND_NAMES:
            fams.extend(_families_for(args, kind_name))
    if args.algebra:
        fams = [f for f in fams if f.algebra == args.algebra]
    if args.index is not None:
        fams = [f for f in fams if f.index == args.index]
    if not fams:
        raise UsageError("no families match the given filters")
    cmap = {t.name: t for t in _load_tables(args)}
    missing = sorted({f.algebra for f in fams} - set(cmap))
    if missing:
        raise UsageError(f"families reference unknown algebras {missing}")
    rows = audit_families(cmap, fams, symbolic_weight=args.symbolic_weight)
    by_kind = {}
    for r in rows:
        by_kind.setdefault(r["kind"], []).append(r)
    payload = {"families": rows,
               "summary": {k: audit_summary(v) for k, v in by_kind.items()}}
    lines = []
    for r in rows:
        label = f"{r['algebra']} {r['kind']} #{r['index']}"
        if r["status"] == "malformed":
            lines.append(f"{label}: malformed ({r.get('note', '')})")
        elif r["status"] == "fails":
            w = r["witness"]
            where = f"({w['i']},{w['j']},{w['q']}"
            where += f",{w['condition']})" if "condition" in w else ")"
            lines.append(f"{label}: fails at {where}: {w['poly']}")
        else:
            lines.append(f"{label}: {r['status']} (dim {r['dim']})")
    for kind_name in sorted(by_kind):
        s = payload["summary"][kind_name]
        lines.append(f"{kind_name}: {s['pass_rate']} hold "
                     f"({s['malformed']} malformed, {s['fails']} fail)")
    _emit(args, payload, lines)
    return 1 if any(r["status"] == "fails" for r in rows) else 0


def cmd_dim_report(args) -> int:
    kinds = [args.kind] if args.kind else list(KIND_NAMES)
    cmap = {t.name: t for t in _load_tables(args)}
    payload = {}
    lines = []
    for kind_name in kinds:
        fams = _families_for(args, kind_name)
        rep = dimension_report(cmap, fams, kind_name)
        payload[kind_name] = rep
        lo, hi = rep["claimed_range"]
        got = rep["achieved_range"]
        lines.append(f"{kind_name}: claimed {lo}..{hi}, verified "
                     + (f"{got[0]}..{got[1]}" if got else "none"))
        for name in sorted(rep["per_algebra"],
                           key=lambda s: (len(s), s)):
            info = rep["per_algebra"][name]
            lines.append(f"  {name}: {info['max_dim']} parameters "
                         f"(family #{info['family_index']})")
        for m in rep["mismatches"]:
            lines.append(f"  {m['bound']} mismatch: claimed {m['claimed']}, "
                         f"achieved {m['achieved']} by {m['family']}")
        if rep["algebras_without_verified_family"]:
            lines.append("  no verified family: "
                         + ", ".join(rep["algebras_without_verified_family"]))
    _emit(args, payload, lines)
    return 0


def _field(args) -> int:
    try:
        _check_prime(args.field)
    except ValueError as err:
        raise UsageError(f"--field: {err}") from err
    return args.field


def _sweep(args):
    """The start shared by enumerate and coverage: bind the table, make
    the kind, read the field, and sweep.

    The kernel is built once, making every refusal before any worker
    starts.  A sweep within DEFAULT_BUDGET, or on one CPU, runs in this
    process; a larger one runs its p^n shards on a pool of min(p^n, CPU
    count) processes, each shard job carrying only the kernel and its
    shard number, and at most four jobs per process submitted at once.
    Returns (source table, parsed --param values, bound table, kind, p,
    ascending solution indices).
    """
    source = _table(args, args.name)
    params = _parse_params(args.param)
    table = _bind(source, params, require_bound=True)
    kind = _make_kind(args)
    if kind.name == "rota-baxter" and kind.weight.params():
        raise UsageError("--weight must be a constant for finite-field work")
    p = _field(args)
    evaluate = sweep_kernel(table, kind, p, budget=args.budget,
                            path=args.path)
    n = table.dim
    workers = min(p ** n, os.cpu_count() or 1)
    if p ** (n * n) <= DEFAULT_BUDGET or workers == 1:
        return source, params, table, kind, p, sweep_shard(evaluate, n, p)
    # imported only here, so that no other command loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # Executor.map submits a job for every item before it yields a result,
    # so the shards go to it in batches of a few per worker
    shards, batch, parts = p ** n, 4 * workers, []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for start in range(0, shards, batch):
            parts += pool.map(partial(sweep_shard, evaluate, n, p),
                              range(start, min(start + batch, shards)))
    return source, params, table, kind, p, np.sort(np.concatenate(parts))


def _matrix_rows(rows: list) -> str:
    return "; ".join(" ".join(str(x) for x in row) for row in rows)


def cmd_enumerate(args) -> int:
    _, _, table, kind, p, sols = _sweep(args)
    n = table.dim
    shown = [{"index": m, "entries": matrix_rows(m, n, p)}
             for m in sols[:args.limit or None].tolist()]
    payload = {"algebra": table.name, "kind": kind.name, "p": p,
               "total": p ** (n * n), "count": int(sols.size),
               "solutions": shown, "shown": len(shown)}
    lines = [f"{table.name} {kind.name} over F_{p}: "
             f"{sols.size} solutions among {p ** (n * n)} matrices"]
    lines.extend(f"  #{s['index']}: {_matrix_rows(s['entries'])}"
                 for s in shown)
    if len(shown) < sols.size:
        lines.append(f"  ... {sols.size - len(shown)} more "
                     f"(raise --limit to see them)")
    _emit(args, payload, lines)
    return 0


def cmd_coverage(args) -> int:
    source, params, table, kind, p, sols = _sweep(args)
    fams = [f for f in _families_for(args, kind.name)
            if f.algebra == table.name and not f.malformed]
    verified = [bind_family(f, params) for f in fams
                if verify_family(source, f).holds]
    rep = coverage(table, kind, p, verified, solutions=sols,
                   budget=args.budget, cap=args.cap)
    payload = rep.as_dict()
    lines = [f"{rep.algebra} {rep.kind} over F_{rep.p}: "
             f"{rep.covered} of {rep.total_solutions} solutions covered "
             f"by {len(rep.families_used)} charts",
             f"  note: {rep.note}"]
    for used in rep.families_used:
        lines.append(f"  {used['family']}: {used['points']} points")
    for skip in rep.families_skipped:
        lines.append(f"  skipped {skip['family']}: {skip['reason']}")
    lines.extend(f"  uncovered #{u['index']}: {_matrix_rows(u['entries'])}"
                 for u in payload["uncovered"])
    if rep.total_solutions - rep.covered > len(rep.uncovered):
        lines.append(f"  ... uncovered list capped at {rep.cap}")
    _emit(args, payload, lines)
    return 1 if rep.chart_points_outside else 0


def cmd_compat(args) -> int:
    params = _parse_params(args.param)
    tables = _load_tables(args)
    a = _bind(_find(tables, args.a), params)
    b = _bind(_find(tables, args.b), params)
    ok = is_compatible(a, b)
    witness = None if ok else pair_witness(a, b)
    samples = None
    if ok and args.lambda_samples:
        samples = lambda_sample_check(a, b, samples=args.lambda_samples)
    payload = {"pair": [a.name, b.name], "compatible": ok,
               "witness": witness_dict(witness),
               "lambda_checks": samples}
    if ok:
        lines = [f"{a.name} and {b.name}: compatible"]
        if samples:
            lines.append(f"  {samples['samples']} random bracket pencils "
                         "checked" + ("" if samples["ok"] else " (FAILED)"))
    else:
        lines = [f"{a.name} and {b.name}: not compatible"]
        if witness is not None:
            i, j, k, q, value = witness
            lines.append(f"  mixed identity fails at (e{i}, e{j}, e{k}), "
                         f"coordinate {q}: {value}")
        else:
            lines.append("  a bracket fails its own identity")
    _emit(args, payload, lines)
    return 0 if ok else 1


def _parse_pool(text, tables):
    if not text:
        return None
    name, sep, values = text.partition("=")
    if not sep:
        raise UsageError("--params expects NAME=V1,V2,...")
    if not any(name in t.param_names() for t in tables):
        raise UsageError(f"--params {text!r}: no table has a parameter "
                         f"{name!r}")
    try:
        pool = [parse_expr(v).as_scalar() for v in values.split(",")]
    except (ExprSyntaxError, ValueError) as err:
        raise UsageError(f"--params {text!r}: {err}") from err
    if not all(v.is_real for v in pool):
        raise UsageError(f"--params {text!r}: sample values must be real")
    return [v.re for v in pool]


def cmd_compat_scan(args) -> int:
    tables = _load_tables(args)
    claimed = load_claimed_pairs(_base_dir(args)
                                 / "claimed_compatible_pairs.json")
    rep = compat_scan(tables, claimed=claimed,
                      lambda_samples=args.lambda_samples,
                      pool=_parse_pool(args.params, tables))
    payload = rep.as_dict()
    lines = [
        f"checked {len(rep.pairs_checked)} pairs over {len(rep.names)} "
        f"tables; {len(rep.compatible)} compatible",
        f"  note: {rep.note}",
        f"  self-compatible: {len(rep.diagonal_compatible)} of "
        f"{len(rep.names)}",
        "  compatible: " + ", ".join(f"({a},{b})"
                                     for a, b in rep.compatible),
        "  claimed but failing: "
        + (", ".join(f"({a},{b})" for a, b in rep.claimed_but_failing)
           or "none"),
        "  passing but unclaimed: "
        + (", ".join(f"({a},{b})" for a, b in rep.passing_but_unclaimed)
           or "none"),
        "  unmatchable claims: "
        + (", ".join(f"({a},{b})" for a, b in rep.unmatchable_claims)
           or "none"),
    ]
    if rep.lambda_checks:
        lc = rep.lambda_checks
        lines.append(f"  bracket pencils: {lc['samples']} samples x "
                     f"{lc['pairs_checked']} pairs "
                     + ("all pass" if lc["ok"] else "FAILURES"))
    ok = (len(rep.diagonal_compatible) == len(rep.names)
          and (rep.lambda_checks is None or rep.lambda_checks["ok"]))
    _emit(args, payload, lines)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser

def _count(text: str) -> int:
    """The argparse type of every count flag: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


def _add_common(sub):
    sub.add_argument("--data-dir", help="directory holding catalog and "
                     "family data (default: packaged data, or "
                     "LEIBNIZ_DATA_DIR)")
    sub.add_argument("--format", choices=("text", "json"), default="text",
                     help="output format (default text)")
    sub.add_argument("--output", help="write the report to this file "
                     "atomically instead of stdout")


def build_parser() -> _Parser:
    parser = _Parser(prog="leibnizalg",
                     description="exact toolkit for four-dimensional right "
                                 "Leibniz algebras given by structure "
                                 "constants")
    subs = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = subs.add_parser("catalog", help="list or show the algebra catalog")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("name", nargs="?", help="algebra name for show")
    _add_common(p)
    p.set_defaults(func=cmd_catalog)

    p = subs.add_parser("check-leibniz",
                        help="check the bracket identity for one algebra")
    p.add_argument("name")
    p.add_argument("--param", action="append", metavar="NAME=VALUE")
    p.add_argument("--as-printed", action="store_true",
                   help="check the recorded as-printed table variant instead")
    _add_common(p)
    p.set_defaults(func=cmd_check_leibniz)

    p = subs.add_parser("lcs", help="dimensions of the descending series "
                                    "of bracket powers")
    p.add_argument("name")
    p.add_argument("--param", action="append", metavar="NAME=VALUE")
    _add_common(p)
    p.set_defaults(func=cmd_lcs)

    p = subs.add_parser("equations", help="print an operator equation system")
    p.add_argument("name")
    p.add_argument("--op", required=True, choices=KIND_NAMES)
    p.add_argument("--weight", help="rota-baxter weight (default 0); "
                                    "may be symbolic")
    p.add_argument("--param", action="append", metavar="NAME=VALUE")
    _add_common(p)
    p.set_defaults(func=cmd_equations)

    p = subs.add_parser("verify", help="verify transcribed operator families")
    p.add_argument("family_file", nargs="?",
                   help="family JSON file (default: packaged data)")
    p.add_argument("--kind", choices=KIND_NAMES,
                   help="restrict to one operator kind")
    p.add_argument("--algebra", help="restrict to one algebra")
    p.add_argument("--index", type=int, help="restrict to one family index")
    p.add_argument("--symbolic-weight",
                   action=argparse.BooleanOptionalAction, default=True,
                   help="recheck weight-0 rota-baxter charts with a "
                        "symbolic weight (default on)")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("dim-report",
                        help="family parameter counts vs the claimed ranges")
    p.add_argument("--kind", choices=KIND_NAMES,
                   help="one kind (default: all four)")
    _add_common(p)
    p.set_defaults(func=cmd_dim_report)

    for cmd, fn, extra in (("enumerate", cmd_enumerate, "list"),
                           ("coverage", cmd_coverage, "cover")):
        p = subs.add_parser(cmd,
                            help=("brute-force all operator solutions over "
                                  "a prime field" if extra == "list" else
                                  "compare brute-force solutions against "
                                  "verified charts"))
        p.add_argument("name")
        p.add_argument("--op", required=True, choices=KIND_NAMES)
        p.add_argument("--weight", help="rota-baxter weight (default 0)")
        p.add_argument("--field", type=int, default=2, metavar="P",
                       help="prime field size (default 2)")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help=f"largest sweep allowed (default "
                            f"{DEFAULT_BUDGET})")
        p.add_argument("--path", choices=("compiled", "direct"),
                       default="compiled",
                       help="evaluation path (default compiled)")
        p.add_argument("--param", action="append", metavar="NAME=VALUE")
        if extra == "list":
            p.add_argument("--limit", type=_count, default=32,
                           help="solutions to print (0 = all; default 32)")
        else:
            p.add_argument("--cap", type=_count, default=32,
                           help="uncovered matrices kept in the report "
                                "(default 32)")
        _add_common(p)
        p.set_defaults(func=fn)

    p = subs.add_parser("compat",
                        help="decide compatibility of two catalog tables")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--param", action="append", metavar="NAME=VALUE")
    p.add_argument("--lambda-samples", type=_count, default=0,
                   help="also check this many random bracket pencils")
    _add_common(p)
    p.set_defaults(func=cmd_compat)

    p = subs.add_parser("compat-scan",
                        help="scan all catalog pairs and diff against the "
                             "claimed list")
    p.add_argument("--params", metavar="NAME=V1,V2,...",
                   help="sample values for table parameters")
    p.add_argument("--lambda-samples", type=_count, default=0,
                   help="random bracket pencils per compatible pair")
    _add_common(p)
    p.set_defaults(func=cmd_compat_scan)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        print(f"run {parser.prog} --help for the command grammar",
              file=sys.stderr)
        return 2
    except SystemExit as err:        # --help and friends
        return 0 if err.code in (0, None) else int(err.code)
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RefusedSize as err:
        print(f"refused: {err}", file=sys.stderr)
        return 2
    except (CatalogError, ExactError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
