"""Acceptance gate: eight end-to-end criteria, one printed verdict each.

Each test prints a single `[C<n> <name>] PASS/FAIL (<elapsed>) — detail`
line directly to the terminal and then asserts.  Expensive intermediate
results (the family audit, the finite-field sweeps) are computed once and
shared; their cost is charged to the first criterion that needs them.
"""

import time

from leibnizalg.algebra import (
    bind_params,
    catalog_map,
    leibniz_residual,
    load_catalog,
    load_errata,
    lower_central_series,
    printed_variant,
    sample_bindings,
)
from leibnizalg.compat import compat_scan, load_claimed_pairs
from leibnizalg.exact import (
    RE_ONE,
    RE_ZERO,
    NonInvertibleDenominator,
    NonRealValue,
    parse_expr,
)
from leibnizalg.fp import bind_family, coverage, roundtrip_check, \
    solution_indices
from leibnizalg.operators import (
    KIND_NAMES,
    audit_families,
    audit_summary,
    dimension_report,
    load_families,
    make_kind,
    operator_residual,
)


def announce(capsys, tag, ok, elapsed, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[{tag}] {verdict} ({elapsed:.1f}s) — {detail}")
    assert ok, f"{tag}: {detail}"


# ---------------------------------------------------------------------------
# shared state, computed on first use

_CACHE = {}


def tables():
    if "tables" not in _CACHE:
        _CACHE["tables"] = load_catalog()
    return _CACHE["tables"]


def cmap():
    return {t.name: t for t in tables()}


def bound_tables():
    """Every algebra at every admissible sample binding: (label, table,
    bindings)."""
    if "bound" not in _CACHE:
        out = []
        for t in tables():
            for b in sample_bindings(t):
                label = t.name if not b else t.name + "[" + ",".join(
                    f"{k}={v}" for k, v in sorted(b.items())) + "]"
                out.append((label, bind_params(t, b) if b else t, b))
        _CACHE["bound"] = out
    return _CACHE["bound"]


def families():
    if "families" not in _CACHE:
        _CACHE["families"] = {k: load_families(k) for k in KIND_NAMES}
    return _CACHE["families"]


def audit():
    if "audit" not in _CACHE:
        fams = [f for k in KIND_NAMES for f in families()[k]]
        _CACHE["audit"] = audit_families(cmap(), fams)
    return _CACHE["audit"]


def verified_families():
    """(algebra, kind) -> families whose transcription held up in the audit."""
    if "verified" not in _CACHE:
        passed = {(r["algebra"], r["kind"], r["index"]) for r in audit()
                  if r["status"].startswith("holds")}
        out = {}
        for k in KIND_NAMES:
            for f in families()[k]:
                if (f.algebra, f.kind, f.index) in passed:
                    out.setdefault((f.algebra, k), []).append(f)
        _CACHE["verified"] = out
    return _CACHE["verified"]


def sweeps():
    """Dual-path F_2 sweeps for every bound table and kind.

    Returns (results, excluded): results maps (label, kind) to the agreed
    solution-index array; excluded lists (label, kind, reason) for tables
    that do not reduce mod 2.
    """
    if "sweeps" not in _CACHE:
        results, excluded = {}, []
        for label, table, _ in bound_tables():
            for kind_name in KIND_NAMES:
                kind = make_kind(kind_name)
                try:
                    compiled = solution_indices(table, kind, 2,
                                                path="compiled")
                    direct = solution_indices(table, kind, 2, path="direct")
                except (NonRealValue, NonInvertibleDenominator) as err:
                    excluded.append((label, kind_name, type(err).__name__))
                    continue
                agree = (compiled.shape == direct.shape
                         and bool((compiled == direct).all()))
                results[(label, kind_name)] = compiled if agree else None
        _CACHE["sweeps"] = (results, excluded)
    return _CACHE["sweeps"]


# ---------------------------------------------------------------------------
# criteria

def test_criterion_1_catalog_soundness(capsys):
    t0 = time.time()
    checked = 0
    bad = []
    for label, table, _ in bound_tables():
        hit = leibniz_residual(table).first_failure()
        checked += 1
        if hit is not None:
            bad.append((label, hit[:3]))
    variants = 0
    for e in load_errata():
        assert e["algebra"] in cmap(), e
        if not e.get("printed_table"):
            continue
        variant = printed_variant(cmap()[e["algebra"]], e)
        hit = leibniz_residual(variant).first_failure()
        triple = e.get("failing_triple")
        if triple is not None:
            variants += 1
            if hit is None or list(hit[:3]) != triple:
                bad.append((e["algebra"] + "(as printed)", hit))
        elif hit is not None:
            bad.append((e["algebra"] + "(as printed)", hit[:3]))
    elapsed = time.time() - t0
    ok = not bad and checked == 30 and variants >= 1 and elapsed < 5
    announce(capsys, "C1 catalog-soundness", ok, elapsed,
             f"{checked} algebra-binding combos residual-free; {variants} "
             f"recorded printed variant(s) fail at their recorded triples"
             + (f"; PROBLEMS {bad}" if bad else ""))


def test_criterion_2_nilpotency(capsys):
    t0 = time.time()
    bad = []
    l1_dims = None
    for label, table, _ in bound_tables():
        dims, nilpotent = lower_central_series(table)
        if table.name == "L1":
            l1_dims = dims
        if not nilpotent:
            bad.append((label, dims))
    elapsed = time.time() - t0
    ok = not bad and l1_dims == [4, 3, 2, 1, 0] and elapsed < 1
    announce(capsys, "C2 nilpotency", ok, elapsed,
             f"all {len(bound_tables())} bound tables reach dimension 0; "
             f"L1 series {l1_dims}" + (f"; PROBLEMS {bad}" if bad else ""))


def test_criterion_3_trivial_operators(capsys):
    t0 = time.time()
    bad = []
    for table in tables():
        n = table.dim
        zero = [[RE_ZERO] * n for _ in range(n)]
        ident = [[RE_ONE if r == c else RE_ZERO for c in range(n)]
                 for r in range(n)]
        for kind_name in KIND_NAMES:
            if not operator_residual(table, make_kind(kind_name),
                                     zero).is_zero:
                bad.append((table.name, kind_name, "zero map"))
        for kind in (make_kind("nijenhuis"), make_kind("reynolds"),
                     make_kind("rota-baxter", parse_expr("-1"))):
            if not operator_residual(table, kind, ident).is_zero:
                bad.append((table.name, kind.name, "identity"))
    elapsed = time.time() - t0
    ok = not bad and elapsed < 5
    announce(capsys, "C3 trivial-operators", ok, elapsed,
             "zero map satisfies all four kinds and the identity satisfies "
             "nijenhuis/reynolds/rota-baxter(-1) on all 21 tables, "
             "parameters symbolic" + (f"; PROBLEMS {bad}" if bad else ""))


def test_criterion_4_family_audit(capsys):
    t0 = time.time()
    rows = audit()
    allowed = {"holds", "holds-any-weight", "fails", "malformed"}
    bad = []
    for r in rows:
        if r["status"] not in allowed:
            bad.append((r["algebra"], r["kind"], r["index"], r["status"]))
        if r["status"] == "fails":
            w = r.get("witness")
            if not w or not w.get("poly") \
                    or not all(k in w for k in ("i", "j", "q")):
                bad.append((r["algebra"], r["kind"], r["index"],
                            "missing witness"))
    rates = []
    for k in KIND_NAMES:
        s = audit_summary([r for r in rows if r["kind"] == k])
        rates.append(f"{k} {s['pass_rate']} ({s['malformed']} malformed)")
    elapsed = time.time() - t0
    ok = not bad and len(rows) == 357 and elapsed < 120
    announce(capsys, "C4 family-audit", ok, elapsed,
             f"all {len(rows)} transcribed matrices classified; pass rates: "
             + "; ".join(rates) + (f"; PROBLEMS {bad}" if bad else ""))


def test_criterion_5_dual_path_oracle(capsys):
    t0 = time.time()
    results, excluded = sweeps()
    disagreements = [k for k, v in results.items() if v is None]
    expected_excluded = {("L20[mu=5]", k, "NonInvertibleDenominator")
                         for k in KIND_NAMES}
    elapsed = time.time() - t0
    ok = (not disagreements
          and len(results) == 116
          and set(excluded) == expected_excluded
          and elapsed < 600)
    announce(capsys, "C5 dual-path-oracle", ok, elapsed,
             f"compiled and direct sweeps agree on all 65536 matrices for "
             f"{len(results)} (binding, kind) combos at p=2; "
             f"{len(excluded)} combos (L20 at mu=5) do not reduce mod 2"
             + (f"; DISAGREE {disagreements}" if disagreements else ""))


def test_criterion_6_coverage_and_roundtrip(capsys):
    t0 = time.time()
    results, _ = sweeps()
    vf = verified_families()
    total = covered = 0
    outside = 0
    skip_reasons = set()
    problems = []
    for (label, kind_name), sols in sorted(results.items()):
        if sols is None:
            continue
        bindings = next(b for lab, _, b in bound_tables() if lab == label)
        table = next(t for lab, t, _ in bound_tables() if lab == label)
        fams = vf.get((table.name, kind_name), [])
        if bindings:
            fams = [bind_family(f, {k: parse_expr(str(v))
                                    for k, v in bindings.items()})
                    for f in fams]
        rep = coverage(table, make_kind(kind_name), 2, fams, solutions=sols)
        total += rep.total_solutions
        covered += rep.covered
        outside += rep.chart_points_outside
        skip_reasons |= {s["reason"] for s in rep.families_skipped}
        if rep.chart_points_outside:
            problems.append((label, kind_name, "chart point not a solution"))
    roundtrips = skipped_charts = 0
    for fams in verified_families().values():
        for fam in fams:
            try:
                r = roundtrip_check(fam, 2, samples=100)
            except (NonRealValue, NonInvertibleDenominator):
                skipped_charts += 1
                continue
            roundtrips += 1
            if not r["ok"] or r["checked"] != 100:
                problems.append((fam.label(), "roundtrip", r["checked"],
                                 r["counterexample"]))
    elapsed = time.time() - t0
    ok = (not problems and outside == 0 and total > 0
          and skip_reasons <= {"NonRealValue"} and elapsed < 900)
    announce(capsys, "C6 coverage-evidence", ok, elapsed,
             f"{covered}/{total} F_2 solutions matched by verified charts "
             f"across {len(results)} sweeps, uncovered listed, 0 chart "
             f"points outside; chart round-trip holds for {roundtrips} "
             f"families ({skipped_charts} non-real charts skipped)"
             + (f"; PROBLEMS {problems[:5]}" if problems else ""))


def test_criterion_7_compatibility_audit(capsys):
    t0 = time.time()
    rep = compat_scan(tables(), claimed=load_claimed_pairs(),
                      lambda_samples=50)
    claimed_failing = {tuple(p) for p in rep.claimed_but_failing}
    unclaimed = {tuple(p) for p in rep.passing_but_unclaimed}
    elapsed = time.time() - t0
    ok = (len(rep.diagonal_compatible) == 21
          and len(rep.pairs_checked) == 210
          and rep.unmatchable_claims == [("L12", "L23")]
          and claimed_failing == {("L19", "L21"), ("L4", "L9"),
                                  ("L5", "L7")}
          and len(unclaimed) == 13
          and not rep.per_value_exceptions
          and rep.lambda_checks["ok"]
          and rep.lambda_checks["samples"] == 50
          and elapsed < 120)
    announce(capsys, "C7 compatibility-audit", ok, elapsed,
             f"21/21 self-compatible; 210 pairs checked, "
             f"{len(rep.compatible)} compatible; diff vs the 50 claimed "
             f"pairs: {sorted(claimed_failing)} claimed-but-failing, "
             f"{len(unclaimed)} passing-but-unclaimed, (L12, L23) "
             f"unmatchable; 50 random bracket pencils per compatible pair "
             f"all satisfy the identity")


def test_criterion_8_dimension_report(capsys):
    t0 = time.time()
    lines = []
    bad = []
    for kind_name in KIND_NAMES:
        krows = [r for r in audit() if r["kind"] == kind_name]
        rep = dimension_report(cmap(), families()[kind_name], kind_name,
                               audit_rows=krows)
        lo, hi = rep["claimed_range"]
        got = rep["achieved_range"]
        if got is None:
            bad.append((kind_name, "no verified families"))
            continue
        for m in rep["mismatches"]:
            if not m.get("family"):
                bad.append((kind_name, "anonymous mismatch"))
        tag = f"{kind_name} claimed {lo}-{hi} achieved {got[0]}-{got[1]}"
        if rep["mismatches"]:
            tag += " (" + ", ".join(
                f"{m['bound']}: {m['family']}" for m in rep["mismatches"]) + ")"
        lines.append(tag)
    elapsed = time.time() - t0
    ok = not bad and elapsed < 1
    announce(capsys, "C8 dimension-report", ok, elapsed,
             "; ".join(lines) + (f"; PROBLEMS {bad}" if bad else ""))
