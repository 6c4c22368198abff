"""Record the item-level reference the benchmark checks every run against.

Run once from the root of a checkout (about eight minutes on one core):

    python3 bench/record_reference.py

It runs the full audit (every F_2 sweep through both paths, every family,
every chart, every bracket pair), asserts that the totals equal the audit
fingerprint the project keeps invariant, and writes ``bench/reference.json``.
It also records the F_3 shard pool the ``f3-shard-sweep`` workload draws
from.  Any later change to the recorded outputs is a change of verdicts.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time

from common import (
    OUT_DIR,
    P2,
    REFERENCE_PATH,
    bound_charts,
    bound_tables,
    combo_key,
    family_key,
    index_digest,
    load_library,
)
from workloads import F3_BUDGET, F3_P

#: (pass rate, malformed) per kind, 116 agreeing sweeps + 4 exclusions,
#: 17818/56682 covered, 223 round-trips + 2 non-real skips, and the compat
#: diff: the audit fingerprint every recorded reference must reproduce
FINGERPRINT = {
    "pass_rates": {"rota-baxter": ("71/101", 8), "nijenhuis": ("40/76", 0),
                   "reynolds": ("51/90", 0), "averaging": ("63/81", 1)},
    "sweeps": 116,
    "excluded": 4,
    "covered": (17818, 56682),
    "roundtrips": 223,
    "roundtrip_skips": 2,
    "compatible": 59,
    "claimed_failing": [["L19", "L21"], ["L4", "L9"], ["L5", "L7"]],
    "unclaimed": 13,
    "unmatchable": [["L12", "L23"]],
}

#: F_3 pool: rota-baxter combos nearest the median monomial count, so that
#: every pool item costs about the same, each at shard 0 (first row zero)
#: and at one more shard that holds solutions
F3_COMBOS = 6
F3_SHARD_TRIES = 12


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def record_sweeps(lib, bound):
    """Both paths on every combo; returns (reference rows, exclusions,
    solution arrays by combo)."""
    combos, excluded, solutions = {}, [], {}
    for label, table, _ in bound:
        for kind_name in lib.operators.KIND_NAMES:
            kind = lib.operators.make_kind(kind_name)
            t0 = time.perf_counter()
            try:
                cs = lib.fp.compile_system(table, kind, P2)
                compiled = lib.fp.solution_indices(table, kind, P2,
                                                   path="compiled")
                t1 = time.perf_counter()
                direct = lib.fp.solution_indices(table, kind, P2,
                                                 path="direct")
            except (lib.exact.NonRealValue,
                    lib.exact.NonInvertibleDenominator) as err:
                excluded.append({"combo": combo_key(label, kind_name),
                                 "reason": type(err).__name__})
                continue
            t2 = time.perf_counter()
            expect(compiled.tolist() == direct.tolist(),
                   f"paths disagree on {label}/{kind_name}")
            solutions[combo_key(label, kind_name)] = compiled
            combos[combo_key(label, kind_name)] = {
                "count": int(compiled.size),
                "digest": index_digest(compiled),
                "monomials": len(cs.monos),
                "equations": cs.equation_count,
            }
            log(f"sweep {label}/{kind_name}: {compiled.size} solutions, "
                f"{len(cs.monos)} monomials, compiled {t1 - t0:.2f}s "
                f"direct {t2 - t1:.2f}s")
    return combos, excluded, solutions


def record_coverage(lib, bound, verified, solutions):
    out = {}
    for label, table, bindings in bound:
        for kind_name in lib.operators.KIND_NAMES:
            key = combo_key(label, kind_name)
            kind = lib.operators.make_kind(kind_name)
            sols = solutions.get(key)
            if sols is None:
                continue
            fams = bound_charts(lib, verified.get((table.name, kind_name),
                                                  []), bindings)
            t0 = time.perf_counter()
            rep = lib.fp.coverage(table, kind, P2, fams, solutions=sols)
            dt = time.perf_counter() - t0
            out[key] = {
                "total": rep.total_solutions,
                "covered": rep.covered,
                "outside": rep.chart_points_outside,
                "points": sum(u["points"] for u in rep.families_used),
                "families_used": rep.families_used,
                "families_skipped": rep.families_skipped,
            }
            log(f"coverage {key}: {rep.covered}/{rep.total_solutions}, "
                f"{out[key]['points']} points, {dt:.2f}s")
    return out


def record_roundtrips(lib, verified):
    out = {}
    for fams in verified.values():
        for fam in fams:
            key = family_key(fam.algebra, fam.kind, fam.index)
            try:
                r = lib.fp.roundtrip_check(fam, P2, samples=100)
            except (lib.exact.NonRealValue,
                    lib.exact.NonInvertibleDenominator) as err:
                out[key] = {"skip": type(err).__name__}
                continue
            out[key] = {"ok": r["ok"], "checked": r["checked"]}
    return out


def record_compat(lib, tables):
    rep = lib.compat.compat_scan(tables,
                                 claimed=lib.compat.load_claimed_pairs())
    compatible = {tuple(p) for p in rep.compatible}
    witnesses = {tuple(r["pair"]): r["witness"] for r in rep.failing}
    exceptions = {tuple(r["pair"]): r["passing_bindings"]
                  for r in rep.per_value_exceptions}
    pairs = {}
    for pair in rep.pairs_checked:
        row = {"compatible": pair in compatible}
        if not row["compatible"]:
            row["witness"] = witnesses[pair]
        if pair in exceptions:
            row["passing_bindings"] = exceptions[pair]
        pairs["/".join(pair)] = row
    lam = lib.compat.compat_scan(tables,
                                 claimed=lib.compat.load_claimed_pairs(),
                                 lambda_samples=50, seed=0).lambda_checks
    expect(lam["ok"] and lam["pairs_checked"] == len(compatible), lam)
    return {
        "pairs": pairs,
        "diagonal_compatible": rep.diagonal_compatible,
        "claimed_but_failing": [list(p) for p in rep.claimed_but_failing],
        "passing_but_unclaimed": [list(p) for p in rep.passing_but_unclaimed],
        "unmatchable_claims": [list(p) for p in rep.unmatchable_claims],
    }


def record_cli_verify(lib):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "reference-verify.json"
    code = lib.cli.main(["verify", "--format", "json", "--output", str(path)])
    data = path.read_bytes()
    path.unlink()
    return {"exit_code": code, "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data)}


def record_f3_pool(lib, bound, sweeps):
    by_label = {label: table for label, table, _ in bound}
    keys = [k for k in sweeps if k.endswith("/rota-baxter")]
    median = sorted(sweeps[k]["monomials"] for k in keys)[len(keys) // 2]
    keys.sort(key=lambda k: (abs(sweeps[k]["monomials"] - median), k))
    kind = lib.operators.make_kind("rota-baxter")

    def sweep(table, shard, path):
        return lib.fp.solution_indices(table, kind, F3_P, budget=F3_BUDGET,
                                       shard=shard, path=path)

    pool = []
    for key in keys[:F3_COMBOS]:
        table = by_label[key.rsplit("/", 1)[0]]
        others = list(range(1, F3_P ** 4))
        random.Random(key).shuffle(others)
        shards = [0]
        for shard in others[:F3_SHARD_TRIES]:
            if sweep(table, shard, "compiled").size:
                shards.append(shard)
                break
        for shard in shards:
            t0 = time.perf_counter()
            sols = sweep(table, shard, "compiled")
            t1 = time.perf_counter()
            expect(sols.tolist() == sweep(table, shard, "direct").tolist(),
                   f"paths disagree on {key} shard {shard}")
            pool.append({"combo": key, "shard": shard,
                         "count": int(sols.size),
                         "digest": index_digest(sols)})
            log(f"f3 {key} shard {shard}: {sols.size} solutions, compiled "
                f"{t1 - t0:.2f}s, direct {time.perf_counter() - t1:.2f}s")
    return pool


class Mismatch(RuntimeError):
    """A recorded total or item differs from what the audit must give."""


def expect(ok: bool, what):
    if not ok:
        raise Mismatch(what)


def check_fingerprint(ref, lib):
    """Raise Mismatch unless the reference totals equal FINGERPRINT."""
    fp = FINGERPRINT
    rows = list(ref["families"].values())
    for kind_name, (rate, malformed) in fp["pass_rates"].items():
        s = lib.operators.audit_summary([r for r in rows
                                         if r["kind"] == kind_name])
        expect((s["pass_rate"], s["malformed"]) == (rate, malformed),
               (kind_name, s))
    expect(len(ref["sweeps"]) == fp["sweeps"], "F2 sweep count")
    expect(len(ref["excluded"]) == fp["excluded"]
           and all(e["combo"].startswith("L20[mu=5]/")
                   and e["reason"] == "NonInvertibleDenominator"
                   for e in ref["excluded"]), ref["excluded"])
    cov = ref["coverage"].values()
    expect((sum(c["covered"] for c in cov),
            sum(c["total"] for c in cov)) == fp["covered"], "coverage")
    expect(all(c["outside"] == 0 for c in cov), "chart points outside")
    rts = ref["roundtrips"].values()
    expect(sum(1 for r in rts if r.get("ok")) == fp["roundtrips"]
           and sum(1 for r in rts if r.get("skip") == "NonRealValue")
           == fp["roundtrip_skips"]
           and len(ref["roundtrips"])
           == fp["roundtrips"] + fp["roundtrip_skips"], "round-trips")
    compat = ref["compat"]
    expect(len(compat["pairs"]) == 210
           and len(compat["diagonal_compatible"]) == 21, "pairs checked")
    expect(sum(1 for r in compat["pairs"].values() if r["compatible"])
           == fp["compatible"], "compatible pairs")
    expect(sorted(compat["claimed_but_failing"]) == fp["claimed_failing"]
           and len(compat["passing_but_unclaimed"]) == fp["unclaimed"]
           and compat["unmatchable_claims"] == fp["unmatchable"],
           "diff against the claimed pairs")


def main() -> int:
    lib = load_library()
    t0 = time.perf_counter()
    tables = lib.algebra.load_catalog()
    cmap = {t.name: t for t in tables}
    bound = bound_tables(lib, tables)
    fams = [f for k in lib.operators.KIND_NAMES
            for f in lib.operators.load_families(k)]
    rows = lib.operators.audit_families(cmap, fams)
    families = {family_key(r["algebra"], r["kind"], r["index"]): r
                for r in rows}
    passed = {k for k, r in families.items()
              if r["status"].startswith("holds")}
    verified = {}
    for f in fams:
        if family_key(f.algebra, f.kind, f.index) in passed:
            verified.setdefault((f.algebra, f.kind), []).append(f)
    log(f"audit done in {time.perf_counter() - t0:.1f}s")
    sweeps, excluded, solutions = record_sweeps(lib, bound)
    ref = {
        "families": families,
        "sweeps": sweeps,
        "excluded": excluded,
        "coverage": record_coverage(lib, bound, verified, solutions),
        "roundtrips": record_roundtrips(lib, verified),
        "compat": record_compat(lib, tables),
        "dimension_reports": {
            k: lib.operators.dimension_report(
                cmap, fams, k, audit_rows=[r for r in rows if r["kind"] == k])
            for k in lib.operators.KIND_NAMES},
        "cli_verify": record_cli_verify(lib),
        "f3_pool": record_f3_pool(lib, bound, sweeps),
    }
    check_fingerprint(ref, lib)
    REFERENCE_PATH.write_text(json.dumps(ref, sort_keys=True, indent=1)
                              + "\n")
    log(f"wrote {REFERENCE_PATH} in {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
