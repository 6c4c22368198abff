"""The four benchmark workloads.

Each workload draws a seeded sample of audit items (``draw``), loads what it
needs and precomputes its inputs (``setup``, timed as set-up), and produces
every item's verdict in one timed pass (``run_pass``), checking each against
the recorded reference.  The library only ever receives the drawn inputs.

Why these four: ``f2-dual-sweep`` is almost all F_p mask kernel at p = 2;
``f3-shard-sweep`` runs the same kernels at p = 3 through a shard;
``chart-coverage`` is chart evaluation and membership search over exact
rationals; ``symbolic-audit`` is pure symbolic arithmetic with no F_p work.
An optimisation of one layer should move one of them and leave the others.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

from common import (
    OUT_DIR,
    P2,
    bound_charts,
    bound_tables,
    family_key,
    index_digest,
)

#: f2-dual-sweep: combos are drawn one per (kind, tier), the tiers splitting
#: each kind's combos by their compiled monomial count
F2_TIERS = 3

#: f3-shard-sweep: the field and the budget that admits one shard
F3_P = 3
F3_BUDGET = 3 ** 16

#: chart-coverage: combos with verified charts, sorted by reference chart
#: point count and cut into tiers of equal total points; one combo is drawn
#: per tier, the upper half of the tiers being the heavy charts.  Every
#: verified family gets a round-trip check at seeded sample points: a
#: seeded subset of families would make the pass time depend on which
#: families were drawn far more than on the code being measured
CHART_TIERS = 6
ROUNDTRIP_SAMPLES = 18

#: symbolic-audit: random bracket pencils per compatible pair
LAMBDA_SAMPLES = 10


@dataclass
class Outcome:
    """Verdicts of one pass: items attempted and the ones that differ from
    the reference, each with a one-line reason."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def check(self, item: str, ok: bool, detail: str = ""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{item}: {detail or 'differs'}")

    def guarded(self, item: str, fn):
        """Run one item's check; an exception the reference does not
        expect counts as that item's failure."""
        try:
            fn()
        except Exception as err:  # noqa: BLE001 - an item boundary
            self.check(item, False, f"raised {type(err).__name__}: {err}")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _split_combo(key: str):
    label, kind_name = key.rsplit("/", 1)
    return label, kind_name


def _bound_by_label(lib, labels):
    tables = lib.algebra.load_catalog()
    return {label: (table, b) for label, table, b in bound_tables(lib, tables)
            if label in labels}


# ---------------------------------------------------------------------------
# f2-dual-sweep

def draw_f2(ref, seed):
    rng = _rng("f2-dual-sweep", seed)
    sample = []
    kinds = sorted({_split_combo(k)[1] for k in ref["sweeps"]})
    for kind_name in kinds:
        keys = sorted((v["monomials"], k) for k, v in ref["sweeps"].items()
                      if _split_combo(k)[1] == kind_name)
        for t in range(F2_TIERS):
            tier = keys[t * len(keys) // F2_TIERS:
                        (t + 1) * len(keys) // F2_TIERS]
            sample.append(rng.choice(tier)[1])
    return sample


def setup_f2(lib, ref, seed):
    sample = draw_f2(ref, seed)
    bound = _bound_by_label(lib, {_split_combo(k)[0] for k in sample})
    items = []
    for key in sample:
        label, kind_name = _split_combo(key)
        items.append((key, bound[label][0], lib.operators.make_kind(kind_name)))
    size = {"combos": len(sample), "p": P2, "paths": 2,
            "matrices_per_path": len(sample) * P2 ** 16,
            "monomials": sum(ref["sweeps"][k]["monomials"] for k in sample),
            "sample": sample}
    return items, size


def pass_f2(lib, ref, items, seed):
    out = Outcome()
    for key, table, kind in items:
        def one():
            compiled = lib.fp.solution_indices(table, kind, P2,
                                               path="compiled")
            direct = lib.fp.solution_indices(table, kind, P2, path="direct")
            want = ref["sweeps"][key]
            got = {"count": int(compiled.size),
                   "digest": index_digest(compiled)}
            out.check(key, compiled.tolist() == direct.tolist()
                      and got == {k: want[k] for k in got},
                      f"compiled {got}, direct {direct.size}, want {want}")
        out.guarded(key, one)
    return out


# ---------------------------------------------------------------------------
# f3-shard-sweep

def draw_f3(ref, seed):
    return [_rng("f3-shard-sweep", seed).choice(ref["f3_pool"])]


def setup_f3(lib, ref, seed):
    sample = draw_f3(ref, seed)
    bound = _bound_by_label(lib, {_split_combo(s["combo"])[0]
                                  for s in sample})
    items = []
    for s in sample:
        label, kind_name = _split_combo(s["combo"])
        items.append((s, bound[label][0], lib.operators.make_kind(kind_name)))
    size = {"combos": len(sample), "p": F3_P, "paths": 2,
            "matrices_per_path": len(sample) * F3_P ** 12,
            "sample": [f"{s['combo']}@shard{s['shard']}" for s in sample]}
    return items, size


def pass_f3(lib, ref, items, seed):
    out = Outcome()
    for want, table, kind in items:
        key = f"{want['combo']}@shard{want['shard']}"

        def one():
            paths = [lib.fp.solution_indices(table, kind, F3_P,
                                             budget=F3_BUDGET,
                                             shard=want["shard"], path=path)
                     for path in ("compiled", "direct")]
            got = {"count": int(paths[0].size),
                   "digest": index_digest(paths[0])}
            out.check(key, paths[0].tolist() == paths[1].tolist()
                      and got == {k: want[k] for k in got},
                      f"compiled {got}, direct {paths[1].size}, want {want}")
        out.guarded(key, one)
    return out


# ---------------------------------------------------------------------------
# chart-coverage

def chart_tiers(ref):
    """Charted combos in CHART_TIERS tiers of equal total point count."""
    charted = sorted((v["points"], k) for k, v in ref["coverage"].items()
                     if v["families_used"])
    total = sum(p for p, _ in charted)
    tiers = [[] for _ in range(CHART_TIERS)]
    acc = 0
    for points, key in charted:
        tiers[min(CHART_TIERS - 1, acc * CHART_TIERS // total)].append(key)
        acc += points
    return tiers


def draw_chart(ref, seed):
    rng = _rng("chart-coverage", seed)
    drawn = [rng.choice(tier) for tier in chart_tiers(ref)]
    half = CHART_TIERS // 2
    return drawn[half:], drawn[:half]


def setup_chart(lib, ref, seed):
    heavy, light = draw_chart(ref, seed)
    combos = heavy + light
    bound = _bound_by_label(lib, {_split_combo(k)[0] for k in combos})
    verified = {}
    for kind_name in lib.operators.KIND_NAMES:
        for f in lib.operators.load_families(kind_name):
            key = family_key(f.algebra, f.kind, f.index)
            if ref["families"][key]["status"].startswith("holds"):
                verified[key] = f
    coverage_items = []
    for key in combos:
        label, kind_name = _split_combo(key)
        table, bindings = bound[label]
        kind = lib.operators.make_kind(kind_name)
        fams = bound_charts(lib, [f for f in verified.values()
                                  if f.algebra == table.name
                                  and f.kind == kind_name], bindings)
        # the direct path's memory does not grow with the system's
        # monomial count, so peak RSS does not depend on the drawn combos
        sols = lib.fp.solution_indices(table, kind, P2, path="direct")
        coverage_items.append((key, table, kind, fams, sols))
    roundtrip_items = [(k, verified[k]) for k in sorted(ref["roundtrips"])]
    size = {"combos": len(combos), "heavy": heavy, "light": light,
            "solutions": sum(ref["coverage"][k]["total"] for k in combos),
            "chart_points": sum(ref["coverage"][k]["points"] for k in combos),
            "roundtrip_families": len(roundtrip_items),
            "roundtrip_samples": ROUNDTRIP_SAMPLES}
    return (coverage_items, roundtrip_items), size


def pass_chart(lib, ref, items, seed):
    coverage_items, roundtrip_items = items
    out = Outcome()
    for key, table, kind, fams, sols in coverage_items:
        def one():
            rep = lib.fp.coverage(table, kind, P2, fams, solutions=sols)
            want = ref["coverage"][key]
            got = {"total": rep.total_solutions, "covered": rep.covered,
                   "outside": rep.chart_points_outside,
                   "families_used": rep.families_used,
                   "families_skipped": rep.families_skipped}
            out.check(key, got == {k: want[k] for k in got},
                      f"got {got}, want {want}")
        out.guarded(key, one)
    expected = (lib.exact.NonRealValue, lib.exact.NonInvertibleDenominator)
    for key, fam in roundtrip_items:
        def one():
            want = ref["roundtrips"][key]
            try:
                r = lib.fp.roundtrip_check(fam, P2,
                                           samples=ROUNDTRIP_SAMPLES,
                                           seed=seed)
            except expected as err:
                out.check(key, want.get("skip") == type(err).__name__,
                          f"raised {type(err).__name__}, want {want}")
                return
            out.check(key, r["ok"] and want.get("ok") is True
                      and r["checked"] == ROUNDTRIP_SAMPLES,
                      f"got {r}, want {want}")
        out.guarded(key, one)
    return out


# ---------------------------------------------------------------------------
# symbolic-audit

def draw_symbolic(ref, seed):
    return {"lambda_samples": LAMBDA_SAMPLES, "lambda_seed": seed}


def setup_symbolic(lib, ref, seed):
    sample = draw_symbolic(ref, seed)
    tables = lib.algebra.load_catalog()
    fams = [f for k in lib.operators.KIND_NAMES
            for f in lib.operators.load_families(k)]
    claimed = lib.compat.load_claimed_pairs()
    OUT_DIR.mkdir(exist_ok=True)
    size = {"families": len(fams), "tables": len(tables),
            "pairs": len(tables) * (len(tables) - 1) // 2, **sample}
    return (tables, fams, claimed, sample), size


def pass_symbolic(lib, ref, items, seed):
    tables, fams, claimed, sample = items
    out = Outcome()
    path = OUT_DIR / "verify.json"

    def verify():
        code = lib.cli.main(["verify", "--format", "json",
                             "--output", str(path)])
        data = path.read_bytes()
        want = ref["cli_verify"]
        out.check("cli-verify", code == want["exit_code"]
                  and hashlib.sha256(data).hexdigest() == want["sha256"],
                  f"exit {code}, {len(data)} bytes differ from the reference")
        rows = {family_key(r["algebra"], r["kind"], r["index"]): r
                for r in json.loads(data)["families"]}
        for key, want_row in ref["families"].items():
            out.check(key, rows.get(key) == want_row,
                      f"got {rows.get(key)}, want {want_row}")
    out.guarded("cli-verify", verify)

    def scan():
        rep = lib.compat.compat_scan(
            tables, claimed=claimed, lambda_samples=sample["lambda_samples"],
            seed=sample["lambda_seed"])
        compatible = {tuple(p) for p in rep.compatible}
        witnesses = {tuple(r["pair"]): r["witness"] for r in rep.failing}
        exceptions = {tuple(r["pair"]): r["passing_bindings"]
                      for r in rep.per_value_exceptions}
        want = ref["compat"]
        for pair in rep.pairs_checked:
            row = {"compatible": pair in compatible}
            if not row["compatible"]:
                row["witness"] = witnesses.get(pair)
            if pair in exceptions:
                row["passing_bindings"] = exceptions[pair]
            key = "/".join(pair)
            out.check(key, want["pairs"].get(key) == row,
                      f"got {row}, want {want['pairs'].get(key)}")
        lam = rep.lambda_checks
        out.check("lambda-pencils", lam["ok"]
                  and lam["pairs_checked"] == len(compatible),
                  f"pencil failures {lam['failures'][:3]}")
        out.check("compat-diff", len(rep.pairs_checked) == len(want["pairs"])
                  and rep.diagonal_compatible == want["diagonal_compatible"]
                  and [list(p) for p in rep.claimed_but_failing]
                  == want["claimed_but_failing"]
                  and [list(p) for p in rep.passing_but_unclaimed]
                  == want["passing_but_unclaimed"]
                  and [list(p) for p in rep.unmatchable_claims]
                  == want["unmatchable_claims"])
    out.guarded("compat-scan", scan)

    cmap = {t.name: t for t in tables}
    for kind_name in lib.operators.KIND_NAMES:
        def report():
            rep = lib.operators.dimension_report(cmap, fams, kind_name)
            # JSON round trip: the reference stores dict keys as strings
            got = json.loads(json.dumps(rep))
            out.check("dim-report/" + kind_name,
                      got == ref["dimension_reports"][kind_name])
        out.guarded("dim-report/" + kind_name, report)
    return out


WORKLOADS = {
    "f2-dual-sweep": (draw_f2, setup_f2, pass_f2),
    "f3-shard-sweep": (draw_f3, setup_f3, pass_f3),
    "chart-coverage": (draw_chart, setup_chart, pass_chart),
    "symbolic-audit": (draw_symbolic, setup_symbolic, pass_symbolic),
}
