"""Defining equations for four operator kinds on a structure-constant table.

A linear map T acts through its matrix in the fixed basis, column i holding
the coefficients of T(e_i): T(e_i) = sum_j T[j][i] e_j.  With [.,.] the
algebra product, the conditions are

  rota-baxter (weight w):  [Tx,Ty] = T([Tx,y] + [x,Ty] + w [x,y])
  nijenhuis:               [Tx,Ty] = T([Tx,y] + [x,Ty] - T [x,y])
  reynolds:                [Tx,Ty] = T([x,Ty] + [Tx,y] - [Tx,Ty])
  averaging:               [Tx,Ty] = T [Tx,y]   and   [Tx,Ty] = T [x,Ty]

The averaging condition is kept as two one-sided identities that are checked
and reported separately (their conjunction is what "averaging operator"
means here).  Residuals are LHS - RHS expanded over basis pairs (e_i, e_j),
held as an algebra.ResidualTensor whose coordinates are labelled
(i, j, q, condition): condition is "" for the first three kinds and "left"
or "right" for averaging, the left block first.  T satisfies a condition
iff every coordinate carrying it vanishes identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .algebra import AlgebraTable, CatalogError, ResidualTensor, data_dir, \
    unit
from .exact import (
    DenominatorVanishes,
    ExprSyntaxError,
    Poly,
    RatExpr,
    RE_ZERO,
    RE_ONE,
    parse_expr,
)

KIND_NAMES = ("rota-baxter", "nijenhuis", "reynolds", "averaging")

# Letter used for fresh unknowns, one per kind, matching the usual notation
# for each operator family.
UNKNOWN_LETTER = {
    "rota-baxter": "r",
    "nijenhuis": "k",
    "reynolds": "a",
    "averaging": "b",
}

CLAIMED_DIM_RANGE = {
    "rota-baxter": (3, 10),
    "nijenhuis": (5, 10),
    "reynolds": (2, 9),
    "averaging": (2, 9),
}


@dataclass(frozen=True)
class OperatorKind:
    name: str
    weight: RatExpr | None = None


def make_kind(name: str, weight=None) -> OperatorKind:
    if name not in KIND_NAMES:
        raise ValueError(f"unknown operator kind {name!r}")
    if name == "rota-baxter":
        if weight is None:
            weight = RE_ZERO
        elif not isinstance(weight, RatExpr):
            weight = parse_expr(str(weight))
        return OperatorKind(name, weight)
    if weight is not None:
        raise ValueError(f"{name} takes no weight")
    return OperatorKind(name)


def operator_residual(table: AlgebraTable, kind: OperatorKind,
                      T) -> ResidualTensor:
    """Residual of the kind's condition(s) applied to T, over basis pairs.

    The vector at (e_i, e_j) holds the dim coordinates of the residual, or
    for averaging the left condition's dim coordinates and then the right
    condition's; labels are (i, j, q, condition), condition "" for the
    other kinds.
    """
    n = table.dim
    if len(T) != n or any(len(row) != n for row in T):
        raise ValueError(f"operator matrix must be {n}x{n}")
    cols = [[T[r][c] for r in range(n)] for c in range(n)]

    def apply_t(vec):
        out = []
        for q in range(n):
            s = RE_ZERO
            for k in range(n):
                if not vec[k].is_zero and not T[q][k].is_zero:
                    s = s + T[q][k] * vec[k]
            out.append(s)
        return out

    def coords(i, j):
        ti, tj = cols[i], cols[j]
        btt = table.bracket(ti, tj)
        bte = table.bracket(ti, unit(n, j))
        bet = table.bracket(unit(n, i), tj)
        if kind.name == "rota-baxter":
            bee = table.product(i, j)
            inner = [bte[q] + bet[q] + kind.weight * bee[q] for q in range(n)]
        elif kind.name == "nijenhuis":
            tb = apply_t(table.product(i, j))
            inner = [bte[q] + bet[q] - tb[q] for q in range(n)]
        elif kind.name == "reynolds":
            inner = [bet[q] + bte[q] - btt[q] for q in range(n)]
        else:  # averaging: left and right one-sided conditions
            left = apply_t(bte)
            right = apply_t(bet)
            return ([btt[q] - left[q] for q in range(n)]
                    + [btt[q] - right[q] for q in range(n)])
        out = apply_t(inner)
        return [btt[q] - out[q] for q in range(n)]

    conditions = ("left", "right") if kind.name == "averaging" else ("",)
    return ResidualTensor.tabulate(n, 2, coords, conditions)


@dataclass
class EquationSystem:
    """Polynomial equations in the entries of an unknown operator matrix.

    equations[k] is the numerator of a residual entry after multiplying out
    its denominator, which is recorded in denominators[k]; labels[k] is
    (i, j, q, condition) saying which residual coordinate it came from.
    """

    algebra: str
    kind: OperatorKind
    dim: int
    unknowns: tuple
    equations: list
    denominators: list
    labels: list

    def max_degree(self) -> int:
        degs = [eq.degree_in(self.unknowns) for eq in self.equations]
        return max((d for d in degs if d >= 0), default=0)


def unknown_matrix(n: int, kind_name: str):
    """Fresh unknown names laid out as a matrix; entry (j,i) is named after
    row j and column i, matching T(e_i) = sum_j T[j][i] e_j."""
    letter = UNKNOWN_LETTER[kind_name]
    return [[RatExpr.var(f"{letter}{r + 1}{c + 1}") for c in range(n)]
            for r in range(n)]


def build_system(table: AlgebraTable, kind: OperatorKind) -> EquationSystem:
    n = table.dim
    T = unknown_matrix(n, kind.name)
    letter = UNKNOWN_LETTER[kind.name]
    unknowns = tuple(f"{letter}{r + 1}{c + 1}"
                     for r in range(n) for c in range(n))
    equations, denominators, labels = [], [], []
    for label, entry in operator_residual(table, kind, T).walk():
        equations.append(entry.num)
        denominators.append(entry.den)
        labels.append(label)
    return EquationSystem(table.name, kind, n, unknowns,
                          equations, denominators, labels)


# ---------------------------------------------------------------------------
# transcribed operator families

@dataclass
class OperatorFamily:
    """A parametric matrix family claimed to satisfy one operator condition.

    chart is a dim x dim matrix of RatExpr over the free parameters (None
    when the source matrix was too garbled to read); constraints lists
    expressions that must stay nonzero, including every chart denominator.
    """

    algebra: str
    kind: str
    index: int
    chart: list | None
    free: tuple
    constraints: tuple
    malformed: bool
    weight: str | None = None
    raw_rows: list | None = None
    note: str = ""

    def label(self) -> str:
        return f"{self.algebra} {self.kind} #{self.index}"


def family_dimension(fam: OperatorFamily) -> int:
    """Number of free parameters actually occurring in the chart."""
    if fam.chart is None:
        raise ValueError(f"{fam.label()} is malformed")
    seen = set()
    for row in fam.chart:
        for e in row:
            seen |= e.params()
    return len(seen)


@dataclass
class Verdict:
    holds: bool
    witness: tuple | None  # (i, j, q, condition, Poly numerator)
    left: bool | None = None   # averaging only
    right: bool | None = None  # averaging only


def verify_family(table: AlgebraTable, fam: OperatorFamily,
                  weight=None) -> Verdict:
    """Check a family's chart against its operator condition symbolically.

    Algebra parameters stay symbolic, so "holds" means: identically in the
    free chart parameters and in any table parameter.
    """
    if fam.chart is None:
        raise ValueError(f"{fam.label()} is malformed; nothing to verify")
    if fam.algebra != table.name:
        raise ValueError(f"{fam.label()} does not belong to {table.name}")
    for con in fam.constraints:
        if con.is_zero:
            raise DenominatorVanishes(
                f"{fam.label()} has an identically zero constraint")
    if fam.kind == "rota-baxter":
        kind = make_kind(fam.kind, weight if weight is not None else fam.weight or "0")
    else:
        kind = make_kind(fam.kind)
    res = operator_residual(table, kind, fam.chart)
    hit = res.first_failure()
    witness = None if hit is None else hit[:-1] + (hit[-1].num,)
    if fam.kind != "averaging":
        return Verdict(hit is None, witness)
    return Verdict(hit is None, witness,
                   left=res.holds("left"), right=res.holds("right"))


def _parse_matrix(rows, pointer: str):
    """A square chart of parsed expressions, of any size."""
    if (not isinstance(rows, list) or not rows
            or any(not isinstance(r, list) or len(r) != len(rows)
                   for r in rows)):
        raise CatalogError(pointer, "chart must be a square matrix")
    out = []
    for r, row in enumerate(rows):
        line = []
        for c, text in enumerate(row):
            if not isinstance(text, str):
                raise CatalogError(f"{pointer}/{r}/{c}", "entry must be a string")
            try:
                line.append(parse_expr(text))
            except ExprSyntaxError as err:
                raise CatalogError(f"{pointer}/{r}/{c}", str(err)) from err
        out.append(line)
    return out


def load_families(kind_name: str | None = None, path: Path | None = None):
    """Load transcribed families; returns list[OperatorFamily].

    Either name a kind (reads its packaged file) or give an explicit path
    (which may mix kinds; each object still declares its own).
    """
    if path is None:
        if kind_name is None:
            raise ValueError("need a kind name or an explicit path")
        fname = kind_name.replace("-", "_") + ".json"
        path = data_dir() / "families" / fname
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, list):
        raise CatalogError("", "family file must be an array")
    fams = []
    for t, obj in enumerate(raw):
        pointer = f"/{t}"
        if not isinstance(obj, dict):
            raise CatalogError(pointer, "family must be an object")
        algebra = obj.get("algebra")
        kind = obj.get("kind")
        index = obj.get("index")
        if not isinstance(algebra, str) or kind not in KIND_NAMES \
                or not isinstance(index, int):
            raise CatalogError(pointer, "family needs algebra, kind, index")
        malformed = bool(obj.get("malformed", False))
        note = obj.get("note", "")
        weight = obj.get("weight")
        if kind == "rota-baxter" and weight is None:
            weight = "0"
        if malformed:
            fams.append(OperatorFamily(algebra, kind, index, None, (), (),
                                       True, weight, obj.get("rows"), note))
            continue
        chart = _parse_matrix(obj.get("chart"), f"{pointer}/chart")
        free = obj.get("free", [])
        if not isinstance(free, list) or not all(isinstance(x, str) for x in free):
            raise CatalogError(f"{pointer}/free", "free must be a list of names")
        occurring = set()
        for row in chart:
            for e in row:
                occurring |= e.params()
        stray = occurring - set(free)
        if stray:
            raise CatalogError(f"{pointer}/chart",
                               f"parameters {sorted(stray)} not listed as free")
        constraints = []
        for s, text in enumerate(obj.get("constraints", [])):
            try:
                constraints.append(parse_expr(text))
            except ExprSyntaxError as err:
                raise CatalogError(f"{pointer}/constraints/{s}", str(err)) from err
        # every chart denominator must be covered by a constraint
        for r, row in enumerate(chart):
            for c, e in enumerate(row):
                if e.den.is_const:
                    continue
                if not any(_same_vanishing(con, e.den) for con in constraints):
                    raise CatalogError(
                        f"{pointer}/chart/{r}/{c}",
                        "denominator not covered by any constraint")
        fams.append(OperatorFamily(algebra, kind, index, chart, tuple(free),
                                   tuple(constraints), False, weight, None, note))
    return fams


def _same_vanishing(con: RatExpr, den: Poly) -> bool:
    """True when the constraint is a nonzero scalar multiple of the denominator."""
    if con.den.terms != RE_ONE.den.terms:
        return False
    a, b = con.num, den
    if set(a.terms) != set(b.terms):
        return False
    ratio = None
    for m, ca in a.terms.items():
        cb = b.terms[m]
        r = ca / cb
        if ratio is None:
            ratio = r
        elif r != ratio:
            return False
    return True


# ---------------------------------------------------------------------------
# audit and dimension report

def audit_families(cmap: dict, fams, symbolic_weight: bool = True):
    """Verify every family; returns one report row per family.

    Rota-Baxter charts are checked at weight 0 and, when symbolic_weight is
    set and the weight-0 check passed, re-checked with the weight left
    symbolic; status is then "holds-any-weight" instead of "holds".
    """
    rows = []
    for fam in fams:
        row = {
            "algebra": fam.algebra,
            "kind": fam.kind,
            "index": fam.index,
            "malformed": fam.malformed,
        }
        if fam.note:
            row["note"] = fam.note
        if fam.malformed:
            row["status"] = "malformed"
            rows.append(row)
            continue
        table = cmap[fam.algebra]
        row["dim"] = family_dimension(fam)
        verdict = verify_family(table, fam)
        if fam.kind == "averaging":
            row["left"] = verdict.left
            row["right"] = verdict.right
        if verdict.holds:
            row["status"] = "holds"
            if fam.kind == "rota-baxter" and symbolic_weight:
                wname = "w"
                while wname in fam.free:
                    wname += "w"
                v2 = verify_family(table, fam, weight=RatExpr.var(wname))
                if v2.holds:
                    row["status"] = "holds-any-weight"
        else:
            row["status"] = "fails"
            i, j, q, cond, poly = verdict.witness
            w = {"i": i, "j": j, "q": q, "poly": str(poly)}
            if cond:
                w["condition"] = cond
            row["witness"] = w
        rows.append(row)
    return rows


def audit_summary(rows):
    total = len(rows)
    malformed = sum(1 for r in rows if r["status"] == "malformed")
    held = sum(1 for r in rows if r["status"].startswith("holds"))
    failed = sum(1 for r in rows if r["status"] == "fails")
    checked = total - malformed
    return {
        "total": total,
        "malformed": malformed,
        "checked": checked,
        "holds": held,
        "fails": failed,
        "pass_rate": f"{held}/{checked}",
    }


def dimension_report(cmap: dict, fams, kind_name: str, audit_rows=None):
    """Max verified family dimension per algebra vs the claimed global range."""
    if kind_name not in KIND_NAMES:
        raise ValueError(f"unknown operator kind {kind_name!r}")
    fams = [f for f in fams if f.kind == kind_name]
    if audit_rows is None:
        audit_rows = audit_families(cmap, fams)
    status = {(r["algebra"], r["index"]): r["status"] for r in audit_rows
              if r["kind"] == kind_name}
    per_algebra = {}
    for fam in fams:
        if fam.malformed or not status[(fam.algebra, fam.index)].startswith("holds"):
            continue
        d = family_dimension(fam)
        best = per_algebra.get(fam.algebra)
        if best is None or d > best["max_dim"]:
            per_algebra[fam.algebra] = {"max_dim": d, "family_index": fam.index}
    claimed_lo, claimed_hi = CLAIMED_DIM_RANGE[kind_name]
    dims = sorted(v["max_dim"] for v in per_algebra.values())
    report = {
        "kind": kind_name,
        "claimed_range": [claimed_lo, claimed_hi],
        "per_algebra": per_algebra,
        "algebras_without_verified_family":
            sorted(set(cmap) - set(per_algebra), key=_algebra_sort_key),
        "achieved_range": [dims[0], dims[-1]] if dims else None,
        "mismatches": [],
    }
    if dims:
        lo, hi = dims[0], dims[-1]
        if lo != claimed_lo:
            report["mismatches"].append({
                "bound": "min", "claimed": claimed_lo, "achieved": lo,
                "family": _extremal(per_algebra, lo)})
        if hi != claimed_hi:
            report["mismatches"].append({
                "bound": "max", "claimed": claimed_hi, "achieved": hi,
                "family": _extremal(per_algebra, hi)})
    return report


def _extremal(per_algebra, value):
    for name in sorted(per_algebra, key=_algebra_sort_key):
        v = per_algebra[name]
        if v["max_dim"] == value:
            return f"{name}#{v['family_index']}"
    return None


def _algebra_sort_key(name: str):
    digits = "".join(ch for ch in name if ch.isdigit())
    return (int(digits) if digits else 0, name)
