"""Structure-constant tables for right Leibniz algebras and their invariants.

A table holds c[i][j][k] with bracket(e_i, e_j) = sum_k c[i][j][k] e_k, all
entries RatExpr (so tables may carry symbolic parameters such as ``mu``).
The defining identity is checked through the residual

    R(x,y,z) = [x,[y,z]] - [[x,y],z] + [[x,z],y]

which must vanish identically; the bracket notation [.,.] here and below is
the algebra product, not a commutator.

ResidualTensor is the one residual type of the package: the Leibniz
residual above, the mixed residual of two brackets (compat) and the
operator residuals (operators) are all read through its labelled walk.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from pathlib import Path

from .exact import (
    ExactError,
    ExprSyntaxError,
    RatExpr,
    RE_ONE,
    RE_ZERO,
    Scalar,
    SC_ZERO,
    parse_expr,
)

# Parameter values used whenever a parameterized table has to be pinned down
# for a numeric check; each table filters this pool by its admissible set.
SAMPLE_POOL = (Fraction(0), Fraction(1), Fraction(2), Fraction(5))


class CatalogError(ExactError):
    """Schema violation in a data file; carries a JSON pointer."""

    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer


@dataclass(frozen=True)
class ParamSpec:
    """A table parameter and its admissible values.

    admissible is one of "{v1,v2,...}" (finite set), "C" (every scalar), or
    "C\\{v1,...}" (every scalar except the listed ones).
    """

    name: str
    admissible: str

    def _parsed(self):
        text = self.admissible
        if text == "C":
            return "all", ()
        if text.startswith("C\\{") and text.endswith("}"):
            vals = tuple(Fraction(v) for v in text[3:-1].split(","))
            return "all_but", vals
        if text.startswith("{") and text.endswith("}"):
            vals = tuple(Fraction(v) for v in text[1:-1].split(","))
            return "finite", vals
        raise ValueError(f"unreadable admissible set {text!r}")

    def allows(self, value: Scalar) -> bool:
        kind, vals = self._parsed()
        if kind == "all":
            return True
        if kind == "all_but":
            return not any(value == Scalar(v) for v in vals)
        return any(value == Scalar(v) for v in vals)

    def samples(self, pool=SAMPLE_POOL):
        return [v for v in pool if self.allows(Scalar(v))]


class AlgebraTable:
    """An n-dimensional algebra given by structure constants."""

    __slots__ = ("name", "dim", "c", "params", "_nonzero")

    def __init__(self, name: str, dim: int, c, params=()):
        self.name = name
        self.dim = dim
        self.c = tuple(tuple(tuple(row) for row in plane) for plane in c)
        self.params = tuple(params)
        self._nonzero = tuple(
            (i, j, k, self.c[i][j][k])
            for i in range(dim) for j in range(dim) for k in range(dim)
            if not self.c[i][j][k].is_zero
        )

    def param_names(self):
        return [p.name for p in self.params]

    def is_bound(self) -> bool:
        return not self.params

    def bracket(self, u, v):
        """Bracket of two coefficient vectors (length-dim sequences of RatExpr)."""
        out = [RE_ZERO] * self.dim
        for i, j, k, val in self._nonzero:
            ui = u[i]
            vj = v[j]
            if ui.is_zero or vj.is_zero:
                continue
            out[k] = out[k] + ui * vj * val
        return out

    def product(self, i: int, j: int):
        """Coefficient vector of bracket(e_i, e_j); 0-based indices."""
        return list(self.c[i][j])


def bind_params(table: AlgebraTable, bindings: dict) -> AlgebraTable:
    """Substitute parameter values (or fresh names) into a table.

    Values must be constants inside the parameter's admissible set, or bare
    parameter names (RatExpr variables), which rename the parameter.
    """
    specs = {p.name: p for p in table.params}
    for name in bindings:
        if name not in specs:
            raise ValueError(f"{table.name} has no parameter {name!r}")
    new_params = []
    sub = {}
    for p in table.params:
        if p.name not in bindings:
            new_params.append(p)
            continue
        value = bindings[p.name]
        if not isinstance(value, RatExpr):
            value = RatExpr.const(value)
        names = sorted(value.params())
        if not names:
            v = value.as_scalar()
            if not p.allows(v):
                raise ValueError(
                    f"{v} is outside the admissible set {p.admissible} "
                    f"of {table.name}.{p.name}")
        elif value == RatExpr.var(names[0]) and len(names) == 1:
            new_params.append(ParamSpec(names[0], p.admissible))
        else:
            raise ValueError("bindings must be constants or bare names")
        sub[p.name] = value
    c = [[[e.substitute(sub) for e in row] for row in plane] for plane in table.c]
    return AlgebraTable(table.name, table.dim, c, new_params)


def unit(n: int, i: int):
    """Coefficient vector of the basis element e_i (0-based)."""
    return [RE_ONE if q == i else RE_ZERO for q in range(n)]


class ResidualTensor:
    """The residual of an identity, one coefficient vector per basis tuple.

    entries maps each 0-based basis tuple (i, j) or (i, j, k), in
    lexicographic order, to a list of RatExpr.  With conditions empty the
    list holds the dim coordinates of one identity; otherwise it holds dim
    coordinates per named condition, in the order of conditions.  The
    identity holds iff every coordinate vanishes identically.
    """

    __slots__ = ("dim", "entries", "conditions")

    def __init__(self, dim: int, entries: dict, conditions=()):
        self.dim = dim
        self.entries = entries
        self.conditions = conditions

    @classmethod
    def tabulate(cls, dim: int, arity: int, coords, conditions=()):
        """The tensor whose vector at a basis tuple is coords(*tuple)."""
        return cls(dim, {index: coords(*index)
                         for index in iter_product(range(dim), repeat=arity)},
                   conditions)

    def walk(self):
        """Every coordinate as (label, value), in lexicographic order.

        The label is the 1-based (i, j[, k], q), followed by the condition
        name when the tensor has conditions.
        """
        q_range = range(1, self.dim + 1)
        tails = [(q, c) for c in self.conditions for q in q_range] \
            if self.conditions else [(q,) for q in q_range]
        for index, vec in self.entries.items():
            where = tuple(a + 1 for a in index)
            for tail, value in zip(tails, vec):
                yield where + tail, value

    def first_failure(self, condition=None):
        """The first nonzero coordinate as label + (value,), or None; with
        condition given, only that condition's coordinates are read."""
        for label, value in self.walk():
            if not value.is_zero and condition in (None, label[-1]):
                return label + (value,)
        return None

    @property
    def is_zero(self) -> bool:
        return self.first_failure() is None

    def holds(self, condition) -> bool:
        """Whether every coordinate of the named condition vanishes."""
        return self.first_failure(condition) is None


def leibniz_residual(table: AlgebraTable) -> ResidualTensor:
    """R(e_i,e_j,e_k) = [e_i,[e_j,e_k]] - [[e_i,e_j],e_k] + [[e_i,e_k],e_j]."""
    n = table.dim

    def coords(i, j, k):
        t1 = table.bracket(unit(n, i), table.product(j, k))
        t2 = table.bracket(table.product(i, j), unit(n, k))
        t3 = table.bracket(table.product(i, k), unit(n, j))
        return [t1[q] - t2[q] + t3[q] for q in range(n)]

    return ResidualTensor.tabulate(n, 3, coords)


def combined_bracket(a: AlgebraTable, b: AlgebraTable, l1, l2) -> AlgebraTable:
    """The pencil l1*[.,.]_a + l2*[.,.]_b on a common underlying space."""
    if a.dim != b.dim:
        raise ValueError("tables have different dimensions")
    l1 = l1 if isinstance(l1, RatExpr) else RatExpr.const(l1)
    l2 = l2 if isinstance(l2, RatExpr) else RatExpr.const(l2)
    n = a.dim
    c = [[[l1 * a.c[i][j][k] + l2 * b.c[i][j][k] for k in range(n)]
          for j in range(n)] for i in range(n)]
    specs = {}
    for p in list(a.params) + list(b.params):
        old = specs.get(p.name)
        if old is not None and old.admissible != p.admissible:
            raise ValueError(f"conflicting admissible sets for parameter {p.name!r}")
        specs[p.name] = p
    extra = [ParamSpec(nm, "C") for e in (l1, l2) for nm in sorted(e.params())
             if nm not in specs]
    return AlgebraTable(f"{a.name}+{b.name}", n,
                        c, list(specs.values()) + extra)


# ---------------------------------------------------------------------------
# exact linear algebra over Scalar

def echelon_basis(rows):
    """Row-reduce a list of Scalar vectors; returns a basis of their span."""
    basis = []  # list of (pivot_index, normalized row)
    for row in rows:
        row = list(row)
        for pivot, b in basis:
            factor = row[pivot]
            if not factor.is_zero:
                row = [x - factor * y for x, y in zip(row, b)]
        lead = next((t for t, x in enumerate(row) if not x.is_zero), None)
        if lead is None:
            continue
        inv = row[lead]
        row = [x / inv for x in row]
        basis.append((lead, row))
    basis.sort(key=lambda pb: pb[0])
    return [b for _, b in basis]


def _scalar_tensor(table: AlgebraTable):
    if not table.is_bound():
        raise ValueError(
            f"{table.name} still has unbound parameters: {table.param_names()}")
    return [[[e.as_scalar() for e in row] for row in plane] for plane in table.c]


def lower_central_series(table: AlgebraTable):
    """Dims of L^1 >= L^2 >= ... with L^(k+1) = [L^k, L].

    Returns (dims, nilpotent).  The list ends with 0 when the series
    terminates, otherwise with the first repeated dimension.
    """
    n = table.dim
    cs = _scalar_tensor(table)
    basis = [[Scalar(1) if q == t else SC_ZERO for q in range(n)]
             for t in range(n)]
    dims = [n]
    while True:
        gens = []
        for u in basis:
            for j in range(n):
                w = [SC_ZERO] * n
                for a in range(n):
                    ua = u[a]
                    if ua.is_zero:
                        continue
                    row = cs[a][j]
                    for q in range(n):
                        if not row[q].is_zero:
                            w[q] = w[q] + ua * row[q]
                if any(not x.is_zero for x in w):
                    gens.append(w)
        nxt = echelon_basis(gens)
        dims.append(len(nxt))
        if len(nxt) == 0 or len(nxt) == dims[-2]:
            return dims, dims[-1] == 0
        basis = nxt


# ---------------------------------------------------------------------------
# data files

def data_dir() -> Path:
    override = os.environ.get("LEIBNIZ_DATA_DIR")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "data"


def _parse_entry_list(raw, dim: int, declared: set, pointer: str):
    c = [[[RE_ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    seen = set()
    if not isinstance(raw, list):
        raise CatalogError(pointer, "entries must be an array")
    for t, item in enumerate(raw):
        here = f"{pointer}/{t}"
        if (not isinstance(item, list) or len(item) != 4
                or not all(isinstance(x, int) for x in item[:3])
                or not isinstance(item[3], str)):
            raise CatalogError(here, "entry must be [i, j, k, expr]")
        i, j, k, text = item
        if not all(1 <= x <= dim for x in (i, j, k)):
            raise CatalogError(here, f"index out of range 1..{dim}")
        if (i, j, k) in seen:
            raise CatalogError(here, f"duplicate entry for ({i},{j},{k})")
        seen.add((i, j, k))
        try:
            e = parse_expr(text)
        except ExprSyntaxError as err:
            raise CatalogError(here, f"bad expression: {err}") from err
        undeclared = e.params() - declared
        if undeclared:
            raise CatalogError(here, f"undeclared parameters {sorted(undeclared)}")
        c[i - 1][j - 1][k - 1] = e
    return c


def _table_from_obj(obj, pointer: str) -> AlgebraTable:
    if not isinstance(obj, dict):
        raise CatalogError(pointer, "algebra must be an object")
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        raise CatalogError(f"{pointer}/name", "missing or empty name")
    dim = obj.get("dim")
    if not isinstance(dim, int) or dim < 1:
        raise CatalogError(f"{pointer}/dim", "dim must be a positive integer")
    raw_params = obj.get("params", [])
    if not isinstance(raw_params, list):
        raise CatalogError(f"{pointer}/params", "params must be an array")
    specs = []
    for t, rp in enumerate(raw_params):
        here = f"{pointer}/params/{t}"
        if (not isinstance(rp, dict) or not isinstance(rp.get("name"), str)
                or not isinstance(rp.get("admissible"), str)):
            raise CatalogError(here, "param must be {name, admissible}")
        spec = ParamSpec(rp["name"], rp["admissible"])
        try:
            spec._parsed()
        except ValueError as err:
            raise CatalogError(f"{here}/admissible", str(err)) from err
        specs.append(spec)
    declared = {s.name for s in specs}
    c = _parse_entry_list(obj.get("entries", []), dim, declared,
                          f"{pointer}/entries")
    return AlgebraTable(name, dim, c, specs)


def load_catalog(path: Path | None = None):
    """Load the algebra catalog; returns a list of AlgebraTable."""
    if path is None:
        path = data_dir() / "catalog.json"
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise CatalogError("", f"not valid JSON: {err}") from err
    if not isinstance(raw, list):
        raise CatalogError("", "catalog must be an array of algebras")
    tables = []
    names = set()
    for t, obj in enumerate(raw):
        table = _table_from_obj(obj, f"/{t}")
        if table.name in names:
            raise CatalogError(f"/{t}/name", f"duplicate algebra {table.name!r}")
        names.add(table.name)
        tables.append(table)
    return tables


def catalog_map(path: Path | None = None):
    return {t.name: t for t in load_catalog(path)}


def load_errata(path: Path | None = None):
    """Transcription notes: printed readings that differ from the shipped tables."""
    if path is None:
        path = data_dir() / "errata.json"
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, list):
        raise CatalogError("", "errata must be an array")
    for t, obj in enumerate(raw):
        if not isinstance(obj, dict) or not isinstance(obj.get("algebra"), str):
            raise CatalogError(f"/{t}", "erratum must name an algebra")
    return raw


def printed_variant(table: AlgebraTable, erratum: dict) -> AlgebraTable:
    """The as-printed variant of a table recorded in an erratum."""
    specs = list(table.params)
    for extra in erratum.get("printed_params", []):
        specs.append(ParamSpec(extra["name"], extra["admissible"]))
    declared = {p.name for p in specs}
    c = _parse_entry_list(erratum.get("printed_table", []), table.dim, declared,
                          "/printed_table")
    return AlgebraTable(f"{table.name}(as printed)", table.dim, c, specs)


def sample_bindings(table: AlgebraTable, pool=SAMPLE_POOL):
    """All ways to bind every parameter to admissible sample values.

    Returns a list of dicts (a single empty dict for parameter-free tables).
    """
    combos = [{}]
    for p in table.params:
        vals = p.samples(pool)
        combos = [dict(c, **{p.name: RatExpr.const(v)}) for c in combos for v in vals]
    return combos
