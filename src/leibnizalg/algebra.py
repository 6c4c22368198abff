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
A residual is computed in lexicographic order and stops at its first
nonzero vector, which already decides whether the identity holds and
where it first fails; the rest is computed only for a reader that walks
on.

Residual vectors are sparse: a dict {q: RatExpr} holding only the
nonzero coordinates, so a vector that is mostly zero costs only its
nonzero entries.  Catalog tables are sparse too (a few nonzero constants
out of dim^3), and the residuals are contractions over the nonzero
constants only: a bracket with a basis vector, [e_a, v] or [u, e_b], runs
over the table's nonzero entries with that first or second index
(AlgebraTable.e_bracket and bracket_e), and AlgebraTable.sparse_c holds
each c[i][j] as such a vector.  Each coordinate is summed in ascending
contracted index, the order of the dense bracket, so the unreduced text
of every residual coordinate, and with it every witness, is the dense
bracket's.  The operator matrix is contracted by the same contraction
(contract), over its nonzero entries.

The residuals' own sums, such as the three brackets of R above, add only
their nonzero terms (signed_sum), and so do the contractions, both
through one sparse sum (_add).  This rests on the zero-operand rule of
exact.RatExpr (x + 0 and x - 0 are x, 0 - x is -x), by which the sparse
sum returns the very objects of the dense one, in the same order and
with the same signs.  A ResidualTensor reads its sparse vectors back
densely: walk gives RE_ZERO for every coordinate a vector leaves out, so
labels and values are as dense.

The lower central series brackets with the same bracket_e and row-reduces
the resulting constants as RatExprs (echelon_basis).
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

    __slots__ = ("name", "dim", "c", "params", "sparse_c", "_nonzero",
                 "_left", "_right", "_leibniz", "_apart")

    def __init__(self, name: str, dim: int, c, params=()):
        self.name = name
        self.dim = dim
        self.c = tuple(tuple(tuple(row) for row in plane) for plane in c)
        self.params = tuple(params)
        # c[i][j] as a sparse vector {k: c[i][j][k]} of its nonzero constants
        self.sparse_c = tuple(tuple({k: x for k, x in enumerate(row)
                                     if x.num.terms} for row in plane)
                              for plane in self.c)
        self._nonzero = tuple(
            (i, j, k, val)
            for i in range(dim) for j in range(dim)
            for k, val in self.sparse_c[i][j].items()
        )
        # the nonzero entries by index: _left[a] holds (b, q, val) and
        # _right[b] holds (a, q, val) for [e_a, e_b] = ... + val e_q, both
        # in the lexicographic order of _nonzero
        self._left = tuple(tuple((j, k, val) for i, j, k, val in self._nonzero
                                 if i == a) for a in range(dim))
        self._right = tuple(tuple((i, k, val) for i, j, k, val in self._nonzero
                                  if j == b) for b in range(dim))
        self._leibniz = None
        # copies with parameters renamed apart (compat._disjoin_params), by
        # the names they avoid; kept, like the verdict, as the table is fixed
        self._apart = {}

    def param_names(self):
        return [p.name for p in self.params]

    def is_bound(self) -> bool:
        return not self.params

    def is_leibniz(self) -> bool:
        """Whether leibniz_residual vanishes, symbolically in any parameters;
        computed on first use and kept on the table, which never changes."""
        if self._leibniz is None:
            self._leibniz = leibniz_residual(self).is_zero
        return self._leibniz

    def bracket(self, u: dict, v: dict) -> dict:
        """Bracket of two sparse vectors; each coordinate k sums
        u[i] * v[j] * c[i][j][k] in ascending (i, j)."""
        out = {}
        if u and v:
            for i, j, k, val in self._nonzero:
                ui = u.get(i)
                if ui is not None:
                    vj = v.get(j)
                    if vj is not None:
                        _add(out, k, ui * vj * val)
        return out

    def e_bracket(self, a: int, v: dict) -> dict:
        """[e_a, v] for a sparse vector v; 0-based index."""
        return contract(self._left[a], v)

    def bracket_e(self, u: dict, b: int) -> dict:
        """[u, e_b] for a sparse vector u; 0-based index."""
        return contract(self._right[b], u)


def _add(out: dict, q: int, x):
    """out[q] += x for a nonzero x in a sparse vector: out[q] is x when the
    coordinate is absent, and it is dropped when the sum cancels.  A
    dropped coordinate stands for the zero the dense sum holds there,
    whose next step 0 + x is x by the zero-operand rule, as here."""
    s = out.get(q)
    if s is None:
        out[q] = x
    else:
        s = s + x
        if s.num.terms:
            out[q] = s
        else:
            del out[q]


def contract(nonzero, vec: dict) -> dict:
    """The sparse vector sum of vec[t] * val e_q over (t, q, val) in
    nonzero.

    Each coordinate is summed in ascending t, the order bracket takes, so
    the unreduced text of a sum is the same as bracket's with a unit vector.
    """
    out = {}
    if vec:
        for t, q, val in nonzero:
            x = vec.get(t)
            if x is not None:
                _add(out, q, x * val)
    return out


def signed_sum(terms) -> dict:
    """The sparse vector t1 +- t2 +- ... of sparse terms ((plus, t1),
    (plus, t2), ...), plus False for a difference.

    Each coordinate adds its terms' nonzero entries left to right, with
    their signs.  A sum or difference with a zero operand is the other
    operand unchanged, and 0 - x is -x (the zero-operand rule of
    exact.RatExpr), so every coordinate is the object the dense expression
    t1 +- t2 +- ... would give, down to its unreduced text (s - x and
    s + (-x) are equal polynomials); a coordinate whose sum is zero is
    left out.
    """
    out = {}
    for plus, vec in terms:
        for q, x in vec.items():
            _add(out, q, x if plus else -x)
    return out


def bind_params(table: AlgebraTable, bindings: dict) -> AlgebraTable:
    """Substitute parameter values (or fresh names) into a table.

    Values must be constants inside the parameter's admissible set, or bare
    parameter names (RatExpr variables), which rename the parameter.
    Entries without a bound name are kept as they are.
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
    c = [[list(row) for row in plane] for plane in table.c]
    for i, j, k, e in table._nonzero:
        if not e.params().isdisjoint(sub):
            c[i][j][k] = e.substitute(sub)
    return AlgebraTable(table.name, table.dim, c, new_params)


class ResidualTensor:
    """The residual of an identity, one coefficient vector per basis tuple.

    Each 0-based basis tuple (i, j) or (i, j, k), in lexicographic order,
    has a vector of RatExpr.  With conditions empty the vector holds the
    dim coordinates of one identity; otherwise it holds dim coordinates
    per named condition, in the order of conditions.  The identity holds
    iff every coordinate vanishes identically.

    The vectors are kept sparse, as {t: RatExpr} over the nonzero
    coordinates t; walk gives every coordinate back, with RE_ZERO for each
    one left out.

    A tensor is built by tabulate, which computes its vectors in
    lexicographic order up to the first nonzero one, which decides is_zero
    and first_failure; the rest are computed only when walk or
    holds(condition) reach them, and each vector is computed once.
    """

    __slots__ = ("dim", "conditions", "_vectors", "_pending")

    def __init__(self, dim: int, conditions=()):
        self.dim = dim
        self.conditions = conditions
        self._vectors = []
        self._pending = iter(())

    @classmethod
    def tabulate(cls, dim: int, arity: int, coords, conditions=()):
        """The tensor whose sparse vector at a basis tuple is
        coords(*tuple), computed up to the first nonzero vector."""
        res = cls(dim, conditions)
        indices = iter_product(range(dim), repeat=arity)
        for index in indices:
            vec = coords(*index)
            res._vectors.append((index, vec))
            if vec:
                break
        res._pending = ((index, coords(*index)) for index in indices)
        return res

    def _items(self):
        """(index, sparse vector) in lexicographic order, computing the
        pending vectors as they are reached."""
        done = self._vectors
        t = 0
        while True:
            if t == len(done):
                item = next(self._pending, None)
                if item is None:
                    return
                done.append(item)
            yield done[t]
            t += 1

    def _tails(self):
        """The label tail of each coordinate of a vector: (q,), or
        (q, condition) when the tensor has conditions."""
        q_range = range(1, self.dim + 1)
        if self.conditions:
            return [(q, c) for c in self.conditions for q in q_range]
        return [(q,) for q in q_range]

    def walk(self):
        """Every coordinate as (label, value), in lexicographic order.

        The label is the 1-based (i, j[, k], q), followed by the condition
        name when the tensor has conditions.
        """
        tails = self._tails()
        for index, vec in self._items():
            where = tuple(a + 1 for a in index)
            for t, tail in enumerate(tails):
                yield where + tail, vec.get(t, RE_ZERO)

    def first_failure(self, condition=None):
        """The first nonzero coordinate as label + (value,), or None; with
        condition given, only that condition's coordinates are read.  Only
        the hit's label is built."""
        tails = self._tails()
        for index, vec in self._items():
            for t in sorted(vec):
                tail = tails[t]
                if condition in (None, tail[-1]):
                    return tuple(a + 1 for a in index) + tail + (vec[t],)
        return None

    @property
    def is_zero(self) -> bool:
        return not any(vec for _, vec in self._items())

    def holds(self, condition) -> bool:
        """Whether every coordinate of the named condition vanishes."""
        return self.first_failure(condition) is None


def witness_dict(hit):
    """A first_failure (i, j, k, q, value) as JSON; None stays None."""
    if hit is None:
        return None
    i, j, k, q, value = hit
    return {"i": i, "j": j, "k": k, "q": q, "value": str(value)}


def leibniz_residual(table: AlgebraTable) -> ResidualTensor:
    """R(e_i,e_j,e_k) = [e_i,[e_j,e_k]] - [[e_i,e_j],e_k] + [[e_i,e_k],e_j]."""
    c = table.sparse_c

    def coords(i, j, k):
        return signed_sum(((True, table.e_bracket(i, c[j][k])),
                           (False, table.bracket_e(c[i][j], k)),
                           (True, table.bracket_e(c[i][k], j))))

    return ResidualTensor.tabulate(table.dim, 3, coords)


def combined_bracket(a: AlgebraTable, b: AlgebraTable, l1, l2) -> AlgebraTable:
    """The pencil l1*[.,.]_a + l2*[.,.]_b on a common underlying space;
    only the positions where a or b has a nonzero constant are summed."""
    if a.dim != b.dim:
        raise ValueError("tables have different dimensions")
    l1 = l1 if isinstance(l1, RatExpr) else RatExpr.const(l1)
    l2 = l2 if isinstance(l2, RatExpr) else RatExpr.const(l2)
    n = a.dim
    c = [[[RE_ZERO] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, _ in a._nonzero + b._nonzero:
        c[i][j][k] = l1 * a.c[i][j][k] + l2 * b.c[i][j][k]
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
# exact linear algebra

def echelon_basis(rows):
    """Row-reduce a list of vectors over a field (Scalar or constant
    RatExpr entries); returns a basis of their span."""
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


def lower_central_series(table: AlgebraTable):
    """Dims of L^1 >= L^2 >= ... with L^(k+1) = [L^k, L].

    Returns (dims, nilpotent).  The list ends with 0 when the series
    terminates, otherwise with the first repeated dimension.  Each step
    brackets the basis of L^k with every e_j (bracket_e) and row-reduces
    the nonzero results; the table must be bound, so that the constants
    are numbers.
    """
    if not table.is_bound():
        raise ValueError(f"{table.name} still has unbound parameters: "
                         f"{table.param_names()}")
    n = table.dim
    basis = [{t: RE_ONE} for t in range(n)]
    dims = [n]
    while True:
        gens = []
        for u in basis:
            for j in range(n):
                w = table.bracket_e(u, j)
                if w:
                    gens.append([w.get(q, RE_ZERO) for q in range(n)])
        nxt = echelon_basis(gens)
        dims.append(len(nxt))
        if len(nxt) == 0 or len(nxt) == dims[-2]:
            return dims, dims[-1] == 0
        basis = [{q: x for q, x in enumerate(b) if not x.is_zero}
                 for b in nxt]


# ---------------------------------------------------------------------------
# data files

def algebra_sort_key(name: str):
    """Natural order of algebra names: L2 before L10."""
    digits = "".join(ch for ch in name if ch.isdigit())
    return (int(digits) if digits else 0, name)


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


def read_json_array(path, message: str) -> list:
    """The JSON array a data file holds.  A file that cannot be read (a
    missing one, or a directory in its place) or is not valid JSON raises
    CatalogError, and so does one that holds no array, with message."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as err:
        raise CatalogError("", f"cannot read: {err}") from err
    except ValueError as err:      # JSONDecodeError, or text not UTF-8
        raise CatalogError("", f"not valid JSON: {err}") from err
    if not isinstance(raw, list):
        raise CatalogError("", message)
    return raw


def load_catalog(path: Path | None = None):
    """Load the algebra catalog; returns a list of AlgebraTable."""
    if path is None:
        path = data_dir() / "catalog.json"
    raw = read_json_array(path, "catalog must be an array of algebras")
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
    raw = read_json_array(path, "errata must be an array")
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
