"""Dense references for the sparse residual layer.

The library keeps a residual vector sparse, as {q: RatExpr} over its
nonzero coordinates.  The references here work on dense coefficient
lists: bracket is the dense bracket of two coefficient vectors and
signed_sum the dense sum that skips zero terms, as the library computed
them before its vectors went sparse.  The dense-oracle tests read the
library's sparse vectors densely (dense) and compare them with these,
value by value and text by text.

eager computes a residual with every vector up front, the reference for
ResidualTensor, which stops at the first nonzero vector: the library's
coords give sparse vectors, which strategies.EagerResidual reads densely.
vectors reads a residual's values back through walk, as dense lists.
lower_central_series is the series over dense Scalar vectors.
"""

from unittest import mock

from leibnizalg.algebra import ResidualTensor, echelon_basis
from leibnizalg.exact import RE_ZERO, SC_ONE, SC_ZERO
from strategies import EagerResidual


def sparse(vec) -> dict:
    """A dense coefficient list as a sparse vector."""
    return {q: x for q, x in enumerate(vec) if not x.is_zero}


def dense(vec: dict, n: int) -> list:
    """A sparse vector as a dense list of n coordinates."""
    return [vec.get(q, RE_ZERO) for q in range(n)]


def bracket(table, u, v) -> list:
    """Bracket of two dense coefficient vectors over every (i, j, k):
    coordinate k sums u[i] * v[j] * c[i][j][k] in ascending (i, j),
    skipping zero factors."""
    n = table.dim
    out = [RE_ZERO] * n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                val = table.c[i][j][k]
                if u[i].is_zero or v[j].is_zero or val.is_zero:
                    continue
                x = u[i] * v[j] * val
                out[k] = x if out[k] is RE_ZERO else out[k] + x
    return out


def signed_sum(terms, n: int) -> list:
    """The dense vector t1 +- t2 +- ... of dense terms, plus False for a
    difference; each coordinate adds its nonzero terms left to right."""
    out = [None] * n
    for plus, vec in terms:
        for q, x in enumerate(vec):
            if not x.is_zero:
                s = out[q]
                if s is None:
                    out[q] = x if plus else -x
                else:
                    out[q] = s + x if plus else s - x
    return [RE_ZERO if s is None else s for s in out]


def lower_central_series(table):
    """(dims, nilpotent) of a bound table over dense Scalar vectors, each
    bracket [u, e_j] summed over every structure constant."""
    n = table.dim
    cs = [[[e.as_scalar() for e in row] for row in plane] for plane in table.c]
    basis = [[SC_ONE if q == t else SC_ZERO for q in range(n)]
             for t in range(n)]
    dims = [n]
    while True:
        gens = []
        for u in basis:
            for j in range(n):
                w = [sum((u[a] * cs[a][j][q] for a in range(n)), SC_ZERO)
                     for q in range(n)]
                if any(not x.is_zero for x in w):
                    gens.append(w)
        basis = echelon_basis(gens)
        dims.append(len(basis))
        if not basis or len(basis) == dims[-2]:
            return dims, not basis


def vectors(residual) -> dict:
    """{0-based basis tuple: the dense list of its coordinates}, read
    through walk."""
    tail = 2 if residual.conditions else 1
    out = {}
    for label, value in residual.walk():
        out.setdefault(tuple(a - 1 for a in label[:-tail]), []).append(value)
    return out


def eager(residual, *args):
    """residual(*args) with ResidualTensor.tabulate building an
    EagerResidual, every vector read densely, instead."""
    def build(dim, arity, coords, conditions=()):
        width = dim * max(len(conditions), 1)
        return EagerResidual(dim, arity,
                             lambda *index: dense(coords(*index), width),
                             conditions)

    with mock.patch.object(ResidualTensor, "tabulate", staticmethod(build)):
        return residual(*args)
