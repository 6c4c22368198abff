"""Hypothesis strategies and helpers shared by the dense-oracle tests.

sparse_tables draws small structure-constant tables, from a few nonzero
entries, as in the catalog, up to about half of them.  The entries mix
integers, Gaussian rationals, a symbolic ``mu`` and fractions over the
denominators 1 - mu, 1 + mu and mu.  A residual coordinate then often sums fractions
over equal and distinct denominators, where the order of summation shows
in the unreduced text: 1/(1-mu) + mu/(1-mu) + 1/(1+mu) and the same sum
taken backwards print differently.

unit is the basis vector the dense reference formulas bracket with; the
library contracts over nonzero structure constants instead.

mod_tables draws bound tables of constants below a prime, for the F_p
sweep kernels and walks.
"""

from itertools import product

from hypothesis import strategies as st

from leibnizalg.algebra import AlgebraTable, ParamSpec
from leibnizalg.exact import RE_ONE, RE_ZERO, RatExpr, parse_expr

ENTRY_TEXTS = (
    "1", "-1", "2", "-3/2", "i", "1+i", "-2/3*i",
    "mu", "-mu", "mu^2 - 1", "i*mu",
    "(1 + mu)/(1 - mu)", "1/(1 - mu)", "mu/(1 - mu)",
    "1/(1 + mu)", "(2*mu)/(1 + mu)", "(1 - mu)/mu",
)


def unit(n: int, i: int):
    """Coefficient vector of the basis element e_i (0-based)."""
    return [RE_ONE if q == i else RE_ZERO for q in range(n)]


@st.composite
def sparse_tables(draw, dim: int, name: str = "T"):
    """A dim-dimensional table; about 7 %, 30 % or 50 % of its structure
    constants are nonzero."""
    zeros = draw(st.sampled_from((240, 40, 16)))
    pool = ENTRY_TEXTS + ("0",) * zeros
    texts = iter(draw(st.lists(st.sampled_from(pool), min_size=dim ** 3,
                               max_size=dim ** 3)))
    c = [[[parse_expr(next(texts)) for _ in range(dim)] for _ in range(dim)]
         for _ in range(dim)]
    return AlgebraTable(name, dim, c, [ParamSpec("mu", "C\\{-1,0,1}")])


dims = st.integers(min_value=2, max_value=4)


@st.composite
def mod_tables(draw, p, dims=(2, 4)):
    """A random table of structure constants in [0, p) (not necessarily
    Leibniz: the kernels evaluate the operator identity for any bracket),
    of a dimension in the closed range dims.  Like the catalog's tables,
    many are sparse."""
    n = draw(st.integers(*dims))
    pool = (0,) * draw(st.sampled_from((1, 4, 16))) + tuple(range(1, p))
    digits = draw(st.lists(st.sampled_from(pool), min_size=n ** 3,
                           max_size=n ** 3))
    c = [[[RatExpr.const(digits[(i * n + j) * n + k]) for k in range(n)]
          for j in range(n)] for i in range(n)]
    return AlgebraTable("random", n, c)


def walk_text(residual):
    """Every coordinate of a residual as (label, printed value)."""
    return [(label, str(value)) for label, value in residual.walk()]


class EagerResidual:
    """Reference residual: every vector computed when it is built, and
    read as ResidualTensor reads its vectors."""

    def __init__(self, dim, arity, coords, conditions=()):
        self.dim = dim
        self.conditions = conditions
        self.entries = {index: coords(*index)
                        for index in product(range(dim), repeat=arity)}

    def walk(self):
        q_range = range(1, self.dim + 1)
        tails = [(q, c) for c in self.conditions for q in q_range] \
            if self.conditions else [(q,) for q in q_range]
        for index, vec in self.entries.items():
            where = tuple(a + 1 for a in index)
            for tail, value in zip(tails, vec):
                yield where + tail, value

    def first_failure(self, condition=None):
        for label, value in self.walk():
            if not value.is_zero and condition in (None, label[-1]):
                return label + (value,)
        return None

    @property
    def is_zero(self):
        return all(v.is_zero for vec in self.entries.values() for v in vec)

    def holds(self, condition):
        return self.first_failure(condition) is None
