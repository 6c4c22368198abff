"""Exhaustive operator-solution search over a small prime field.

For a bound structure-constant table and an operator condition, the p^(n*n)
matrices over F_p can be swept outright and the exact solution set listed.
Comparing that list against the points reachable by the verified parametric
charts measures how much of the solution set the charts explain.  Finite
field coverage is evidence, not proof: a chart that covers everything mod p
can still miss characteristic-0 solutions, and vice versa.

Two independent evaluation paths are kept deliberately:

  * "compiled": the symbolic equation system is compiled to coefficient
    arrays once, and all candidate matrices are evaluated by vectorized
    polynomial arithmetic;
  * "direct": residuals are recomputed from the structure constants by
    tensor contractions, never touching the symbolic pipeline.

Agreement of the two paths on a full sweep is itself a checked property.
All arithmetic is integer arithmetic reduced mod p; no floating point is
involved anywhere.

At p = 2 both paths are bitsliced: entry t of every matrix in a block is one
bit plane, a product is an AND of planes and a sum is an XOR.  The compiled
path ANDs the entries of each monomial (x^e = x over F_2) and XORs the
monomials with odd coefficient into each equation; the direct path runs its
contractions as AND/XOR over planes and still reads only the structure
constants mod 2.  For p > 2 the integer kernels are used; a sweep is refused
when the worst case of their intermediates does not fit their dtype.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import product as iter_product

import numpy as np

from .algebra import AlgebraTable
from .exact import (
    DenominatorVanishes,
    ExactError,
    NonInvertibleDenominator,
    NonRealValue,
    Poly,
    RatExpr,
    reduce_mod_p,
)
from .operators import OperatorFamily, OperatorKind, build_system, \
    operator_residual

#: sweeps and membership fallbacks refuse to run past this many cases unless
#: the caller raises the budget explicitly (2^16 admits the full p=2 sweep
#: for 4x4 matrices; p=3 needs 3^16 ~ 43M and must be asked for)
DEFAULT_BUDGET = 1 << 16

COVERAGE_NOTE = ("finite-field coverage is evidence, not proof: charts are "
                 "compared with the brute-force solution set over F_p only, "
                 "and charts that do not reduce mod p are skipped")


class RefusedSize(ExactError):
    """A brute-force request exceeds the configured budget."""


#: Miller-Rabin with the primes up to 41 as bases decides primality of every
#: integer below this bound (Sorenson and Webster, Math. Comp. 86, 2017);
#: larger fields are refused, so checking a field never costs more than a
#: few modular powers
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _check_prime(p: int):
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"{p!r} is not a prime")
    if p >= _MILLER_RABIN_BOUND:
        raise ValueError(f"fields of size {_MILLER_RABIN_BOUND} or more "
                         f"are not supported")
    if not _is_prime(p):
        raise ValueError(f"{p!r} is not a prime")


@dataclass(frozen=True)
class FpMatrix:
    """An n x n matrix over F_p with entries reduced to [0, p)."""

    p: int
    entries: tuple  # tuple of row tuples of ints

    def __post_init__(self):
        _check_prime(self.p)
        n = len(self.entries)
        ok = all(isinstance(row, tuple) and len(row) == n
                 and all(isinstance(x, int) and 0 <= x < self.p for x in row)
                 for row in self.entries)
        if not ok:
            raise ValueError("entries must be square with values in [0, p)")

    @staticmethod
    def from_index(m: int, n: int, p: int) -> "FpMatrix":
        """Decode a counter value; digit r*n+c (little-endian) is entry (r,c)."""
        rows = []
        for r in range(n):
            row = []
            for c in range(n):
                row.append((m // p ** (r * n + c)) % p)
            rows.append(tuple(row))
        return FpMatrix(p, tuple(rows))

    def index(self) -> int:
        n = len(self.entries)
        return sum(self.entries[r][c] * self.p ** (r * n + c)
                   for r in range(n) for c in range(n))

    def as_lists(self):
        return [list(row) for row in self.entries]


# ---------------------------------------------------------------------------
# compiled evaluation path

@dataclass
class CompiledSystem:
    """Equation coefficients over F_p, ready for vectorized evaluation.

    monos[t] is a monomial in the flattened matrix entries, as a tuple of
    (flat_position, exponent); coeffs[t][k] is the coefficient of monomial t
    in equation k, already reduced mod p.
    """

    p: int
    n: int
    monos: tuple
    coeffs: np.ndarray

    @property
    def equation_count(self) -> int:
        return self.coeffs.shape[1]

    @cached_property
    def f2_terms(self) -> tuple:
        """Gather and segment arrays that evaluate the system by bit planes.

        Returns (positions, mono_starts, terms, eq_starts).  Monomial t is
        the AND of the planes positions[mono_starts[t]:mono_starts[t + 1]];
        exponents drop since x^e = x over F_2, and no monomial is constant
        because every operator identity vanishes at T = 0.  Each equation
        with an odd coefficient is the XOR of the monomials
        terms[eq_starts[k]:eq_starts[k + 1]]; equations without one vanish
        identically and are left out.
        """
        positions, mono_starts = [], []
        for mono in self.monos:
            mono_starts.append(len(positions))
            positions.extend(sorted({pos for pos, _ in mono}))
        eqs, terms = np.nonzero((self.coeffs % 2).T)
        eq_starts = np.flatnonzero(np.diff(eqs, prepend=-1))
        return (np.array(positions, dtype=np.intp),
                np.array(mono_starts, dtype=np.intp), terms, eq_starts)

    def worst_intermediate(self) -> int:
        """Largest value the integer kernel can hold before reducing mod p:
        an equation's sum with every entry at p - 1.  Every term is
        nonnegative, so partial sums and products stay below it."""
        if not self.monos:
            return 0
        top = np.array([(self.p - 1) ** sum(e for _, e in mono)
                        for mono in self.monos], dtype=object)
        return int(max(self.coeffs.T.astype(object) @ top))


def compile_system(table: AlgebraTable, kind: OperatorKind,
                   p: int) -> CompiledSystem:
    _check_prime(p)
    if not table.is_bound():
        raise ValueError(f"{table.name} still has unbound parameters "
                         f"{table.param_names()}")
    if kind.weight is not None and kind.weight.params():
        raise ValueError("the weight must be bound for finite-field work")
    n = table.dim
    if n > 9:
        raise ValueError("unknown-name digits support dimension at most 9")
    sys = build_system(table, kind)

    def flat(name: str) -> int:
        return (int(name[-2]) - 1) * n + (int(name[-1]) - 1)

    mono_ids = {}
    monos = []
    columns = []
    for eq, den in zip(sys.equations, sys.denominators):
        dval = den.const_value()  # denominators collect only table constants
        terms = {}
        for mono, coef in eq.terms.items():
            cval = reduce_mod_p(RatExpr.const(coef / dval), p)
            if cval == 0:
                continue
            key = tuple((flat(nm), e) for nm, e in mono)
            mid = mono_ids.get(key)
            if mid is None:
                mid = mono_ids[key] = len(monos)
                monos.append(key)
            terms[mid] = cval
        if terms:
            columns.append(terms)
    coeffs = np.zeros((len(monos), len(columns)), dtype=np.int32)
    for k, terms in enumerate(columns):
        for mid, cval in terms.items():
            coeffs[mid, k] = cval
    return CompiledSystem(p, n, tuple(monos), coeffs)


def _digit_block(idx: np.ndarray, n2: int, p: int) -> np.ndarray:
    """Digit t (little-endian, base p) of every counter value, in column t.

    At p = 2 the digits are the counter's bits, unpacked from its bytes.
    """
    if p == 2:
        octets = idx.astype("<u8").view(np.uint8).reshape(-1, 8)
        return np.unpackbits(octets, axis=1, count=n2, bitorder="little")
    out = np.empty((idx.size, n2), dtype=np.int32)
    rem = idx.astype(np.int64)
    for t in range(n2):
        out[:, t] = rem % p
        rem = rem // p
    return out


def _bit_planes(digits: np.ndarray) -> np.ndarray:
    """A 0/1 digit block as bit planes: bit i of row t's uint64 words is
    digit t of matrix i.  Bits past the last matrix are 0."""
    packed = np.packbits(np.ascontiguousarray(digits.T), axis=1,
                         bitorder="little")
    pad = -packed.shape[1] % 8
    if pad:
        packed = np.pad(packed, ((0, 0), (0, pad)))
    return packed.view(np.uint64)


def _solution_bits(bad: np.ndarray, rows: int) -> np.ndarray:
    """Mask of the matrices whose bit is clear in the plane of failures."""
    return np.unpackbits(bad.view(np.uint8), count=rows,
                         bitorder="little") == 0


def _compiled_mask(cs: CompiledSystem, digits: np.ndarray) -> np.ndarray:
    if cs.p == 2:
        return _compiled_mask_f2(cs, digits)
    return _compiled_mask_int(cs, digits)


def _compiled_mask_int(cs: CompiledSystem, digits: np.ndarray) -> np.ndarray:
    values = np.ones((digits.shape[0], len(cs.monos)), dtype=np.int32)
    for col, mono in enumerate(cs.monos):
        acc = np.ones(digits.shape[0], dtype=np.int32)
        for pos, exp in mono:
            acc = acc * digits[:, pos] ** exp
        values[:, col] = acc
    residues = (values @ cs.coeffs) % cs.p
    return (residues == 0).all(axis=1)


def _compiled_mask_f2(cs: CompiledSystem, digits: np.ndarray) -> np.ndarray:
    positions, mono_starts, terms, eq_starts = cs.f2_terms
    if terms.size == 0:
        return np.ones(digits.shape[0], dtype=bool)
    planes = _bit_planes(digits)
    monos = np.bitwise_and.reduceat(planes[positions], mono_starts, axis=0)
    eqs = np.bitwise_xor.reduceat(monos[terms], eq_starts, axis=0)
    return _solution_bits(np.bitwise_or.reduce(eqs, axis=0), digits.shape[0])


# ---------------------------------------------------------------------------
# direct evaluation path (independent of the symbolic system)

def _table_mod_p(table: AlgebraTable, p: int) -> np.ndarray:
    n = table.dim
    cm = np.zeros((n, n, n), dtype=np.int16)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                e = table.c[i][j][k]
                if not e.is_zero:
                    cm[i, j, k] = reduce_mod_p(e, p)
    return cm


def _direct_worst(n: int, p: int) -> int:
    """Largest value _direct_mask_int can hold before reducing mod p: the
    n^2 products of three entries in [T e_i, T e_j], or the weighted
    rota-baxter inner sum."""
    return max(n * n * (p - 1) ** 3, (p - 1) ** 2 + 2 * (p - 1))


def _direct_mask(cm: np.ndarray, kind: OperatorKind, digits: np.ndarray,
                 p: int, n: int) -> np.ndarray:
    if p == 2:
        return _direct_mask_f2(cm, kind, digits, n)
    return _direct_mask_int(cm, kind, digits, p, n)


def _direct_mask_int(cm: np.ndarray, kind: OperatorKind, digits: np.ndarray,
                     p: int, n: int) -> np.ndarray:
    T = digits.reshape(-1, n, n).astype(np.int16)
    btt = np.einsum("mai,mbj,abk->mijk", T, T, cm) % p
    bte = np.einsum("mai,ajk->mijk", T, cm) % p
    bet = np.einsum("mbj,ibk->mijk", T, cm) % p

    def tap(tensor):
        return np.einsum("mqk,mijk->mijq", T, tensor) % p

    axes = (1, 2, 3)
    if kind.name == "rota-baxter":
        w = reduce_mod_p(kind.weight, p)
        inner = (bte + bet + w * cm[None, :, :, :]) % p
        return (((btt - tap(inner)) % p) == 0).all(axis=axes)
    if kind.name == "nijenhuis":
        tb = np.einsum("mqk,ijk->mijq", T, cm) % p
        inner = (bte + bet - tb) % p
        return (((btt - tap(inner)) % p) == 0).all(axis=axes)
    if kind.name == "reynolds":
        inner = (bet + bte - btt) % p
        return (((btt - tap(inner)) % p) == 0).all(axis=axes)
    left = (((btt - tap(bte)) % p) == 0).all(axis=axes)
    right = (((btt - tap(bet)) % p) == 0).all(axis=axes)
    return left & right


def _direct_mask_f2(cm: np.ndarray, kind: OperatorKind, digits: np.ndarray,
                    n: int) -> np.ndarray:
    """_direct_mask_int at p = 2 over bit planes: P[a, i] is the plane of
    entry (a, i), and C[i, j, k] is all ones where the structure constant
    c_ij^k is odd.  Axis names follow the integer kernel's einsums; the
    comments give the axes before the XOR over the summed one."""
    P = _bit_planes(digits).reshape(n, n, -1)
    C = np.where(cm % 2 == 1, ~np.uint64(0), np.uint64(0))[..., None]
    xor = np.bitwise_xor.reduce
    bte = xor(P[:, :, None, None] & C[:, None], axis=0)       # a,i,j,k
    bet = xor(P[None, :, :, None] & C[:, :, None], axis=1)    # i,b,j,k
    btt = xor(P[:, :, None, None] & bet[:, None], axis=0)     # a,i,j,k

    def tap(tensor):
        return xor(P[None, None] & tensor[:, :, None], axis=3)  # i,j,q,k

    if kind.name == "rota-baxter":
        inner = bte ^ bet
        if reduce_mod_p(kind.weight, 2):
            inner ^= C
        bad = btt ^ tap(inner)
    elif kind.name == "nijenhuis":
        tb = xor(P[None, None] & C[:, :, None], axis=3)          # i,j,q,k
        bad = btt ^ tap(bte ^ bet ^ tb)
    elif kind.name == "reynolds":
        bad = btt ^ tap(bet ^ bte ^ btt)
    else:
        bad = (btt ^ tap(bte)) | (btt ^ tap(bet))
    bad = np.bitwise_or.reduce(bad.reshape(-1, bad.shape[-1]), axis=0)
    return _solution_bits(bad, digits.shape[0])


# ---------------------------------------------------------------------------
# sweeping

def _refuse_width(worst: int, dtype, path: str, p: int):
    limit = int(np.iinfo(dtype).max)
    if worst > limit:
        raise RefusedSize(
            f"the {path} kernel over F_{p} can reach {worst} before reducing "
            f"mod p, past the {np.dtype(dtype).name} limit {limit}; use a "
            f"smaller prime")


def sweep_kernel(table: AlgebraTable, kind: OperatorKind, p: int, *,
                 budget: int = DEFAULT_BUDGET, path: str = "compiled"):
    """The evaluation kernel of one sweep, built once, after every refusal.

    Every refusal of a sweep is made here, before any matrix is evaluated:
    a field that is not a supported prime, an unbound table or weight, a
    sweep past the budget, an integer kernel that could overflow at this p,
    and an unknown path.  The kernel maps a digit block to the mask of its
    solutions.  It is a partial of a module-level mask function, so it
    pickles: a process pool sends this one kernel to every shard job.
    """
    _check_prime(p)
    if not table.is_bound():
        raise ValueError(f"{table.name} still has unbound parameters "
                         f"{table.param_names()}")
    if kind.weight is not None and kind.weight.params():
        raise ValueError("the weight must be bound for finite-field work")
    n = table.dim
    total = p ** (n * n)
    if total > budget:
        raise RefusedSize(
            f"sweeping {p}^{n * n} = {total} matrices exceeds the budget "
            f"{budget}; pass a larger budget to allow it")
    if path == "compiled":
        cs = compile_system(table, kind, p)
        if p > 2:
            _refuse_width(cs.worst_intermediate(), np.int32, path, p)
        return partial(_compiled_mask, cs)
    if path == "direct":
        if p > 2:
            _refuse_width(_direct_worst(n, p), np.int16, path, p)
        return partial(_direct_mask, _table_mod_p(table, p), kind, p=p, n=n)
    raise ValueError(f"unknown evaluation path {path!r}")


def solution_indices(table: AlgebraTable, kind: OperatorKind, p: int, *,
                     budget: int = DEFAULT_BUDGET, path: str = "compiled",
                     shard: int | None = None,
                     chunk: int = 1 << 14) -> np.ndarray:
    """Counter values of all solution matrices, ascending.

    The kernel from sweep_kernel, which makes every refusal, run through
    sweep_shard; shard has the meaning it has there.
    """
    evaluate = sweep_kernel(table, kind, p, budget=budget, path=path)
    return sweep_shard(evaluate, table.dim, p, shard, chunk)


def sweep_shard(evaluate, n: int, p: int, shard: int | None = None,
                chunk: int = 1 << 14) -> np.ndarray:
    """Counter values, ascending, of the n x n matrices over F_p that the
    kernel evaluate (from sweep_kernel) accepts.

    This is the one block loop of every sweep.  With shard set, only the
    matrices whose first row encodes that value are scanned; the p^n
    shards partition the full space, so a pool can run one kernel over
    all of them and merge the parts.
    """
    total = p ** (n * n)
    if shard is None:
        blocks = (np.arange(start, min(start + chunk, total), dtype=np.int64)
                  for start in range(0, total, chunk))
    else:
        stride = p ** n
        if not 0 <= shard < stride:
            raise ValueError(f"shard must lie in [0, {stride})")
        span = total // stride
        blocks = (shard + stride * np.arange(start, min(start + chunk, span),
                                             dtype=np.int64)
                  for start in range(0, span, chunk))
    hits = [idx[evaluate(_digit_block(idx, n * n, p))] for idx in blocks]
    if not hits:
        return np.array([], dtype=np.int64)
    return np.concatenate(hits)


def lift_check(table: AlgebraTable, kind: OperatorKind, p: int, indices, *,
               samples: int = 100, seed: int = 0) -> dict:
    """Lift sampled solutions to integer matrices and recheck over Q.

    The lifted residual, reduced mod p, must vanish; this validates the
    sweep through exact arithmetic instead of array arithmetic.
    """
    pool = [int(m) for m in indices]
    rng = random.Random(seed)
    picked = pool if len(pool) <= samples else sorted(rng.sample(pool, samples))
    n = table.dim
    for m in picked:
        M = FpMatrix.from_index(m, n, p)
        T = [[RatExpr.const(M.entries[r][c]) for c in range(n)]
             for r in range(n)]
        res = operator_residual(table, kind, T)
        if any(reduce_mod_p(e, p) != 0 for _, e in res.walk()):
            return {"ok": False, "checked": len(picked),
                    "counterexample": m}
    return {"ok": True, "checked": len(picked), "counterexample": None}


# ---------------------------------------------------------------------------
# chart membership

def bind_family(fam: OperatorFamily, bindings: dict) -> OperatorFamily:
    """Substitute external values (e.g. a table parameter) into a chart."""
    if fam.chart is None:
        raise ValueError(f"{fam.label()} is malformed")
    sub = {k: v if isinstance(v, RatExpr) else RatExpr.const(v)
           for k, v in bindings.items() if k in fam.free}
    if not sub:
        return fam
    chart = [[e.substitute(sub) for e in row] for row in fam.chart]
    constraints = tuple(con.substitute(sub) for con in fam.constraints)
    free = tuple(x for x in fam.free if x not in sub)
    return OperatorFamily(fam.algebra, fam.kind, fam.index, chart, free,
                          constraints, False, fam.weight, None, fam.note)


def _eval_chart(fam: OperatorFamily, p: int, assignment: dict):
    """Counter value of the chart at an F_p assignment, or None if the
    point is outside the chart's domain (a constraint or denominator dies)."""
    sub = {name: RatExpr.const(v) for name, v in assignment.items()}
    for con in fam.constraints:
        try:
            if reduce_mod_p(con.substitute(sub), p) == 0:
                return None
        except (DenominatorVanishes, NonInvertibleDenominator):
            return None
    n = len(fam.chart)
    m = 0
    for r in range(n):
        for c in range(n):
            e = fam.chart[r][c]
            if e.is_zero:
                continue
            try:
                v = reduce_mod_p(e.substitute(sub), p)
            except (DenominatorVanishes, NonInvertibleDenominator):
                return None
            m += v * p ** (r * n + c)
    return m


def _read_off(fam: OperatorFamily, M: FpMatrix) -> dict:
    """Parameter values forced by entries where a parameter stands alone."""
    p = M.p
    n = len(M.entries)
    forced = {}
    for r in range(n):
        for c in range(n):
            e = fam.chart[r][c]
            if not e.den.is_const or len(e.num.terms) != 1:
                continue
            (mono, coef), = e.num.terms.items()
            if len(mono) != 1 or mono[0][1] != 1:
                continue
            name = mono[0][0]
            if name in forced:
                continue
            try:
                scale = reduce_mod_p(RatExpr(Poly.const(coef), e.den), p)
            except (NonInvertibleDenominator, NonRealValue):
                continue
            if scale == 0:
                continue
            forced[name] = (M.entries[r][c] * pow(scale, -1, p)) % p
    return forced


def _chart_points(fam: OperatorFamily, p: int, fixed: dict | None, *,
                  forced: dict | None = None, budget: int = 0,
                  refusal: str = "", rng: random.Random | None = None):
    """Counter values of the chart (None outside its domain) at the
    assignments that take fixed's values mod p, then forced's.

    Without rng the names left open run over all of F_p, and their p^k
    cases are refused past the budget with refusal, formatted with p, k,
    label and budget.  With rng they take fresh random values at each
    point, without end.
    """
    assigned = {k: v % p for k, v in (fixed or {}).items() if k in fam.free}
    for name, value in (forced or {}).items():
        assigned.setdefault(name, value)
    rest = [x for x in fam.free if x not in assigned]
    if rng is not None:
        combos = iter(lambda: [rng.randrange(p) for _ in rest], None)
    elif p ** len(rest) > budget:
        raise RefusedSize(refusal.format(p=p, k=len(rest), label=fam.label(),
                                         budget=budget))
    else:
        combos = iter_product(range(p), repeat=len(rest))
    for combo in combos:
        assignment = dict(assigned)
        assignment.update(zip(rest, combo))
        yield _eval_chart(fam, p, assignment)


def chart_membership(fam: OperatorFamily, M: FpMatrix, *,
                     budget: int = DEFAULT_BUDGET, fixed: dict | None = None
                     ) -> bool:
    """Whether some admissible F_p assignment of the chart evaluates to M.

    Parameters standing alone in an entry are read off first; any that
    remain are searched exhaustively (p^k cases, refused past the budget).
    Assignments violating a constraint or killing a denominator never count.
    """
    if fam.chart is None:
        raise ValueError(f"{fam.label()} is malformed")
    if len(fam.chart) != len(M.entries):
        raise ValueError("chart and matrix dimensions differ")
    return M.index() in _chart_points(
        fam, M.p, fixed, forced=_read_off(fam, M), budget=budget,
        refusal="membership fallback needs {p}^{k} cases for {label}, "
                "over the budget {budget}")


def family_solution_set(fam: OperatorFamily, p: int, *,
                        budget: int = DEFAULT_BUDGET,
                        fixed: dict | None = None) -> set:
    """All counter values the chart reaches over F_p (admissible points)."""
    if fam.chart is None:
        raise ValueError(f"{fam.label()} is malformed")
    _check_prime(p)
    points = set(_chart_points(
        fam, p, fixed, budget=budget,
        refusal="enumerating {p}^{k} assignments for {label} is over the "
                "budget {budget}"))
    points.discard(None)
    return points


def roundtrip_check(fam: OperatorFamily, p: int, *, samples: int = 100,
                    seed: int = 0, budget: int = DEFAULT_BUDGET,
                    fixed: dict | None = None) -> dict:
    """chart_membership must accept every point the chart itself produces."""
    points = _chart_points(fam, p, fixed, rng=random.Random(seed))
    if set(fam.free) <= set(fixed or ()):
        samples = 1   # nothing is left open, so there is only one point
    checked = 0
    attempts = 0
    while checked < samples and attempts < 50 * max(samples, 1):
        attempts += 1
        m = next(points)
        if m is None:
            continue
        M = FpMatrix.from_index(m, len(fam.chart), p)
        if not chart_membership(fam, M, budget=budget, fixed=fixed):
            return {"family": fam.label(), "checked": checked, "ok": False,
                    "counterexample": m}
        checked += 1
    return {"family": fam.label(), "checked": checked, "ok": True,
            "counterexample": None}


# ---------------------------------------------------------------------------
# coverage

@dataclass
class CoverageReport:
    algebra: str
    kind: str
    p: int
    total_solutions: int
    covered: int
    uncovered: list            # FpMatrix, truncated to cap
    cap: int
    families_used: list        # {"family": label, "points": count}
    families_skipped: list     # {"family": label, "reason": exc name}
    chart_points_outside: int  # family points that are not solutions (0 expected)
    note: str = COVERAGE_NOTE

    def as_dict(self) -> dict:
        return {
            "algebra": self.algebra,
            "kind": self.kind,
            "p": self.p,
            "total": self.total_solutions,
            "covered": self.covered,
            "uncovered": [{"index": M.index(), "entries": M.as_lists()}
                          for M in self.uncovered],
            "cap": self.cap,
            "families_used": self.families_used,
            "families_skipped": self.families_skipped,
            "chart_points_outside": self.chart_points_outside,
            "note": self.note,
        }


def coverage(table: AlgebraTable, kind: OperatorKind, p: int, families, *,
             solutions, budget: int = DEFAULT_BUDGET, cap: int = 32,
             fixed: dict | None = None) -> CoverageReport:
    """Compare a sweep's solutions with the points the given charts reach.

    solutions is the ascending array of solution counter values from
    solution_indices (or a merged sharded sweep) for this table, kind and
    p; coverage never sweeps.  families should be the verified
    (non-malformed) families for this algebra and kind; charts must
    already match the table's binding, or fixed must supply F_p values for
    bound table parameters appearing in the charts.  budget bounds the
    enumeration of each chart: a chart past it is skipped as RefusedSize.
    """
    sols = np.asarray(solutions, dtype=np.int64)
    solution_set = set(sols.tolist())
    used, skipped = [], []
    covered_points = set()
    outside = 0
    for fam in families:
        if fam.algebra != table.name or fam.kind != kind.name:
            raise ValueError(f"{fam.label()} does not match "
                             f"{table.name}/{kind.name}")
        if fam.malformed:
            skipped.append({"family": fam.label(), "reason": "malformed"})
            continue
        try:
            points = family_solution_set(fam, p, budget=budget, fixed=fixed)
        except (NonRealValue, NonInvertibleDenominator, RefusedSize) as err:
            skipped.append({"family": fam.label(),
                            "reason": type(err).__name__})
            continue
        used.append({"family": fam.label(), "points": len(points)})
        outside += len(points - solution_set)
        covered_points |= points & solution_set
    uncovered = [m for m in sols.tolist() if m not in covered_points]
    return CoverageReport(
        algebra=table.name,
        kind=kind.name,
        p=p,
        total_solutions=int(sols.size),
        covered=len(covered_points),
        uncovered=[FpMatrix.from_index(m, table.dim, p)
                   for m in uncovered[:cap]],
        cap=cap,
        families_used=used,
        families_skipped=skipped,
        chart_points_outside=outside,
    )
