"""Exhaustive operator-solution search over a small prime field.

For a bound structure-constant table and an operator condition, the p^(n*n)
matrices over F_p can be swept outright and the exact solution set listed.
Comparing that list against the points reachable by the verified parametric
charts measures how much of the solution set the charts explain.  Finite
field coverage is evidence, not proof: a chart that covers everything mod p
can still miss characteristic-0 solutions, and vice versa.

A matrix over F_p is its counter value throughout: the int whose base-p
digit r*n + c (little-endian) is entry (r, c).  Sweeps return arrays of
them, charts evaluate to them, membership takes one and coverage lists
them.  matrix_rows decodes one into rows, for output only.

Two independent evaluation paths are kept deliberately:

  * "compiled": the symbolic equation system is compiled to coefficient
    arrays once, and all candidate matrices are evaluated by vectorized
    polynomial arithmetic;
  * "direct": residuals are recomputed from the structure constants by
    tensor contractions, never touching the symbolic pipeline.

Agreement of the two paths on a full sweep is itself a checked property.
All arithmetic is integer arithmetic reduced mod p; no floating point is
involved anywhere.

Both paths store a block's values in one field record per prime
(_field).  At p <= 3 they are bitsliced, after Boothby and Bradshaw
(arXiv:0901.1413): a block's planes are one-hot and stacked by value,
shape (p - 1, n*n, words), so that bit i of row t in plane v - 1 is set
when entry t of matrix i is v.  Over F_2 a value is one plane, a sum is an
XOR and a product an AND; over F_3 it is two planes (ones, twos), a sum
takes six boolean operations, a product four ANDs and two ORs, and
negation swaps the planes.  Above p = 3 a value is one plane of int64
digits, reduced mod p after every operation.

The compiled path has one kernel for every prime, too.  It multiplies
each monomial out of its entries' planes with the field's product, scales
the monomials by each distinct coefficient, and sums each equation
pairwise with the field's sum.  The coefficients are the bound system's,
each reduced by exact.scalar_mod_p, the one rule that takes a constant to
F_p: a bound system's denominators are all 1.

The direct path has one kernel for every prime.  It reads only the
structure constants and the weight mod p, reduced once per sweep with the
layout of the nonzero constants (_DirectForm), and applies the field's
operations over the planes, summed over the nonzero constants only: T is
applied only along the output coordinates that some nonzero constant has.
The catalog's tables have few nonzero constants (L17 has 2 of 64 mod 3),
so each contraction takes a few plane products per constant, and applying
T n^3 per output coordinate, in place of the n^4 products of a dense
contraction.  On both paths the largest intermediate, a product of two
values below p, must fit int64.

A sweep walks aligned blocks of p^k matrices in this process: p^k <= 2^14
at p <= 3, where a digit is one bit, and p^k <= 2^14 / n^2 above, where it
is an int64 (625 matrices at p = 5 in dimension 4, whose direct kernel
then peaks at a few MB).  Within one, the counter's k most significant
digits, the last rows of T, run through a pattern that is the same in
every block, and the digits below them, the block's prefix (a shard's row
among them), are fixed.  So at every prime the planes of a block are read
off the counter: the field record encodes the pattern's digits once per
(p, k), and a fixed digit's plane is that digit's encoding at every
matrix.  No matrix is decoded digit by digit.

The prefixes run in ascending order, and the compiled path skips every
dead one: a prefix under which some equation of the system, restricted to
the prefix's digits, is a nonzero constant mod p.  No matrix in its block
is a solution, so the solutions are the same.  Each monomial splits once
per prefix length into a factor the prefix fixes and a part the block
varies (CompiledSystem.dead_check), and the prefixes are checked in
bounded batches.  Only the compiled path prunes: the check reads the
symbolic system, and the direct path must stay independent of it, so it
walks every block, and the two paths' agreement also checks that no
skipped block held a solution.  At p = 3 the 6561 prefixes of a whole
sweep fix the first two rows; L17 rota-baxter leaves 59 of them live, L9
reynolds 82 and L1 nijenhuis 225.

Charts arrive with the table's parameter values already substituted
exactly by bind_family, so every name still free in a chart is an operator
parameter that runs over F_p or is read off a matrix.

Charts are evaluated with plain Python ints.  On first use at a prime p, a
family's chart is compiled once and kept on the family, one form per prime.
Most entries of the shipped charts are c*x: one free name to the first
power times a constant, with no denominator.  When c is real and p does not
divide its denominator, such an entry is always admissible and real, so it
compiles to the triple (p^(r*n+c), c mod p, slot), c reduced by
scalar_mod_p, and adds its digit c * x mod p at a point.  Every other
entry, and every constraint, keeps the exact form: its numerator and
denominator become Gaussian-integer terms over the free names with a
positive common-denominator scale, and at a point the value a/b (b > 0)
is decided over Q exactly as RatExpr.substitute and reduce_mod_p decide
it: a vanishing denominator or a denominator that p still divides in
lowest terms puts the point outside the chart, and a nonzero imaginary
part raises NonRealValue.  The exact part is checked first, constraints
then entries in row-major order, so the first inadmissible value still
decides a point; the triples, which cannot fail, are summed after it.
The entries a parameter stands alone in with a unit coefficient are noted
for reading that parameter off a matrix.  Ints are unbounded, so no width
guard is needed at any prime.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import product as iter_product
from math import gcd, lcm, log
from typing import NamedTuple

import numpy as np

from .algebra import AlgebraTable
from .exact import (
    ExactError,
    NonInvertibleDenominator,
    NonRealValue,
    Poly,
    RatExpr,
    Scalar,
    reduce_mod_p,
    scalar_mod_p,
)
from .operators import OperatorFamily, OperatorKind, build_system

#: sweeps and membership fallbacks refuse to run past this many cases unless
#: the caller raises the budget explicitly (2^16 admits the full p=2 sweep
#: for 4x4 matrices; p=3 needs 3^16 ~ 43M and must be asked for)
DEFAULT_BUDGET = 1 << 16
#: a sweep block holds at most this many matrices, and its n*n digit
#: planes fill at most this many 64-bit words (sweep_shard)
_BLOCK = 1 << 14

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


def matrix_rows(m: int, n: int, p: int) -> list:
    """The rows of the n x n matrix over F_p whose counter value is m:
    digit r*n + c (little-endian, base p) is entry (r, c)."""
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            m, x = divmod(m, p)
            row.append(x)
        rows.append(row)
    return rows


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
    def plan(self) -> tuple:
        """Gather arrays and a summation plan that evaluate the system over
        the planes of a block (_digit_block), at any p.

        Returns (factors, coefs, levels).  Row t of factors lists the
        entries of monomial t, x^e as e columns, padded with the index n*n
        of an appended plane of the constant 1; no monomial is constant,
        because every operator identity vanishes at T = 0.  coefs holds
        the distinct coefficients, ascending.  Each of the levels (left,
        right, single) adds the rows left to the rows right pairwise and
        carries the rows single over, until one row per equation is left.
        The first level reads the terms off the monomials' values scaled
        by each of coefs in turn and stacked: row t + M*j is monomial t
        times coefs[j], for M monomials.  The rows are not in equation
        order, and need not be, since the mask only asks whether any of
        them is nonzero.
        """
        n2, count = self.n * self.n, len(self.monos)
        degree = max((sum(e for _, e in mono) for mono in self.monos),
                     default=0)
        factors = np.full((count, degree), n2, dtype=np.intp)
        for t, mono in enumerate(self.monos):
            flat = [pos for pos, e in mono for _ in range(e)]
            factors[t, :len(flat)] = flat
        # one row per term, each equation's rows together
        eqs, mids = np.nonzero(self.coeffs.T)
        values = self.coeffs[mids, eqs]
        coefs = np.unique(values)
        rows = mids + count * np.searchsorted(coefs, values)
        levels = []
        while not levels or (np.diff(eqs) == 0).any():
            first = np.diff(eqs, prepend=-1) != 0     # opens its equation
            last = np.roll(first, -1)                 # closes it
            idx = np.arange(eqs.size)
            even = (idx - np.maximum.accumulate(idx * first)) % 2 == 0
            left, single = even & ~last, even & last
            levels.append((rows[left], rows[~even], rows[single]))
            # the next level's rows: the sums of the pairs, then the rows
            # carried over, each equation's together again
            eqs = np.concatenate([eqs[left], eqs[single]])
            rows = np.argsort(eqs, kind="stable")
            eqs = eqs[rows]
        return factors, tuple(int(c) for c in coefs), tuple(levels)

    @cached_property
    def _dead_checks(self) -> dict:
        return {}           # dead_check's arrays, by s

    def dead_check(self, s: int) -> tuple:
        """Arrays that find the prefixes of digits 0 .. s - 1 (the entries
        sweep_shard fixes in a block) under which some equation is a
        nonzero constant, built once per s.

        Each monomial splits into a fixed factor, its entries below s, and
        a varying part, its entries from s up.  Under a prefix an
        equation's terms merge by varying part, each part's coefficient
        the sum of its terms' coefficients times their fixed factors; the
        equation is a nonzero constant when the coefficient of the empty
        part is nonzero and every other is zero.  Only equations with a
        term of empty varying part can be, and only their terms are kept.

        Returns (fixed, mono, coef, slots, eqs).  Row u of fixed lists the
        entries of the fixed factor of kept monomial u, padded with the
        index s of a column of ones.  The kept terms are mono (the
        monomial) and coef, grouped by (equation, varying part), each
        equation's group of empty part first; slots holds where each group
        starts, and eqs where each equation's groups start in slots.
        """
        check = self._dead_checks.get(s)
        if check is not None:
            return check
        factors, n2 = self.plan[0], self.n * self.n
        # a varying part's key: its entries t from s up, as t - s + 1, are
        # the key's digits in base n2 + 1, ascending; 0 when it is empty
        varying = np.where((factors >= s) & (factors < n2), factors - s + 1, 0)
        varying.sort(axis=1)
        part = varying @ (n2 + 1) ** np.arange(factors.shape[1])
        coeffs = self.coeffs[:, self.coeffs[part == 0].any(axis=0)]
        mid, eq = np.nonzero(coeffs)
        # the kept terms by equation, then by varying part, the empty first
        key = eq * (int(part.max(initial=0)) + 1) + part[mid]
        order = np.argsort(key, kind="stable")
        key, mid, eq = key[order], mid[order], eq[order]
        opens = np.flatnonzero(np.diff(key, prepend=-1))
        check = (np.where(factors < s, factors, s), mid, coeffs[mid, eq],
                 opens, np.flatnonzero(np.diff(eq[opens], prepend=-1)))
        self._dead_checks[s] = check
        return check


def compile_system(table: AlgebraTable, kind: OperatorKind,
                   p: int) -> CompiledSystem:
    _check_prime(p)
    if not table.is_bound():
        raise ValueError(f"{table.name} still has unbound parameters "
                         f"{table.param_names()}")
    if kind.weight is not None and kind.weight.params():
        raise ValueError("the weight must be bound for finite-field work")
    sys = build_system(table, kind)
    flat = {name: t for t, name in enumerate(sys.unknowns)}  # row-major
    mono_ids = {}
    monos = []
    columns = []
    # in a bound system every denominator is 1, so an equation's
    # coefficients are the residual's own
    for eq in sys.equations:
        terms = {}
        for mono, coef in eq.terms.items():
            cval = scalar_mod_p(coef, p)
            if cval == 0:
                continue
            key = tuple((flat[nm], e) for nm, e in mono)
            mid = mono_ids.get(key)
            if mid is None:
                mid = mono_ids[key] = len(monos)
                monos.append(key)
            terms[mid] = cval
        if terms:
            columns.append(terms)
    coeffs = np.zeros((len(monos), len(columns)), dtype=np.int64)
    for k, terms in enumerate(columns):
        for mid, cval in terms.items():
            coeffs[mid, k] = cval
    return CompiledSystem(p, table.dim, tuple(monos), coeffs)


def _digit_block(idx: np.ndarray, n2: int, p: int,
                 stride: int) -> np.ndarray:
    """The planes of one aligned block of sweep_shard (see there), as the
    kernels take them: _field(p).encode of the block's digits, where digit
    t (little-endian, base p) of a counter value is entry t of its matrix.

    idx is first + stride * (0 .. size - 1), where size = p^k and stride =
    p^s, and first has k zero digits from digit s up.  Those k digits run
    through one fixed pattern in every such block; every other digit is
    the same for the whole block, so its plane is that digit's encoding at
    every matrix.  The planes are read off the counter at every prime.
    """
    k, s = round(log(idx.size, p)), round(log(stride, p))
    pattern, valid = _counter_pattern(p, k)
    digits, rest = [], int(idx[0])
    for _ in range(n2):
        rest, digit = divmod(rest, p)
        digits.append(digit)
    planes = valid * _field(p).encode(np.array([digits], np.int64))
    planes[:, s:s + k] = pattern
    return planes


@lru_cache(maxsize=None)
def _counter_pattern(p: int, k: int) -> tuple:
    """The planes (_field(p).encode) of the k low digits of the counter
    values 0 .. p^k - 1, and the plane that holds 1 at every one of those
    p^k matrices.  Both are read-only."""
    size, encode = p ** k, _field(p).encode
    # the row-major indices of a p x ... x p grid are the digits, most
    # significant first, in the smallest dtype that holds p - 1
    dtype = np.min_scalar_type(p - 1)
    digits = np.indices((p,) * k, dtype=dtype).reshape(k, size)[::-1].T
    pattern, valid = encode(digits), encode(np.ones((size, 1), dtype))[0]
    pattern.flags.writeable = valid.flags.writeable = False
    return pattern, valid


class _Bits(NamedTuple):
    """F_p, p <= 3: a value is the tuple of its p - 1 one-hot planes,
    (bits,) over F_2 and (ones, twos) over F_3; bit i is matrix i."""

    p: int
    bits = 1                        # a digit's bits in a plane

    def encode(self, digits: np.ndarray) -> np.ndarray:
        """A (matrices, n*n) digit block as one-hot planes stacked by
        value, shape (p - 1, n*n, words): bit i of row t's words in plane
        v - 1 is set when digit t of matrix i is v.  Bits past the last
        matrix are 0, the value 0."""
        rows, n2 = digits.shape
        hot = np.zeros((self.p - 1, n2, -(-rows // 64) * 64), bool)
        np.equal(digits.T, np.arange(1, self.p)[:, None, None],
                 out=hot[..., :rows])
        return np.packbits(hot, axis=-1, bitorder="little").view(np.uint64)

    def add(self, x: tuple, y: tuple) -> tuple:
        """Over F_3 after Kawahara, Aoki and Takagi."""
        if self.p == 2:
            return (x[0] ^ y[0],)
        t = x[0] | y[1]             # in place: one temporary at a time
        t ^= x[1] | y[0]
        ones, twos = x[1] | y[1], x[0] | y[0]
        ones ^= t
        twos ^= t
        return ones, twos

    def mul(self, x: tuple, y: tuple) -> tuple:
        """Over F_3: 1 where the values agree, 2 where they differ."""
        if self.p == 2:
            return (x[0] & y[0],)
        ones, twos = x[0] & y[0], x[0] & y[1]
        ones |= x[1] & y[1]
        twos |= x[1] & y[0]
        return ones, twos

    def scale(self, x: tuple, c: int) -> tuple:
        """c x for c in 1 .. p - 1: 2x over F_3 swaps the planes."""
        return x if c == 1 else x[::-1]

    def const(self, c: int, shape: tuple = ()) -> tuple:
        """The value c at every matrix, in an array of that shape."""
        planes = np.zeros((self.p - 1,) + shape, np.uint64)
        if c:
            planes[c - 1] = ~np.uint64(0)
        return tuple(planes)

    def mask(self, bad: np.ndarray) -> np.ndarray:
        """One entry per bit; sweep_shard drops the padding bits."""
        return np.unpackbits(bad.view(np.uint8), bitorder="little") == 0


class _Ints(NamedTuple):
    """F_p, p >= 5: a value is one plane of int64 digits, (digits,), reduced
    mod p after each operation; entry i is matrix i."""

    p: int
    bits = 64                       # a digit's bits in a plane

    def encode(self, digits: np.ndarray) -> np.ndarray:
        """A (matrices, n*n) digit block as one plane, shape (1, n*n,
        matrices)."""
        return np.ascontiguousarray(digits.T, dtype=np.int64)[None]

    def add(self, x: tuple, y: tuple) -> tuple:
        return ((x[0] + y[0]) % self.p,)

    def mul(self, x: tuple, y: tuple) -> tuple:
        return (x[0] * y[0] % self.p,)

    def scale(self, x: tuple, c: int) -> tuple:
        return x if c == 1 else (x[0] * c % self.p,)

    def const(self, c: int, shape: tuple = ()) -> tuple:
        return (np.full(shape, c, np.int64),)

    def mask(self, bad: np.ndarray) -> np.ndarray:
        return bad == 0


@lru_cache(maxsize=None)
def _field(p: int):
    """How the kernels store and combine values over F_p: the planes of a
    digit block, the sum, product, scaling by c in 1 .. p - 1 (negation is
    p - 1), a constant, the mask of the matrices where a plane of failures
    is zero, and the bits a digit takes in a plane, which bound a sweep's
    blocks.  One record per prime."""
    return _Bits(p) if p <= 3 else _Ints(p)


def _compiled_mask(cs: CompiledSystem, block: np.ndarray) -> np.ndarray:
    """The mask of a block's solutions: the system over the block's planes
    (_digit_block) by the plan CompiledSystem.plan, as values of the field
    record _field(cs.p)."""
    factors, coefs, levels = cs.plan
    field = _field(cs.p)
    if not cs.monos:
        return field.mask(np.zeros_like(block[0, 0]))
    one = field.const(1, (1, block.shape[-1]))
    planes = tuple(np.concatenate(v) for v in zip(block, one))

    def column(d):
        return tuple(a[factors[:, d]] for a in planes)
    x = column(0)
    for d in range(1, factors.shape[1]):
        x = field.mul(x, column(d))
    x = tuple(np.concatenate(v)
              for v in zip(*(field.scale(x, c) for c in coefs)))
    for left, right, single in levels:
        # each level's inputs go as soon as they are read, so that no more
        # than one level's rows are held with their sums
        singles = tuple(a[single] for a in x)
        lefts, rights = tuple(a[left] for a in x), tuple(a[right] for a in x)
        del x
        pairs = field.add(lefts, rights)
        del lefts, rights
        x = tuple(np.concatenate(v) for v in zip(pairs, singles))
    return field.mask(np.bitwise_or.reduce(np.concatenate(x), axis=0))


# ---------------------------------------------------------------------------
# direct evaluation path (independent of the symbolic system)

class _DirectForm(NamedTuple):
    """What the direct kernel reads of one sweep, built once by
    _direct_form: the field record (_field), n, the weight mod p (0 without
    one), the nonzero constants as (a, b, k, c, s) for c_ab^k = c with s
    the position of k in out, the ascending output coordinates that some
    nonzero constant has, and C[a, b, s] = c_ab^out[s] as a field value."""

    field: _Bits | _Ints
    n: int
    w: int
    consts: tuple
    out: list
    C: tuple


def _direct_form(table: AlgebraTable, w: int, p: int) -> _DirectForm:
    """The direct kernel's form of a bound table and a weight mod p."""
    n, field = table.dim, _field(p)
    abkc = []
    for a, b, k in iter_product(range(n), repeat=3):
        e = table.c[a][b][k]
        c = 0 if e.is_zero else reduce_mod_p(e, p)
        if c:
            abkc.append((a, b, k, c))
    out = sorted({k for _, _, k, _ in abkc})
    consts = tuple((a, b, k, c, out.index(k)) for a, b, k, c in abkc)
    C = field.const(0, (n, n, len(out), 1))
    for a, b, _, c, s in consts:
        for plane, v in zip(C, field.const(c)):
            plane[a, b, s] = v
    return _DirectForm(field, n, w, consts, out, C)


def _direct_mask(form: _DirectForm, kind: OperatorKind,
                 block: np.ndarray) -> np.ndarray:
    """The mask of a block's solutions, from the structure constants and
    the weight mod p alone, as values of form.field over the block's planes
    (_digit_block), summed over the nonzero constants only.

    P[a, i] is entry (a, i).  Column s of bte, bet and C is coordinate
    k = out[s] of [T e_i, e_j], [e_i, T e_j] and [e_i, e_j], for the k that
    some nonzero constant c_ab^k has; their other coordinates are zero, so
    tap, which applies T to them, sums over the out columns only.  lhs is
    [T e_i, T e_j] at every coordinate q.  Nijenhuis's T [e_i, e_j] term
    has every coordinate, and enters after tap as T^2 applied to C.
    Values are reduced, so they differ where the XOR of their planes does
    not vanish.
    """
    field, n, out = form.field, form.n, form.out
    add, mul, scale = field.add, field.mul, field.scale
    width = block.shape[-1]
    if not out:                     # a zero bracket: both sides vanish
        return field.mask(np.zeros_like(block[0, 0]))

    def part(x, index):
        return tuple(a[index] for a in x)

    def put(x, key, y):             # x[key] += y
        x[key] = add(x[key], y) if key in x else y

    def dense(x, shape, index):     # x[key] at index(*key), zero elsewhere
        arrays = field.const(0, shape + (width,))
        for key, v in x.items():
            for a, u in zip(arrays, v):
                a[index(*key)] = u
        return arrays

    def total(x, axis):             # the sum along an axis
        acc = part(x, np.s_[(slice(None),) * axis + (0,)])
        for s in range(1, x[0].shape[axis]):
            acc = add(acc, part(x, np.s_[(slice(None),) * axis + (s,)]))
        return acc

    P = tuple(block.reshape(-1, n, n, width))
    bte, bet, btt = {}, {}, {}
    for a, b, k, c, s in form.consts:
        Ta, Tb = scale(part(P, a), c), scale(part(P, b), c)
        put(bte, (b, s), Ta)                                        # i
        put(bet, (a, s), Tb)                                        # j
        put(btt, (k,), mul(part(Ta, np.s_[:, None]),
                           part(P, np.s_[b, None])))                # i,j
    shape = (n, n, len(out))
    bte = dense(bte, shape, lambda b, s: np.s_[:, b, s])
    bet = dense(bet, shape, lambda a, s: np.s_[a, :, s])
    lhs = dense(btt, (n, n, n), lambda k: np.s_[:, :, k])
    T_out = part(P, np.s_[:, out])                                  # q,s

    # one out column (tap) and one plane (differs) at a time, so that a
    # block's temporaries fit in the heap the block before freed
    def tap(x, M=T_out):                                            # i,j,q
        def column(s):
            return mul(part(x, np.s_[:, :, None, s]),
                       part(M, np.s_[None, None, :, s]))
        acc = column(0)
        for s in range(1, len(out)):
            acc = add(acc, column(s))
        return acc

    def differs(x):
        bad = 0
        for a, v in zip(lhs, x):
            bad = bad | np.bitwise_or.reduce((a ^ v).reshape(-1, width),
                                             axis=0)
        return bad

    minus = field.p - 1
    if kind.name == "rota-baxter":
        inner = add(bte, bet)
        if form.w:
            inner = add(inner, scale(form.C, form.w))
        bad = differs(tap(inner))
    elif kind.name == "nijenhuis":
        T2 = total(mul(part(P, np.s_[:, :, None]), part(T_out, np.s_[None])),
                   1)                                               # q,s
        bad = differs(add(tap(add(bte, bet)), scale(tap(form.C, T2), minus)))
    elif kind.name == "reynolds":
        btt = part(lhs, np.s_[:, :, out])
        bad = differs(tap(add(add(bet, bte), scale(btt, minus))))
    else:
        bad = differs(tap(bte)) | differs(tap(bet))
    return field.mask(bad)


# ---------------------------------------------------------------------------
# sweeping

def sweep_kernel(table: AlgebraTable, kind: OperatorKind, p: int, *,
                 budget: int = DEFAULT_BUDGET, path: str = "compiled"):
    """The evaluation kernel of one sweep, built once, after every refusal.

    Every refusal of a sweep is made here, before any matrix is evaluated:
    a field that is not a supported prime, an unbound table, a weight that
    is unbound or has no value mod p, a sweep past the budget, an unknown
    path, and a prime whose integers could overflow.  Both kernels keep
    their values below p, reduced after every operation, and the largest
    value either holds before reducing is a product of two of them,
    (p - 1)^2, which must fit int64; at p <= 3 a value is bit planes and
    the rule holds trivially.  sweep_shard holds counter values in int64,
    so the largest, p^(n*n) - 1, must fit too: in dimension 4 that admits
    p = 13 and refuses p >= 17, and only in dimension 1 does the first
    rule decide.  The kernel maps a block's planes
    (_digit_block) to the mask of its solutions.  It is a partial of a
    module-level mask function, so it pickles: a process pool sends this
    one kernel to every shard job.
    """
    _check_prime(p)
    if not table.is_bound():
        raise ValueError(f"{table.name} still has unbound parameters "
                         f"{table.param_names()}")
    w = 0
    if kind.weight is not None:
        if kind.weight.params():
            raise ValueError("the weight must be bound for finite-field work")
        w = reduce_mod_p(kind.weight, p)
    n = table.dim
    total = p ** (n * n)
    if total > budget:
        raise RefusedSize(
            f"sweeping {p}^{n * n} = {total} matrices exceeds the budget "
            f"{budget}; pass a larger budget to allow it")
    if path not in ("compiled", "direct"):
        raise ValueError(f"unknown evaluation path {path!r}")
    worst, limit = (p - 1) ** 2, int(np.iinfo(np.int64).max)
    if worst > limit:
        raise RefusedSize(
            f"the {path} kernel over F_{p} can reach {worst} before reducing "
            f"mod p, past the int64 limit {limit}; use a smaller prime")
    if total - 1 > limit:
        raise RefusedSize(
            f"the counter values of {p}^{n * n} matrices reach {total - 1}, "
            f"past the int64 limit {limit}; use a smaller prime")
    if path == "compiled":
        return partial(_compiled_mask, compile_system(table, kind, p))
    return partial(_direct_mask, _direct_form(table, w, p), kind)


def solution_indices(table: AlgebraTable, kind: OperatorKind, p: int, *,
                     budget: int = DEFAULT_BUDGET, path: str = "compiled",
                     shard: int | None = None) -> np.ndarray:
    """Counter values of all solution matrices, ascending.

    The kernel from sweep_kernel, which makes every refusal, run through
    sweep_shard in this process; shard has the meaning it has there.
    """
    evaluate = sweep_kernel(table, kind, p, budget=budget, path=path)
    return sweep_shard(evaluate, table.dim, p, shard)


def sweep_shard(evaluate, n: int, p: int,
                shard: int | None = None) -> np.ndarray:
    """Counter values, ascending, of the n x n matrices over F_p that the
    kernel evaluate (from sweep_kernel) accepts.

    This is the one block loop of every sweep.  With shard set, only the
    matrices whose first row encodes that value are scanned; the p^n
    shards partition the full space, so a pool can run one kernel over
    all of them and merge the parts.

    The matrices are walked in aligned blocks of p^k, the largest power of
    p not above _BLOCK, not above the p^(n*n - n) matrices of a shard (or
    the p^(n*n) of the whole sweep), and whose n*n digit planes fill at
    most _BLOCK 64-bit words.  A digit takes _field(p).bits in a plane: one
    bit at p <= 3, so there the first bound decides up to dimension 8, and
    an int64 above, so a block holds at most 2^14 / n^2 matrices.  The
    direct kernel's intermediates hold several hundred int64 per matrix in
    dimension 4; a 5^6 block of L1 nijenhuis peaked at 86 MB, a 5^4 one
    at 2.8 MB.

    A block varies the k most significant digits, the last rows of T, and
    fixes the s = n*n - k digits below them, its prefix: a shard's row and
    the digits above it, or all s digits of a whole sweep.  So _digit_block
    reads the block's planes off the counter at every prime, and the
    kernel takes those.  The prefixes run in ascending order
    (_live_prefixes), and for the compiled kernel only, a dead prefix, one
    under which some equation is a nonzero constant mod p, is skipped.
    Any other kernel, the direct one included, is given every block, so a
    direct sweep is the oracle that no skipped block held a solution.  A
    block's counter values are interleaved with the other blocks', so the
    hits are sorted once at the end.  No array of all p^s prefixes is
    built: they are made and checked in bounded batches as the walk goes.
    """
    n2 = n * n
    first, step = 0, 1
    if shard is not None:
        first, step = shard, p ** n
        if not 0 <= shard < step:
            raise ValueError(f"shard must lie in [0, {step})")
    span = p ** n2 // step
    size, k = 1, 0
    words = _BLOCK * 64 // (n2 * _field(p).bits)
    while size * p <= min(_BLOCK, span, words):
        size, k = size * p, k + 1
    stride = p ** (n2 - k)
    # one array holds each block's counter values in turn, moved in place
    idx, at = stride * np.arange(size, dtype=np.int64), 0
    hits = [np.empty(0, np.int64)]
    for prefix in _live_prefixes(evaluate, p, n2 - k, first, step,
                                 span // size):
        idx += prefix - at
        at = prefix
        mask = evaluate(_digit_block(idx, n2, p, stride))
        hits.append(idx[mask[:size]])
    return np.sort(np.concatenate(hits))


def _live_prefixes(evaluate, p: int, s: int, first: int, step: int,
                   count: int):
    """The prefixes of sweep_shard's blocks, ascending: first + step * j
    for j below count, the counter values of digits 0 .. s - 1.

    A kernel other than the compiled one gets every prefix.  The compiled
    kernel's are checked in batches of at most _BLOCK terms' values by its
    system's dead_check(s), and a prefix under which some equation is a
    nonzero constant is skipped: no matrix of its block is a solution.
    Each product is reduced mod p before it is summed, so no value passes
    (p - 1)^2, which sweep_kernel bounds.
    """
    if not (isinstance(evaluate, partial) and evaluate.func is _compiled_mask):
        yield from range(first, first + step * count, step)
        return
    fixed, mono, coef, slots, eqs = evaluate.args[0].dead_check(s)
    if not eqs.size:
        yield from range(first, first + step * count, step)
        return
    powers = p ** np.arange(s, dtype=np.int64)
    batch = max(1, _BLOCK // max(coef.size, len(fixed)))
    for start in range(0, count, batch):
        prefixes = first + step * np.arange(start, min(start + batch, count),
                                            dtype=np.int64)
        digits = np.ones((prefixes.size, s + 1), np.int64)
        digits[:, :s] = prefixes[:, None] // powers % p
        value = digits[:, fixed[:, 0]]        # each kept monomial's factor
        for d in range(1, fixed.shape[1]):
            value = value * digits[:, fixed[:, d]] % p
        nonzero = np.add.reduceat(value[:, mono] * coef % p, slots,
                                  axis=1) % p != 0
        dead = nonzero[:, eqs] & (np.add.reduceat(nonzero, eqs, axis=1) == 1)
        yield from prefixes[~dead.any(axis=1)].tolist()


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


@dataclass(frozen=True)
class _ChartForm:
    """A chart compiled for evaluation over F_p with plain ints.

    linear holds (p^(r*n+c), c mod p, slot) for each nonzero entry c*x in
    row-major order: x = fam.free[slot] to the first power, c real with a
    denominator prime to p, and no denominator.  Every other nonzero entry
    is in exact, as (p^(r*n+c), expression) in row-major order, and every
    constraint in constraints, as an expression.  An expression is
    (num, num_scale, den, den_scale): num and den are tuples of
    Gaussian-integer terms (re, im, ((slot, exp), ...)) over the slots of
    fam.free, and the expression is (num / num_scale) / (den / den_scale)
    with positive scales; den is None when the denominator is 1.  read_off
    holds (p^(r*n+c), slot, inverse of c mod p) for the first entry of
    linear in which each parameter stands with a coefficient that is a
    unit mod p, so that the parameter is read off a counter value m as
    m // p^(r*n+c) % p times the inverse.
    """

    p: int
    constraints: tuple
    exact: tuple
    linear: tuple
    read_off: tuple


def _int_terms(poly: Poly, slots: dict, label: str) -> tuple:
    """(terms, scale) with poly = sum of the terms / scale, scale > 0."""
    scale = 1
    for c in poly.terms.values():
        scale = lcm(scale, c.re.denominator, c.im.denominator)
    terms = []
    for mono, c in poly.terms.items():
        stray = [name for name, _ in mono if name not in slots]
        if stray:
            raise ValueError(f"{label}: parameters {stray} are not free")
        terms.append((int(c.re * scale), int(c.im * scale),
                      tuple((slots[name], exp) for name, exp in mono)))
    return tuple(terms), scale


def _int_expr(e: RatExpr, slots: dict, label: str) -> tuple:
    num, num_scale = _int_terms(e.num, slots, label)
    if e.den.is_const:   # a constant denominator is always 1 in a RatExpr
        return num, num_scale, None, 1
    return (num, num_scale) + _int_terms(e.den, slots, label)


def _compile_chart(fam: OperatorFamily, p: int) -> _ChartForm:
    label = fam.label()
    slots = {name: s for s, name in enumerate(fam.free)}
    n = len(fam.chart)
    exact, linear, read_off, seen = [], [], [], set()
    for r in range(n):
        for c in range(n):
            e = fam.chart[r][c]
            if e.is_zero:
                continue
            weight = p ** (r * n + c)
            lone = None
            if e.den.is_const and len(e.num.terms) == 1:
                (mono, coef), = e.num.terms.items()
                if (len(mono) == 1 and mono[0][1] == 1
                        and mono[0][0] in slots and not coef.im
                        and coef.re.denominator % p):
                    lone = mono[0][0]
            if lone is None:
                exact.append((weight, _int_expr(e, slots, label)))
                continue
            scale = scalar_mod_p(coef, p)
            linear.append((weight, scale, slots[lone]))
            if scale and lone not in seen:
                seen.add(lone)
                read_off.append((weight, slots[lone], pow(scale, -1, p)))
    constraints = tuple(_int_expr(con, slots, label)
                        for con in fam.constraints)
    return _ChartForm(p, constraints, tuple(exact), tuple(linear),
                      tuple(read_off))


def _chart_form(fam: OperatorFamily, p: int) -> _ChartForm:
    """The family's chart compiled for F_p, built once per prime.  A
    malformed family or an unsupported p raises ValueError, checked before
    the lookup, so that p = 2.0 never finds the form kept for p = 2."""
    if fam.chart is None:
        raise ValueError(f"{fam.label()} is malformed")
    _check_prime(p)
    form = fam._chart_forms.get(p)
    if form is None:
        form = fam._chart_forms[p] = _compile_chart(fam, p)
    return form


def _int_value(terms: tuple, values) -> tuple:
    re = im = 0
    for a, b, mono in terms:
        v = 1
        for slot, exp in mono:
            v *= values[slot] ** exp
        re += a * v
        im += b * v
    return re, im


def _expr_mod_p(expr: tuple, values, p: int):
    """An expression's value in F_p at integer slot values, or None where it
    has no value there: its denominator vanishes, or p divides the
    denominator of its value in lowest terms.  A value off the real line
    raises NonRealValue; realness is decided over Q."""
    num, num_scale, den, den_scale = expr
    nre, nim = _int_value(num, values)
    if den is None:
        if nim:
            raise _non_real(nre, nim, num_scale, p)
        a, b = nre, num_scale
    else:
        dre, dim = _int_value(den, values)
        if not dre and not dim:
            return None
        im = (nim * dre - nre * dim) * den_scale
        b = (dre * dre + dim * dim) * num_scale
        a = (nre * dre + nim * dim) * den_scale
        if im:
            raise _non_real(a, im, b, p)
    if b % p == 0:
        g = gcd(a, b)
        a, b = a // g, b // g
        if b % p == 0:
            return None
    return a * pow(b, -1, p) % p


def _non_real(re: int, im: int, den: int, p: int) -> NonRealValue:
    v = Scalar(Fraction(re, den), Fraction(im, den))
    return NonRealValue(f"cannot reduce {v} mod {p}: nonzero imaginary part")


def _eval_chart(form: _ChartForm, values):
    """Counter value of the chart at F_p slot values, or None if the point
    is outside the chart's domain (a constraint or denominator dies).

    The exact part decides the point: the constraints, then the exact
    entries in row-major order, and the first value that has none, or a
    constraint's that is 0, drops it.  The linear entries cannot drop a
    point or raise, so they are summed last as weight * (c * x mod p).
    """
    p = form.p
    for con in form.constraints:
        if not _expr_mod_p(con, values, p):
            return None
    m = 0
    for weight, expr in form.exact:
        v = _expr_mod_p(expr, values, p)
        if v is None:
            return None
        m += v * weight
    for weight, c, slot in form.linear:
        m += weight * (c * values[slot] % p)
    return m


def _chart_points(fam: OperatorFamily, form: _ChartForm, *,
                  forced: dict | None = None, budget: int = 0,
                  refusal: str = "", rng: random.Random | None = None):
    """Counter values of the chart (None outside its domain) at the
    assignments that take forced's values (keyed by slot); form is the
    chart compiled for its prime (_chart_form).

    Without rng the names left open run over all of F_p, and their p^k
    cases are refused past the budget with refusal, formatted with p, k,
    label and budget.  With rng they take fresh random values at each
    point, without end: each open name in slot order is drawn by the
    rejection loop of rng.randrange(p), getrandbits of p's bit length
    until a value below p comes, so the values and the stream are
    randrange's.
    """
    p = form.p
    values = [None] * len(fam.free)
    for slot, value in (forced or {}).items():
        values[slot] = value
    rest = [s for s, v in enumerate(values) if v is None]
    if rng is not None:
        bits, width = rng.getrandbits, p.bit_length()
        while True:
            for slot in rest:
                value = bits(width)
                while value >= p:
                    value = bits(width)
                values[slot] = value
            yield _eval_chart(form, values)
    if p ** len(rest) > budget:
        raise RefusedSize(refusal.format(p=p, k=len(rest), label=fam.label(),
                                         budget=budget))
    for combo in iter_product(range(p), repeat=len(rest)):
        for slot, value in zip(rest, combo):
            values[slot] = value
        yield _eval_chart(form, values)


def chart_membership(fam: OperatorFamily, m: int, p: int, *,
                     budget: int = DEFAULT_BUDGET) -> bool:
    """Whether some admissible F_p assignment of the chart evaluates to the
    matrix with counter value m.

    Parameters standing alone in an entry are read off m first; any that
    remain are searched exhaustively (p^k cases, refused past the budget).
    Assignments violating a constraint or killing a denominator never count.
    p must be a supported prime and m an int in [0, p^(n*n)) for the
    chart's n; anything else raises ValueError.
    """
    form = _chart_form(fam, p)
    _check_counter(fam, m, p, p ** (len(fam.chart) ** 2))
    return _chart_member(fam, form, m, budget)


def _check_counter(fam: OperatorFamily, m, p: int, bound: int):
    """ValueError unless m is an int in [0, bound), bound = p^(n*n)."""
    if not isinstance(m, int) or not 0 <= m < bound:
        n = len(fam.chart)
        raise ValueError(f"{m!r} is not the counter value of a matrix over "
                         f"F_{p} of the chart's size {n} x {n}")


def _chart_member(fam: OperatorFamily, form: _ChartForm, m: int,
                  budget: int) -> bool:
    """chart_membership of a checked counter value m over form's prime:
    the read-off, then the search, or the one point the read-off fixes
    when it fixes every name (a budget below 1 is refused either way)."""
    p = form.p
    forced = {slot: m // weight % p * inv % p
              for weight, slot, inv in form.read_off}
    if len(forced) == len(fam.free) and budget >= 1:
        # the read-off fixes every name: one point, no search
        return _eval_chart(form, [forced[s] for s in range(len(forced))]) == m
    return m in _chart_points(
        fam, form, forced=forced, budget=budget,
        refusal="membership fallback needs {p}^{k} cases for {label}, "
                "over the budget {budget}")


def family_solution_set(fam: OperatorFamily, p: int, *,
                        budget: int = DEFAULT_BUDGET) -> set:
    """All counter values the chart reaches over F_p (admissible points)."""
    points = set(_chart_points(
        fam, _chart_form(fam, p), budget=budget,
        refusal="enumerating {p}^{k} assignments for {label} is over the "
                "budget {budget}"))
    points.discard(None)
    return points


def roundtrip_check(fam: OperatorFamily, p: int, *, samples: int = 100,
                    seed: int = 0, budget: int = DEFAULT_BUDGET) -> dict:
    """chart_membership must accept every point the chart itself produces.

    The prime, the chart form and the counter bound are checked and built
    once; each point then goes through membership's read-off and search
    (_chart_member), which never sees the point's assignment.
    """
    form = _chart_form(fam, p)
    bound = p ** (len(fam.chart) ** 2)
    points = _chart_points(fam, form, rng=random.Random(seed))
    if not fam.free:
        samples = 1   # nothing is left open, so there is only one point
    checked = 0
    attempts = 0
    while checked < samples and attempts < 50 * max(samples, 1):
        attempts += 1
        m = next(points)
        if m is None:
            continue
        _check_counter(fam, m, p, bound)
        if not _chart_member(fam, form, m, budget):
            return {"family": fam.label(), "checked": checked, "ok": False,
                    "counterexample": m}
        checked += 1
    return {"family": fam.label(), "checked": checked, "ok": True,
            "counterexample": None}


# ---------------------------------------------------------------------------
# coverage

@dataclass
class CoverageReport:
    """What coverage found.  Every matrix in it is a counter value over
    F_p; dim is the table's dimension, which as_dict needs to print the
    uncovered ones' entries."""

    algebra: str
    kind: str
    p: int
    dim: int
    total_solutions: int
    covered: int
    uncovered: list            # counter values, ascending, truncated to cap
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
            "uncovered": [{"index": m,
                           "entries": matrix_rows(m, self.dim, self.p)}
                          for m in self.uncovered],
            "cap": self.cap,
            "families_used": self.families_used,
            "families_skipped": self.families_skipped,
            "chart_points_outside": self.chart_points_outside,
            "note": self.note,
        }


def coverage(table: AlgebraTable, kind: OperatorKind, p: int, families, *,
             solutions, budget: int = DEFAULT_BUDGET, cap: int = 32
             ) -> CoverageReport:
    """Compare a sweep's solutions with the points the given charts reach.

    solutions is the ascending array of solution counter values from
    solution_indices (or a merged sharded sweep) for this table, kind and
    p; coverage never sweeps.  families should be the verified
    (non-malformed) families for this algebra and kind, with the table's
    binding already substituted into their charts by bind_family.  budget
    bounds the enumeration of each chart: a chart past it is skipped as
    RefusedSize.
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
            points = family_solution_set(fam, p, budget=budget)
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
        dim=table.dim,
        total_solutions=int(sols.size),
        covered=len(covered_points),
        uncovered=uncovered[:cap],
        cap=cap,
        families_used=used,
        families_skipped=skipped,
        chart_points_outside=outside,
    )
