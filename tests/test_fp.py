"""Tests for the finite-field brute-force oracle."""

import dataclasses
import hashlib
import json
import pickle
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leibnizalg import fp
from leibnizalg.algebra import (
    AlgebraTable,
    bind_params,
    catalog_map,
    sample_bindings,
)
from leibnizalg.exact import (
    DenominatorVanishes,
    NonInvertibleDenominator,
    NonRealValue,
    Poly,
    RatExpr,
    Scalar,
    parse_expr,
    reduce_mod_p,
    scalar_mod_p,
)
from leibnizalg.fp import (
    CoverageReport,
    RefusedSize,
    bind_family,
    chart_membership,
    compile_system,
    coverage,
    family_solution_set,
    matrix_rows,
    roundtrip_check,
    solution_indices,
    sweep_kernel,
    sweep_shard,
)
from leibnizalg.operators import (
    KIND_NAMES,
    OperatorFamily,
    load_families,
    build_system,
    make_kind,
    operator_residual,
    verify_family,
)
from strategies import mod_tables


@pytest.fixture(scope="module")
def cmap():
    return catalog_map()


@pytest.fixture(scope="module")
def families():
    return [f for kind in KIND_NAMES for f in load_families(kind)]


@pytest.fixture(scope="module")
def family_index(families):
    return {(f.algebra, f.kind, f.index): f for f in families}


@pytest.fixture(scope="module")
def l1_nij_solutions(cmap):
    return solution_indices(cmap["L1"], make_kind("nijenhuis"), 2)


#: the counter value of the 4 x 4 identity over F_2
_IDENT = sum(2 ** (r * 4 + r) for r in range(4))


# ---------------------------------------------------------------------------
# counter values

def test_matrix_rows_little_endian_layout():
    assert matrix_rows(1, 4, 2) == [[1, 0, 0, 0]] + [[0] * 4] * 3
    assert matrix_rows(2, 4, 2)[0] == [0, 1, 0, 0]
    # digit t = r*n + c: index p^4 flips entry (1, 0)
    assert matrix_rows(2 ** 4, 4, 2)[1] == [1, 0, 0, 0]
    assert matrix_rows(_IDENT, 4, 2) == [[int(r == c) for c in range(4)]
                                         for r in range(4)]


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([2, 3, 5, 17]), st.sampled_from([1, 2, 4]))
def test_matrix_rows_inverts_the_counter_weights(data, p, n):
    # counter values as sweeps hold them, in int64
    m = data.draw(st.integers(0, min(p ** (n * n), 2 ** 63) - 1))
    rows = matrix_rows(m, n, p)
    assert [len(row) for row in rows] == [n] * n
    assert sum(x * p ** (r * n + c) for r, row in enumerate(rows)
               for c, x in enumerate(row)) == m
    assert sum(rows, []) == _digits(np.array([m]), n * n, p)[0].tolist()


# ---------------------------------------------------------------------------
# sweeping

def test_solution_set_contains_trivial_operators(cmap, l1_nij_solutions):
    sols = set(l1_nij_solutions.tolist())
    assert 0 in sols                                     # zero matrix
    assert _IDENT in sols                                # identity map
    # identity is not a weight-0 solution on L1
    rb = set(solution_indices(cmap["L1"], make_kind("rota-baxter"),
                              2).tolist())
    assert 0 in rb and _IDENT not in rb


def test_solution_indices_sorted_and_deterministic(cmap, l1_nij_solutions):
    a = l1_nij_solutions
    assert (np.diff(a) > 0).all()
    b = solution_indices(cmap["L1"], make_kind("nijenhuis"), 2)
    assert a.tolist() == b.tolist()


def test_paths_agree_on_examples(cmap):
    for name, kname in (("L17", "rota-baxter"), ("L1", "averaging"),
                        ("L6", "reynolds")):
        kind = make_kind(kname)
        compiled = solution_indices(cmap[name], kind, 2, path="compiled")
        direct = solution_indices(cmap[name], kind, 2, path="direct")
        assert compiled.size == direct.size
        assert compiled.tolist() == direct.tolist(), (name, kname)


def test_sharding_partitions_the_sweep(cmap, l1_nij_solutions):
    kind = make_kind("nijenhuis")
    for path in ("compiled", "direct"):
        parts = [solution_indices(cmap["L1"], kind, 2, shard=s, path=path)
                 for s in range(16)]
        merged = sorted(int(m) for part in parts for m in part.tolist())
        assert merged == l1_nij_solutions.tolist()
        # each shard only holds matrices with its first row
        for s, part in enumerate(parts):
            assert all(int(m) % 16 == s for m in part.tolist())


def test_sweep_shard_worker_matches_inline(cmap, l1_nij_solutions):
    evaluate = sweep_kernel(cmap["L1"], make_kind("nijenhuis"), 2)
    got = np.concatenate([sweep_shard(evaluate, 4, 2, s) for s in range(16)])
    assert np.sort(got).tolist() == l1_nij_solutions.tolist()
    assert sweep_shard(evaluate, 4, 2).tolist() == l1_nij_solutions.tolist()


def test_sweep_shard_worker_sweeps_bound_table(cmap):
    table = bind_params(cmap["L4"], {"mu": RatExpr.const(1)})
    kind = make_kind("averaging")
    want = solution_indices(table, kind, 2).tolist()
    evaluate = sweep_kernel(table, kind, 2, path="direct")
    got = np.concatenate([sweep_shard(evaluate, 4, 2, s) for s in range(16)])
    assert np.sort(got).tolist() == want


@pytest.mark.parametrize("path", ["compiled", "direct"])
def test_pickled_kernel_sweeps_without_recompiling(cmap, monkeypatch, path):
    # what a shard job receives: the kernel, built and pickled once
    kind = make_kind("rota-baxter", RatExpr.const(1))
    want = solution_indices(cmap["L6"], kind, 2, path=path).tolist()
    evaluate = pickle.loads(pickle.dumps(sweep_kernel(cmap["L6"], kind, 2,
                                                      path=path)))

    def compiled_again(*args):
        raise AssertionError("a shard compiled the system again")
    monkeypatch.setattr(fp, "compile_system", compiled_again)
    got = np.concatenate([sweep_shard(evaluate, 4, 2, s) for s in range(16)])
    assert np.sort(got).tolist() == want


def test_budget_refusals(cmap):
    with pytest.raises(RefusedSize):
        solution_indices(cmap["L1"], make_kind("reynolds"), 3)
    with pytest.raises(RefusedSize):
        solution_indices(cmap["L1"], make_kind("reynolds"), 2, budget=100)


def test_sweep_rejects_unbound_table_and_bad_flags(cmap):
    with pytest.raises(ValueError):
        solution_indices(cmap["L4"], make_kind("nijenhuis"), 2)
    with pytest.raises(ValueError):
        solution_indices(cmap["L1"], make_kind("nijenhuis"), 2,
                         path="floating")
    with pytest.raises(ValueError):
        solution_indices(cmap["L1"], make_kind("nijenhuis"), 2, shard=16)
    with pytest.raises(ValueError):
        solution_indices(cmap["L1"], make_kind("nijenhuis"), 4)
    symbolic = make_kind("rota-baxter", RatExpr.var("w"))
    for path in ("compiled", "direct"):
        with pytest.raises(ValueError):
            sweep_kernel(cmap["L1"], symbolic, 2, path=path)
        # a weight with no value mod p is refused before any block runs
        with pytest.raises(NonInvertibleDenominator):
            sweep_kernel(cmap["L1"], make_kind("rota-baxter", "1/2"), 2,
                         path=path)
        with pytest.raises(NonRealValue):
            sweep_kernel(cmap["L1"], make_kind("rota-baxter", "i"), 2,
                         path=path)


def test_nonreducible_tables_are_rejected(cmap):
    # (1+mu)/(1-mu) at mu=5 has an even denominator, so p=2 cannot host it
    table = bind_params(cmap["L20"], {"mu": RatExpr.const(5)})
    with pytest.raises(NonInvertibleDenominator):
        solution_indices(table, make_kind("nijenhuis"), 2, path="compiled")
    with pytest.raises(NonInvertibleDenominator):
        solution_indices(table, make_kind("nijenhuis"), 2, path="direct")
    # but mu = 0 and mu = 2 reduce fine
    for v in (0, 2):
        t = bind_params(cmap["L20"], {"mu": RatExpr.const(v)})
        kind = make_kind("nijenhuis")
        assert solution_indices(t, kind, 2, path="compiled").tolist() \
            == solution_indices(t, kind, 2, path="direct").tolist()


def test_compile_system_requires_bound_weight(cmap):
    with pytest.raises(ValueError):
        compile_system(cmap["L1"], make_kind("rota-baxter",
                                             RatExpr.var("w")), 2)


def test_compiled_system_shape(cmap):
    cs = compile_system(cmap["L1"], make_kind("averaging"), 2)
    assert cs.equation_count <= 128
    assert all(all(exp <= 3 for _, exp in mono) for mono in cs.monos)
    assert all(0 <= pos < 16 for mono in cs.monos for pos, _ in mono)


# ---------------------------------------------------------------------------
# sweep kernels against the integer kernels

@st.composite
def kinds(draw):
    name = draw(st.sampled_from(KIND_NAMES))
    if name == "rota-baxter":
        return make_kind(name, draw(st.integers(-3, 3)))
    return make_kind(name)


@st.composite
def digit_blocks(draw, n, p):
    """Digit blocks over F_p whose length is rarely a multiple of 64, so the
    padding of the last plane word is exercised.  A block opens with the
    scalar matrices c*I, and in most blocks many digits are 0, so that
    solutions other than the zero matrix turn up."""
    rows = draw(st.integers(1, 300))
    zeros = draw(st.sampled_from((0, 0.5, 0.8, 0.95)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    digits = rng.integers(0, p, size=(rows, n * n))
    digits[rng.random(digits.shape) < zeros] = 0
    scalars = np.arange(p)[:, None] * np.eye(n, dtype=int).reshape(1, -1)
    return np.concatenate([scalars, digits]).astype(
        np.uint8 if p == 2 else np.int32)


def _digits(idx, n2, p):
    """The reference the blocks read off the counter are checked against:
    digit t (little-endian, base p) of every counter value, in column t,
    decoded by integer division."""
    digits = np.empty((idx.size, n2), dtype=np.int64)
    rem = idx.astype(np.int64)
    for t in range(n2):
        digits[:, t] = rem % p
        rem = rem // p
    return digits


def _form(table, kind, p):
    """What the direct kernel takes: the table and the weight mod p."""
    w = 0 if kind.weight is None else reduce_mod_p(kind.weight, p)
    return fp._direct_form(table, w, p)


def _direct_mask_int(form, kind, digits, dtype=np.int64):
    """The direct kernel's reference: each identity as dense einsum
    contractions of the table mod p over a digit block, in dtype (object
    for exact ints), reduced mod p after each."""
    p, n = form.field.p, form.n
    cm = np.zeros((n, n, n), dtype)
    for a, b, k, c, _ in form.consts:
        cm[a, b, k] = c
    T = np.asarray(digits).reshape(-1, n, n).astype(dtype)
    btt = np.einsum("mai,mbj,abk->mijk", T, T, cm) % p
    bte = np.einsum("mai,ajk->mijk", T, cm) % p
    bet = np.einsum("mbj,ibk->mijk", T, cm) % p

    def tap(tensor):
        return np.einsum("mqk,mijk->mijq", T, tensor) % p

    axes = (1, 2, 3)
    if kind.name == "rota-baxter":
        inner = (bte + bet + form.w * cm[None, :, :, :]) % p
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


def _compiled_mask_int(cs, digits, dtype=np.int64):
    """The compiled kernel's reference: every monomial of the system as a
    product of entries over a digit block, then each equation as a matrix
    product with the coefficients, in dtype (object for exact ints),
    reduced mod p once at the end."""
    digits = np.asarray(digits).astype(dtype)
    values = np.ones((len(digits), len(cs.monos)), dtype)
    for col, mono in enumerate(cs.monos):
        for pos, exp in mono:
            values[:, col] *= digits[:, pos] ** exp
    residues = (values @ cs.coeffs.astype(dtype)) % cs.p
    return (residues == 0).all(axis=1)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
@settings(max_examples=30, deadline=None)
@given(st.data())
def test_compiled_kernel_matches_int_kernel(p, data):
    table = data.draw(mod_tables(p))
    kind = data.draw(kinds())
    cs = compile_system(table, kind, p)
    digits = data.draw(digit_blocks(table.dim, p))
    got = fp._compiled_mask(cs, fp._field(p).encode(digits))[:len(digits)]
    assert got.tolist() == _compiled_mask_int(cs, digits).tolist()


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_direct_kernel_matches_int_kernel(p, data):
    table = data.draw(mod_tables(p))
    kind = data.draw(kinds())
    form = _form(table, kind, p)
    digits = data.draw(digit_blocks(table.dim, p))
    got = fp._direct_mask(form, kind, fp._field(p).encode(digits))
    assert (got[:len(digits)].tolist()
            == _direct_mask_int(form, kind, digits).tolist())


@pytest.mark.parametrize("path", ["compiled", "direct"])
def test_pickled_f3_kernel_sweeps_every_shard(monkeypatch, path):
    # [e1,e1] = e2, [e1,e2] = 2e1, [e2,e1] = e1 + e2, [e2,e2] = 2e2, swept
    # over all 3^4 matrices; the integer kernel gives the reference
    consts = (((0, 1), (2, 0)), ((1, 1), (0, 2)))
    table = AlgebraTable("D2", 2, [[[RatExpr.const(v) for v in ij]
                                    for ij in row] for row in consts])
    kind = make_kind("rota-baxter", RatExpr.const(1))
    idx = np.arange(3 ** 4, dtype=np.int64)
    digits = _digits(idx, 4, 3)
    want = idx[_direct_mask_int(_form(table, kind, 3), kind,
                                digits)].tolist()
    assert 0 < len(want) < idx.size
    assert solution_indices(table, kind, 3, path=path).tolist() == want
    evaluate = pickle.loads(pickle.dumps(sweep_kernel(table, kind, 3,
                                                      path=path)))

    def compiled_again(*args):
        raise AssertionError("a shard compiled the system again")
    monkeypatch.setattr(fp, "compile_system", compiled_again)
    got = np.concatenate([sweep_shard(evaluate, 2, 3, s) for s in range(9)])
    assert np.sort(got).tolist() == want


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_counter_planes_match_the_digit_planes(monkeypatch, n, p):
    # every block sweep_shard walks, whole sweeps and shards, and every
    # aligned block of p^k matrices they hold whose planes fill at most
    # _BLOCK words: the planes read off the counter are the planes of the
    # block's decoded digits, padding bits of the last word included; at
    # n = 1 a block is shorter than one word, and no power of 3 fills its
    # last word
    digit_block, field = fp._digit_block, fp._field(p)
    walked = set()

    def check(idx, planes):
        want = field.encode(_digits(idx, n * n, p))
        assert planes.dtype == want.dtype
        assert np.array_equal(planes, want), (idx.size, idx[0], idx[1:2])

    def recorded(idx, n2, p, k, s):
        planes = digit_block(idx, n2, p, k, s)
        check(idx, planes)
        walked.add(idx.size)
        return planes
    monkeypatch.setattr(fp, "_digit_block", recorded)

    def accept_all(planes):
        return np.ones(planes.shape[-1] * 64, dtype=bool)
    total, rows = p ** (n * n), p ** n
    words = fp._BLOCK * 64 // (n * n * field.bits)
    for shard in (None, 0, 1, rows - 1):
        first, s = (0, 0) if shard is None else (shard, n)
        stride = p ** s
        span = total // stride
        sizes = [p ** k for k in range(n * n + 1)
                 if p ** k <= min(span, words)]
        walked.clear()
        got = sweep_shard(accept_all, n, p, shard)
        assert got.tolist() == list(range(first, total, stride))
        assert walked == {max(size for size in sizes if size <= fp._BLOCK)}
        for k, size in enumerate(sizes):
            # a whole sweep's many small blocks are walked in its shards
            if span // size > 1 << 12:
                continue
            for start in range(0, span, size):
                idx = first + stride * np.arange(start, start + size)
                check(idx, digit_block(idx, n * n, p, k, s))


@pytest.mark.parametrize("n, p", [(2, 263), (2, 4099), (4, 1031)])
def test_sampled_counter_planes_above_p3_match_the_digit_planes(n, p):
    # sampled blocks of whole sweeps and shards: at p = 263 the pattern's
    # digits pass uint8, and at 4099 (n = 2) and 1031 (n = 4) a block is
    # one matrix, so every digit is fixed; counter values stay in int64
    field, rng = fp._field(p), random.Random(p)
    words = fp._BLOCK * 64 // (n * n * field.bits)
    k = max(k for k in range(n * n + 1) if p ** k <= min(fp._BLOCK, words))
    size = p ** k
    assert size == (263 if p == 263 else 1)
    for shard in (None, 0, 1, p ** n - 1):
        first, s = (0, 0) if shard is None else (shard, n)
        stride = p ** s
        span = min(p ** (n * n), 1 << 62) // stride
        for _ in range(20):
            start = rng.randrange(span // size) * size
            idx = first + stride * np.arange(start, start + size,
                                             dtype=np.int64)
            want = field.encode(_digits(idx, n * n, p))
            got = fp._digit_block(idx, n * n, p, k, s)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (shard, start)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((2, 3, 5)), st.data())
def test_small_sweeps_match_the_int_kernels(p, data):
    # whole sweeps and every shard of dimension 1 and 2 tables through the
    # sweep kernels, each walked as one block of 1, p, p^2 or p^4
    # matrices
    table = data.draw(mod_tables(p, dims=(1, 2)))
    kind = data.draw(kinds())
    n = table.dim
    idx = np.arange(p ** (n * n), dtype=np.int64)
    digits = _digits(idx, n * n, p)
    cs = compile_system(table, kind, p)
    want = idx[_compiled_mask_int(cs, digits)].tolist()
    assert want == idx[_direct_mask_int(_form(table, kind, p), kind,
                                        digits)].tolist()
    for path in ("compiled", "direct"):
        got = solution_indices(table, kind, p, path=path)
        assert got.tolist() == want
        parts = [solution_indices(table, kind, p, path=path, shard=s)
                 for s in range(p ** n)]
        assert np.sort(np.concatenate(parts)).tolist() == want


def _every_block(evaluate):
    """The kernel behind a callable that is not the compiled kernel, so
    that sweep_shard walks every block for it: the unpruned reference
    walk."""
    return lambda planes: evaluate(planes)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((2, 3, 5)), st.data())
def test_pruned_sweeps_match_direct_and_unpruned_walks(p, data):
    # whole sweeps and every shard of tables of dimension 1 to 3 (1 to 2
    # at p = 5, where 5^9 matrices per walk take seconds), walked with
    # the module's block bound, with one of 2^8, under which a walk has
    # up to 81 prefixes and the prefix check runs in several batches, and
    # up to 81 matrices with blocks of one matrix, whose prefix is all of
    # it
    table = data.draw(mod_tables(p, dims=(1, 2 if p == 5 else 3)))
    kind = data.draw(kinds())
    n = table.dim
    bounds = (fp._BLOCK, 1 << 8) + ((1,) if p ** (n * n) <= 81 else ())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fp, "_BLOCK", data.draw(st.sampled_from(bounds)))
        compiled = sweep_kernel(table, kind, p)
        direct = sweep_kernel(table, kind, p, path="direct")
        for shard in [None, *range(p ** n)]:
            want = sweep_shard(direct, n, p, shard).tolist()
            assert sweep_shard(compiled, n, p, shard).tolist() == want
            assert sweep_shard(_every_block(compiled), n, p,
                               shard).tolist() == want


@pytest.fixture
def walked(monkeypatch):
    """The first counter value of every block sweep_shard evaluates: its
    prefix, the block's fixed low digits."""
    firsts, digit_block = [], fp._digit_block

    def recorded(idx, n2, p, k, s):
        firsts.append(int(idx[0]))
        return digit_block(idx, n2, p, k, s)
    monkeypatch.setattr(fp, "_digit_block", recorded)
    return firsts


#: combos whose full p = 3 compiled sweep evaluates only the blocks of
#: its live prefixes: (table, kind, live blocks of 3^8, solutions)
_PRUNED = [("L17", "rota-baxter", 59, 10935), ("L9", "reynolds", 82, 1701),
           ("L1", "nijenhuis", 225, 1701)]


@pytest.mark.parametrize("name, kname, _, __", _PRUNED)
def test_pruned_prefixes_hold_no_direct_solution(cmap, walked, name, kname,
                                                 _, __):
    # shard 0 and three sampled shards: the direct path walks all 81
    # blocks of a shard, and every solution it finds lies in a block the
    # compiled path walked too
    kind = make_kind(kname)
    compiled = sweep_kernel(cmap[name], kind, 3, budget=3 ** 16)
    direct = sweep_kernel(cmap[name], kind, 3, budget=3 ** 16,
                          path="direct")
    shards = [0] + random.Random(name).sample(range(1, 81), 3)
    pruned = 0
    for shard in shards:
        walked.clear()
        got = sweep_shard(compiled, 4, 3, shard)
        live = set(walked)
        walked.clear()
        want = sweep_shard(direct, 4, 3, shard)
        assert len(set(walked)) == 81 and live <= set(walked)
        assert got.tolist() == want.tolist()
        assert {m % 3 ** 8 for m in want.tolist()} <= live
        pruned += 81 - len(live)
    assert pruned


@pytest.mark.parametrize("name, kname, blocks, count", _PRUNED)
def test_full_p3_compiled_sweep_walks_only_live_blocks(cmap, walked, name,
                                                       kname, blocks, count):
    # the 3^8 blocks of a whole sweep vary the last two rows; the compiled
    # path skips every prefix of the first two under which some equation
    # is a nonzero constant, and the direct path is given all 6561
    kind = make_kind(kname)
    got = solution_indices(cmap[name], kind, 3, budget=3 ** 16)
    assert len(walked) == blocks and walked == sorted(walked)
    assert got.size == count and (np.diff(got) > 0).all()
    direct = sweep_kernel(cmap[name], kind, 3, budget=3 ** 16,
                          path="direct")
    walked.clear()
    assert sweep_shard(direct, 4, 3).tolist() == got.tolist()
    assert walked == list(range(3 ** 8))


@pytest.mark.parametrize("name, kname, blocks, count", _PRUNED)
def test_pickled_compiled_kernel_walks_the_same_live_prefixes(
        cmap, walked, name, kname, blocks, count):
    # what a pool's shard job receives: the system, pickled before any
    # sweep, walks the live prefixes of the system it was copied from
    compiled = sweep_kernel(cmap[name], make_kind(kname), 3, budget=3 ** 16)
    copy = pickle.loads(pickle.dumps(compiled))
    want = sweep_shard(compiled, 4, 3).tolist()
    live = list(walked)
    walked.clear()
    assert sweep_shard(copy, 4, 3).tolist() == want
    assert walked == live and len(live) == blocks and len(want) == count
    for shard in (0, 40):
        walked.clear()
        got = sweep_shard(copy, 4, 3, shard).tolist()
        assert walked == [m for m in live if m % 81 == shard]
        assert got == [m for m in want if m % 81 == shard]


class _EveryOtherPrefix:
    """A kernel that accepts every matrix and gives sweep_shard every other
    prefix as live, noting what it is asked for."""

    def __init__(self):
        self.asked = []

    def __call__(self, planes):
        return np.ones(planes.shape[-1] * 64, dtype=bool)

    def live_prefixes(self, s, first, step, count):
        self.asked.append((s, first, step, count))
        return range(first, first + step * count, 2 * step)


@pytest.mark.parametrize("n, p", [(2, 2), (2, 3), (3, 2), (2, 5)])
def test_sweep_walks_the_prefixes_a_kernel_gives(monkeypatch, walked, n, p):
    # a kernel's own live_prefixes decides the walk: exactly the blocks of
    # the prefixes it yields are evaluated, and exactly their matrices are
    # the hits, in a whole sweep and in shards, each walked in blocks of
    # at most p matrices so that every walk has several prefixes
    monkeypatch.setattr(fp, "_BLOCK", p)
    total = p ** (n * n)
    for shard in (None, 0, p ** n - 1):
        evaluate = _EveryOtherPrefix()
        walked.clear()
        got = sweep_shard(evaluate, n, p, shard).tolist()
        (s, first, step, count), = evaluate.asked
        live = list(range(first, first + step * count, 2 * step))
        assert (first, step) == ((0, 1) if shard is None else (shard, p ** n))
        assert count * p ** (n * n - s) * step == total and count > 1
        assert walked == live
        assert got == [m for m in range(first, total, step)
                       if m % p ** s in live]


def _first_block_peak(evaluate, n, p):
    """The width of the first block of shard 0 and the tracemalloc peak
    of the kernel evaluate over it."""
    seen = []

    class Stop(Exception):
        pass

    def first_block(block):
        tracemalloc.start()
        try:
            evaluate(block)
            seen.append((block.shape[-1], tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
        raise Stop
    with pytest.raises(Stop):
        sweep_shard(first_block, n, p, 0)
    return seen[0]


def test_a_block_above_p3_holds_an_int64_per_digit(cmap):
    # one block of the direct kernel at p = 5, as a shard of L1 nijenhuis
    # walks it: 5^4 matrices, the largest power of 5 whose 16 int64 digits
    # per matrix fill at most 2^14 words, and the kernel's peak stays at or
    # under 20 MB (86 MB for the 5^6 blocks of the 2^14 bound alone)
    evaluate = sweep_kernel(cmap["L1"], make_kind("nijenhuis"), 5,
                            budget=5 ** 16, path="direct")
    width, peak = _first_block_peak(evaluate, 4, 5)
    assert width == 5 ** 4 == max(5 ** k for k in range(9)
                                  if 5 ** k * 16 <= fp._BLOCK)
    assert peak <= 20e6


def test_a_compiled_block_above_p3_stays_under_20_mb(cmap):
    # the compiled kernel holds every monomial of the block, scaled by
    # each distinct coefficient; L9 reynolds, of degree 3, peaks at about
    # 12 MB over one 5^4 block
    evaluate = sweep_kernel(cmap["L9"], make_kind("reynolds"), 5,
                            budget=5 ** 16)
    width, peak = _first_block_peak(evaluate, 4, 5)
    assert width == 5 ** 4
    assert peak <= 20e6


def _scalars(p):
    """Gaussian rationals whose numerators and denominators are often
    multiples of p; most are real."""
    fracs = st.builds(Fraction, st.integers(-3 * p, 3 * p),
                      st.integers(1, 3 * p))
    return st.builds(Scalar, fracs, st.one_of(st.just(0), fracs))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((2, 3, 5, 13)), st.data())
def test_scalar_mod_p_inverts_the_denominator(p, data):
    v = data.draw(_scalars(p))
    f = Fraction(v.re)
    if not v.is_real:
        with pytest.raises(NonRealValue):
            scalar_mod_p(v, p)
    elif f.denominator % p == 0:
        with pytest.raises(NonInvertibleDenominator):
            scalar_mod_p(v, p)
    else:
        r = scalar_mod_p(v, p)
        assert 0 <= r < p and (r * f.denominator - f.numerator) % p == 0


@pytest.mark.parametrize("p", [3, 5])
def test_compiled_coefficients_are_the_reduced_symbolic_ones(cmap, p):
    # rota-baxter at weight 1/2: every bound system has Fraction
    # coefficients, and every denominator is 1
    kind = make_kind("rota-baxter", "1/2")
    systems = 0
    for table in cmap.values():
        for binding in sample_bindings(table):
            bound = bind_params(table, binding)
            sys = build_system(bound, kind)
            assert all(den == Poly.const(1) for den in sys.denominators)
            flat = {name: t for t, name in enumerate(sys.unknowns)}
            want = []
            for eq in sys.equations:
                terms = {}
                for mono, coef in eq.terms.items():
                    c = reduce_mod_p(RatExpr.const(coef), p)
                    if c:
                        terms[tuple((flat[nm], e) for nm, e in mono)] = c
                if terms:
                    want.append(terms)
            cs = compile_system(bound, kind, p)
            got = [{cs.monos[t]: int(col[t]) for t in np.flatnonzero(col)}
                   for col in cs.coeffs.T]
            assert got == want, (table.name, binding)
            systems += 1
    assert systems == 30


def _int_kernel_sweep(table, kind):
    """Full p = 2 sweep by the integer kernels, block by block."""
    n = table.dim
    cs = compile_system(table, kind, 2)
    form = _form(table, kind, 2)
    compiled, direct = [], []
    for start in range(0, 2 ** (n * n), 1 << 14):
        idx = np.arange(start, start + (1 << 14), dtype=np.int64)
        digits = (idx[:, None] >> np.arange(n * n)) & 1
        compiled.append(idx[_compiled_mask_int(cs, digits)])
        direct.append(idx[_direct_mask_int(form, kind, digits)])
    return np.concatenate(compiled).tolist(), np.concatenate(direct).tolist()


@pytest.mark.parametrize("name", ["L1", "L17"])
def test_odd_weight_rota_baxter_full_sweep(cmap, name):
    # the gate sweeps weight 0 only; weight 1 brings in the w*[x,y] plane
    kind = make_kind("rota-baxter", 1)
    want_compiled, want_direct = _int_kernel_sweep(cmap[name], kind)
    assert want_compiled == want_direct
    for path in ("compiled", "direct"):
        got = solution_indices(cmap[name], kind, 2, path=path)
        assert got.tolist() == want_compiled
    weight0 = solution_indices(cmap[name], make_kind("rota-baxter"), 2)
    assert weight0.tolist() != want_compiled


# ---------------------------------------------------------------------------
# integer widths of the kernels and field checks

@pytest.fixture
def no_sweep(monkeypatch):
    """Fail at once, instead of sweeping p^16 matrices, if a refusal that
    should come before the sweep does not."""
    def sweep_started(*args):
        raise AssertionError("the sweep started")
    monkeypatch.setattr(fp, "_digit_block", sweep_started)


def test_width_guard_refuses_overflowing_primes(cmap, no_sweep):
    q = 3037000507            # the least prime with (q - 1)^2 past int64
    kind = make_kind("reynolds")
    for path in ("compiled", "direct"):
        # the budget alone would admit the sweep
        with pytest.raises(RefusedSize, match="int64"):
            solution_indices(cmap["L1"], kind, q, budget=q ** 16 + 1,
                             path=path)


def test_counter_guard_refuses_primes_past_int64_counters(cmap, no_sweep):
    # the largest counter value p^(n*n) - 1 fits int64 at the first prime
    # of each pair and not at the second: 13 and 17 in dimension 4, and
    # the primes on either side of 2^(63/4) in dimension 2; the budget
    # alone would admit every one of these sweeps
    kind = make_kind("reynolds")
    for table, p, q in ((cmap["L1"], 13, 17), (_edge_table(2), 55103, 55109)):
        n2 = table.dim ** 2
        assert p ** n2 <= 2 ** 63 < q ** n2
        for path in ("compiled", "direct"):
            with pytest.raises(AssertionError, match="the sweep started"):
                solution_indices(table, kind, p, budget=p ** n2, path=path)
            with pytest.raises(RefusedSize, match="counter values .* int64"):
                solution_indices(table, kind, q, budget=q ** n2, path=path)


#: 3037000493 is the largest prime whose (p - 1)^2 fits int64
_EDGE, _PAST_EDGE = 3037000493, 3037000507


def _edge_table(n=2):
    """A dimension n table with every structure constant at p - 1."""
    return AlgebraTable("top", n, [[[RatExpr.const(_EDGE - 1)
                                     for _ in range(n)] for _ in range(n)]
                                   for _ in range(n)])


def _edge_digits():
    """Digits at the edge prime with many entries at p - 1; the rows open
    with 0, I and -I, so that some are solutions."""
    p = _EDGE
    rng = np.random.default_rng(0)
    digits = rng.choice([0, 0, 0, 1, p - 1], size=(300, 4))
    digits[:3] = [[0, 0, 0, 0], [1, 0, 0, 1], [p - 1, 0, 0, p - 1]]
    return digits


def _edge_kinds():
    p = _EDGE
    return [make_kind(name, p - 1) if name == "rota-baxter"
            else make_kind(name) for name in KIND_NAMES]


def _assert_width_guard_is_tight(path):
    # in dimension 1 only, where p^(n*n) - 1 fits int64 at both primes, so
    # that the counter guard does not decide first
    p, q = _EDGE, _PAST_EDGE
    assert (p - 1) ** 2 <= np.iinfo(np.int64).max < (q - 1) ** 2
    table, kind = _edge_table(1), make_kind("nijenhuis")
    with pytest.raises(AssertionError, match="the sweep started"):
        solution_indices(table, kind, p, budget=p, path=path)
    with pytest.raises(RefusedSize, match="before reducing"):
        solution_indices(table, kind, q, budget=q, path=path)


def test_compiled_width_guard_is_tight_and_sufficient(no_sweep):
    _assert_width_guard_is_tight("compiled")
    # every constant, the weight and many entries at p - 1, against exact
    # ints
    digits = _edge_digits()
    for kind in _edge_kinds():
        cs = compile_system(_edge_table(), kind, _EDGE)
        want = _compiled_mask_int(cs, digits, object)
        got = fp._compiled_mask(cs, fp._field(_EDGE).encode(digits))
        assert got.tolist() == want.tolist()
        assert 0 < want.sum() < len(digits)


def test_direct_width_guard_is_tight_and_sufficient(no_sweep):
    _assert_width_guard_is_tight("direct")
    # every constant, the weight and many entries at p - 1, against exact
    # ints
    digits = _edge_digits()
    for kind in _edge_kinds():
        form = _form(_edge_table(), kind, _EDGE)
        want = _direct_mask_int(form, kind, digits.astype(object), object)
        got = fp._direct_mask(form, kind, fp._field(_EDGE).encode(digits))
        assert got.tolist() == want.tolist()
        assert 0 < want.sum() < len(digits)


def test_primality_check_is_fast_and_exact():
    small = [q for q in range(2, 5000)
             if all(q % d for d in range(2, int(q ** 0.5) + 1))]
    assert [q for q in range(5000) if fp._is_prime(q)] == small
    # strong pseudoprimes to the prime bases up to 23 and up to 37, and a
    # Carmichael number
    for c in (3825123056546413051, 318665857834031151167461, 561):
        assert not fp._is_prime(c)
    t0 = time.perf_counter()
    fp._check_prime(2 ** 61 - 1)      # trial division would take minutes
    assert time.perf_counter() - t0 < 0.1
    with pytest.raises(ValueError):
        fp._check_prime(2 ** 89 - 1)          # past the proven bound
    with pytest.raises(ValueError):
        fp._check_prime(3 * 5)


# ---------------------------------------------------------------------------
# lifted soundness

def lift_check(table, kind, p, indices, *, samples=100, seed=0):
    """The reference that sweeps are checked against through exact
    arithmetic: lift sampled solutions to integer matrices, and the
    operator residual over Q, reduced mod p, must vanish at each."""
    pool = [int(m) for m in indices]
    rng = random.Random(seed)
    picked = pool if len(pool) <= samples else sorted(rng.sample(pool, samples))
    n = table.dim
    for m in picked:
        T = [[RatExpr.const(x) for x in row] for row in matrix_rows(m, n, p)]
        res = operator_residual(table, kind, T)
        if any(reduce_mod_p(e, p) != 0 for _, e in res.walk()):
            return {"ok": False, "checked": len(picked),
                    "counterexample": m}
    return {"ok": True, "checked": len(picked), "counterexample": None}


def test_lift_check_confirms_solutions(cmap, l1_nij_solutions):
    out = lift_check(cmap["L1"], make_kind("nijenhuis"), 2,
                     l1_nij_solutions.tolist(), samples=40)
    assert out == {"ok": True, "checked": 40, "counterexample": None}


def test_lift_check_flags_non_solutions(cmap):
    out = lift_check(cmap["L1"], make_kind("rota-baxter"), 2, [_IDENT])
    assert not out["ok"] and out["counterexample"] == _IDENT


# ---------------------------------------------------------------------------
# chart membership

def test_membership_respects_fixed_zero_entries(cmap, family_index):
    # first chart keeps entry (1,1) at zero, so no point has it nonzero
    fam = family_index[("L1", "rota-baxter", 1)]
    assert fam.chart[0][0].is_zero
    assert chart_membership(fam, 1, 2) is False     # lone 1 in entry (1,1)
    assert chart_membership(fam, 0, 2) is True


def test_membership_enforces_denominator_constraint(cmap, family_index):
    # the third chart divides by r32, so over F_2 membership forces r32 = 1
    fam = family_index[("L1", "rota-baxter", 3)]
    assert any(str(c) == "r32" for c in fam.constraints)
    assert chart_membership(fam, 0, 2) is False
    points = family_solution_set(fam, 2)
    assert points, "chart reaches no F_2 point at all?"
    n = 4
    r32_pos = (3 - 1) * n + (2 - 1)
    assert all((m // 2 ** r32_pos) % 2 == 1 for m in points)


def test_membership_budget_refusal():
    # no entry exposes a parameter alone, so nothing can be read off and
    # the exhaustive fallback must consult the budget
    rows = [["k11*k22", "0", "0", "0"], ["0", "k22*k33", "0", "0"],
            ["0", "0", "k33*k11", "0"], ["0"] * 4]
    chart = [[parse_expr(e) for e in row] for row in rows]
    fam = OperatorFamily("L1", "nijenhuis", 99, chart,
                         ("k11", "k22", "k33"), (), False)
    with pytest.raises(RefusedSize):
        chart_membership(fam, 0, 2, budget=4)
    assert chart_membership(fam, 0, 2, budget=8) is True


def test_membership_rejects_malformed_and_size_mismatch(family_index):
    fam = family_index[("L1", "rota-baxter", 5)]
    with pytest.raises(ValueError, match="malformed"):
        chart_membership(fam, 0, 2)
    # a counter value past p^16 holds more digits than a 4 x 4 matrix
    good = family_index[("L1", "rota-baxter", 1)]
    with pytest.raises(ValueError, match="not the counter value"):
        chart_membership(good, 2 ** 16, 2)


def test_membership_validates_the_counter_value(family_index):
    # the checks the old validated-rows form made, now on the counter value
    good = family_index[("L1", "rota-baxter", 1)]
    with pytest.raises(ValueError, match="not a prime"):
        chart_membership(good, 0, 4)
    # a counter value must be an int of a 4 x 4 matrix, in [0, p^16)
    for m, p in ((-1, 2), (2 ** 16, 2), (3 ** 16, 3), (0.0, 2)):
        with pytest.raises(ValueError, match="not the counter value"):
            chart_membership(good, m, p)
    # the largest is admitted; entry (1,1) is 0 on this chart
    assert chart_membership(good, 2 ** 16 - 1, 2) is False


def test_bind_family_substitutes_and_drops_parameter():
    chart = [[parse_expr("mu*b11"), parse_expr("0")],
             [parse_expr("0"), parse_expr("b11")]]
    fam = OperatorFamily("demo", "averaging", 1, chart, ("b11", "mu"), (),
                         False)
    bound = bind_family(fam, {"mu": 2})
    assert bound.free == ("b11",)
    assert bound.chart[0][0] == parse_expr("2*b11")
    same = bind_family(fam, {"nu": 7})
    assert same is fam


def test_chart_points_are_solutions(cmap, family_index):
    fam = family_index[("L1", "nijenhuis", 2)]
    assert verify_family(cmap["L1"], fam).holds
    points = family_solution_set(fam, 2)
    sols = set(solution_indices(cmap["L1"], make_kind("nijenhuis"),
                                2).tolist())
    assert points <= sols
    assert points


def test_roundtrip_membership(cmap, family_index):
    for key in (("L1", "rota-baxter", 1), ("L1", "nijenhuis", 2),
                ("L3", "averaging", 1)):
        fam = family_index[key]
        out = roundtrip_check(fam, 2, samples=25)
        assert out["ok"], out
        assert out["checked"] > 0


@pytest.mark.parametrize("p", [2, 3, 5, 7, 2 ** 31 - 1])
@pytest.mark.parametrize("seed", [0, 1, 25])
def test_chart_draws_are_randrange_draws(p, seed):
    # each point draws the open names in slot order, a forced one is
    # skipped, and the generator leaves the stream where randrange would
    chart = [[parse_expr(e) for e in row] for row in (("x", "y"), ("z", "0"))]
    fam = OperatorFamily("T", "nijenhuis", 1, chart, ("x", "y", "z"), (),
                         False)
    form = fp._chart_form(fam, p)
    for forced in ({}, {1: p - 1}):
        rng, ref = random.Random(seed), random.Random(seed)
        points = fp._chart_points(fam, form, forced=forced, rng=rng)
        for _ in range(40):
            (x, y), (z, _) = matrix_rows(next(points), 2, p)
            want = [ref.randrange(p) if slot not in forced else forced[slot]
                    for slot in range(3)]
            assert [x, y, z] == want
        assert rng.getrandbits(64) == ref.getrandbits(64)


def test_membership_evaluates_a_fully_read_off_point(monkeypatch):
    # every name stands alone in an entry, so the read-off fixes the point
    # and no search runs; a budget below 1 is still refused
    chart = [[parse_expr(e) for e in row]
             for row in (("x", "2*y"), ("x*y", "0"))]
    fam = OperatorFamily("T", "nijenhuis", 1, chart, ("x", "y"), (), False)

    def no_search(*args, **kwargs):
        raise AssertionError("the membership search ran")
    point = 2 + 5 * (2 * 4 % 5) + 25 * (2 * 4 % 5)   # x = 2, y = 4
    with monkeypatch.context() as patch:
        patch.setattr(fp, "_chart_points", no_search)
        assert chart_membership(fam, point, 5, budget=1) is True
        assert chart_membership(fam, point + 25, 5, budget=1) is False
    with pytest.raises(RefusedSize):
        chart_membership(fam, point, 5, budget=0)


#: sha256 of the JSON list of roundtrip_check's dicts (or the error each
#: raises) over every shipped verified family, recorded when each open
#: name was drawn by rng.randrange(p) and membership always searched; the
#: dicts hold no point, so they read the same at p = 2 and p = 3
_ROUNDTRIP_DIGEST = (
    "737f2992ab936286582b27cea6f4ee1ac7e453420ba3b91a075d9a2d5f0bd5df")


@pytest.mark.parametrize("p", [2, 3])
def test_roundtrip_dicts_are_unchanged_on_verified_families(cmap, families,
                                                            p):
    outs = []
    for fam in families:
        if fam.malformed or not verify_family(cmap[fam.algebra], fam).holds:
            continue
        try:
            outs.append(roundtrip_check(fam, p))
        except (NonRealValue, NonInvertibleDenominator) as err:
            outs.append({"family": fam.label(), "raises": type(err).__name__})
    assert len(outs) == 225
    digest = hashlib.sha256(json.dumps(outs).encode()).hexdigest()
    assert digest == _ROUNDTRIP_DIGEST


@pytest.mark.parametrize("check", [roundtrip_check, family_solution_set])
def test_chart_checks_refuse_malformed_family(family_index, check):
    fam = family_index[("L1", "rota-baxter", 5)]
    assert fam.malformed
    with pytest.raises(ValueError, match="malformed"):
        check(fam, 2)


@pytest.mark.parametrize("check", [roundtrip_check, family_solution_set])
@pytest.mark.parametrize("p", [1, 4, 0, -3])
def test_chart_checks_refuse_non_fields_before_any_point(family_index,
                                                        monkeypatch, check,
                                                        p):
    def no_point(*args):
        raise AssertionError("a chart point was evaluated")

    monkeypatch.setattr(fp, "_eval_chart", no_point)
    fam = family_index[("L1", "rota-baxter", 1)]
    with pytest.raises(ValueError, match="not a prime"):
        check(fam, p)


# ---------------------------------------------------------------------------
# compiled chart evaluation against the exact reference

def _oracle(e, p, assignment):
    """Value of e mod p at the assignment through exact arithmetic, None
    where it has none."""
    sub = {name: RatExpr.const(v) for name, v in assignment.items()}
    try:
        return reduce_mod_p(e.substitute(sub), p)
    except (DenominatorVanishes, NonInvertibleDenominator):
        return None


def _oracle_points(fam, p):
    """Every point of the chart over F_p, through exact arithmetic: the
    constraints first, then the entries in row-major order, and the first
    value that is zero (constraint) or missing (any) drops the point."""
    n = len(fam.chart)
    exprs = [(None, con) for con in fam.constraints]
    exprs += [(p ** (r * n + c), fam.chart[r][c])
              for r in range(n) for c in range(n)
              if not fam.chart[r][c].is_zero]
    names = [sorted(e.params()) for _, e in exprs]
    memo = {}   # a value depends only on the names its expression uses

    def value(k, assignment):
        key = (k,) + tuple(assignment[x] for x in names[k])
        if key not in memo:
            memo[key] = _oracle(exprs[k][1], p, assignment)
        return memo[key]

    points = set()
    for combo in product(range(p), repeat=len(fam.free)):
        assignment = dict(zip(fam.free, combo))
        m = 0
        for k, (weight, _) in enumerate(exprs):
            v = value(k, assignment)
            if v is None or (weight is None and v == 0):
                break
            m += 0 if weight is None else v * weight
        else:
            points.add(m)
    return points


def _outcome(fn):
    try:
        return fn()
    except NonRealValue:
        return "NonRealValue"


def _at(fam, p, assignment):
    """The compiled chart's counter value at one point, None outside it."""
    return fp._eval_chart(fp._chart_form(fam, p),
                          [assignment[name] for name in fam.free])


def _one_by_one(e, *, constraint=False):
    chart = [[parse_expr("1") if constraint else e]]
    return OperatorFamily("T", "nijenhuis", 1, chart, ("x", "y", "z"),
                          (e,) if constraint else (), False)


_gauss = st.builds(Scalar,
                   st.fractions(min_value=-6, max_value=6, max_denominator=6),
                   st.fractions(min_value=-6, max_value=6, max_denominator=6))


@st.composite
def _polys(draw, coefs=_gauss):
    poly = Poly()
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        mono = Poly.const(1)
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            mono = mono * Poly.var(draw(st.sampled_from("xyz")))
        poly = poly + mono.scale(draw(coefs))
    return poly


@st.composite
def _chart_exprs(draw, coefs=_gauss):
    """Quotients with coefficients from coefs, Gaussian rationals by
    default; most denominators are not constant."""
    num = draw(_polys(coefs))
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        return RatExpr(num, Poly.const(draw(coefs.filter(bool))))
    den = draw(_polys(coefs))
    if den.is_const:
        den = den + Poly.var(draw(st.sampled_from("xyz")))
    return RatExpr(num, den)


@settings(max_examples=80, deadline=None)
@given(_chart_exprs(), st.sampled_from([2, 3, 5]))
def test_compiled_expression_matches_exact_reference(e, p):
    entry, con = _one_by_one(e), _one_by_one(e, constraint=True)
    for combo in product(range(p), repeat=3):
        assignment = dict(zip("xyz", combo))
        want = _outcome(lambda: _oracle(e, p, assignment))
        assert _outcome(lambda: _at(entry, p, assignment)) == want
        want_con = want if isinstance(want, str) else (1 if want else None)
        assert _outcome(lambda: _at(con, p, assignment)) == want_con


#: the Mersenne prime 2^31 - 1, where chart points are drawn at random
_BIG = 2 ** 31 - 1

_small = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def _linear_exprs(draw, p):
    """c*x with c real, imaginary, or real with p in its numerator or its
    denominator; only real c with a denominator prime to p is linear."""
    c = draw(_small.filter(bool))
    shape = draw(st.sampled_from(["real"] * 3 + ["imaginary", "p_num",
                                                  "p_den"]))
    if shape == "imaginary":
        coef = Scalar(draw(_small), c)
    else:
        coef = Scalar(c * p if shape == "p_num"
                      else c / p if shape == "p_den" else c)
    return RatExpr(Poly.var(draw(st.sampled_from("xyz"))).scale(coef))


@st.composite
def _exact_exprs(draw, p):
    """_chart_exprs, mostly with real coefficients, at times scaled by p or
    by 1/p."""
    coefs = draw(st.sampled_from([_gauss] + [st.builds(Scalar, _small)] * 3))
    return draw(_chart_exprs(coefs)) * RatExpr.const(
        Fraction(p) ** draw(st.integers(min_value=-1, max_value=1)))


@st.composite
def _mixed_charts(draw, p):
    """A chart over x, y, z, mostly of linear entries, with some exact and
    zero ones and up to two constraints of either shape."""
    def expr():
        if draw(st.integers(min_value=0, max_value=2)):
            return draw(_linear_exprs(p))
        return draw(_exact_exprs(p))

    n = draw(st.integers(min_value=1, max_value=3))
    chart = [[RatExpr.const(0) if draw(st.integers(0, 3)) == 0 else expr()
              for _ in range(n)] for _ in range(n)]
    constraints = tuple(expr() for _ in range(draw(st.integers(0, 2))))
    return OperatorFamily("T", "nijenhuis", 1, chart, ("x", "y", "z"),
                          constraints, False)


def _oracle_at(fam, p, assignment):
    """The chart's counter value at one point through exact arithmetic: the
    constraints, then the entries in row-major order, and the first value
    that is missing, or a constraint's that is 0, drops the point."""
    for con in fam.constraints:
        if not _oracle(con, p, assignment):
            return None
    n, m = len(fam.chart), 0
    for r, c in product(range(n), repeat=2):
        if not fam.chart[r][c].is_zero:
            v = _oracle(fam.chart[r][c], p, assignment)
            if v is None:
                return None
            m += v * p ** (r * n + c)
    return m


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5, _BIG]), st.data())
def test_mixed_charts_match_exact_reference(p, data):
    # linear entries are summed after the exact part, which must still be
    # checked in the oracle's order: the first inadmissible value wins
    fam = data.draw(_mixed_charts(p))
    if p == _BIG:
        digit = st.one_of(st.integers(0, 2), st.integers(0, p - 1))
        combos = data.draw(st.lists(st.tuples(digit, digit, digit),
                                    min_size=1, max_size=12))
    else:
        combos = product(range(p), repeat=3)
    for combo in combos:
        assignment = dict(zip("xyz", combo))
        assert _outcome(lambda: _at(fam, p, assignment)) \
            == _outcome(lambda: _oracle_at(fam, p, assignment)), assignment


@pytest.mark.parametrize("p", [2, 3])
def test_l1_charts_match_exact_reference(family_index, p):
    rng = random.Random(p)
    for (algebra, _, _), fam in sorted(family_index.items()):
        if algebra != "L1" or fam.malformed:
            continue
        want = _oracle_points(fam, p)
        assert family_solution_set(fam, p) == want, fam.label()
        n = len(fam.chart)
        for m in rng.sample(sorted(want), min(len(want), 12)):
            assert chart_membership(fam, m, p), (fam.label(), m)
            # one digit of m, one entry of its matrix, moved by 1 mod p
            weight = p ** rng.randrange(n * n)
            near = m + weight * ((m // weight + 1) % p - m // weight % p)
            assert chart_membership(fam, near, p) == (near in want), \
                (fam.label(), near)


def _is_linear(e, p):
    """Whether e is c*x with c real and a denominator prime to p, the one
    shape of entry that the compiled chart sums without the exact path."""
    if not e.den.is_const or len(e.num.terms) != 1:
        return False
    (mono, coef), = e.num.terms.items()
    return (len(mono) == 1 and mono[0][1] == 1 and not coef.im
            and coef.re.denominator % p != 0)


@pytest.mark.parametrize("p", [2, 3])
def test_shipped_charts_with_exact_entries_match_exact_reference(cmap,
                                                                 families,
                                                                 p):
    # every chart that takes the exact path at p, bound at its table's
    # first sample binding; at p = 3 only charts of up to 3^8 points
    checked = 0
    for fam in families:
        if fam.malformed:
            continue
        bindings = sample_bindings(cmap[fam.algebra])[0]
        fam = bind_family(fam, bindings) if bindings else fam
        exact = fam.constraints or not all(
            e.is_zero or _is_linear(e, p) for row in fam.chart for e in row)
        if not exact or (p == 3 and len(fam.free) > 8):
            continue
        checked += 1
        assert _outcome(lambda: family_solution_set(fam, p)) \
            == _outcome(lambda: _oracle_points(fam, p)), fam.label()
    # at p = 2 the charts with a coefficient 1/2 join; 7 of each raise
    # NonRealValue, and one at p = 3 has 9 free names
    assert checked == {2: 48, 3: 41}[p]


def test_denominator_divisible_by_p_that_cancels_is_admissible():
    fam = _one_by_one(parse_expr("(2*x)/(2*y)"))
    assert _at(fam, 2, {"x": 1, "y": 1, "z": 0}) == 1
    assert _at(fam, 2, {"x": 1, "y": 0, "z": 0}) is None


def test_constant_denominator_divisible_by_p():
    fam = _one_by_one(parse_expr("x/2"))
    assert _at(fam, 2, {"x": 0, "y": 0, "z": 0}) == 0
    assert _at(fam, 2, {"x": 1, "y": 0, "z": 0}) is None
    assert _at(fam, 3, {"x": 1, "y": 0, "z": 0}) == 2


def test_realness_is_decided_at_each_point():
    fam = _one_by_one(parse_expr("i*x"))
    assert _at(fam, 2, {"x": 0, "y": 0, "z": 0}) == 0
    with pytest.raises(NonRealValue):
        _at(fam, 2, {"x": 1, "y": 0, "z": 0})


def test_first_inadmissible_value_wins_over_a_later_non_real_one():
    rows = [["x/2", "i*x"], ["0", "0"]]
    fam = OperatorFamily("T", "nijenhuis", 1,
                         [[parse_expr(e) for e in row] for row in rows],
                         ("x",), (), False)
    assert _at(fam, 2, {"x": 1}) is None
    with pytest.raises(NonRealValue):
        _at(fam, 3, {"x": 1})
    vanishing = OperatorFamily("T", "nijenhuis", 2, [[parse_expr("i")]],
                               ("x",), (parse_expr("x"),), False)
    assert _at(vanishing, 2, {"x": 0}) is None
    with pytest.raises(NonRealValue):
        _at(vanishing, 2, {"x": 1})


def test_compiled_chart_is_kept_per_prime(family_index):
    fam = dataclasses.replace(family_index[("L1", "nijenhuis", 2)])
    for p in (2, 3, 2):
        assert family_solution_set(fam, p) == _oracle_points(fam, p)
    assert sorted(fam._chart_forms) == [2, 3]


def test_bound_family_compiles_its_own_chart():
    chart = [[parse_expr("mu*b11"), parse_expr("0")],
             [parse_expr("0"), parse_expr("b11/mu")]]
    fam = OperatorFamily("demo", "averaging", 1, chart, ("b11", "mu"),
                         (parse_expr("mu"),), False)
    assert family_solution_set(fam, 3) == _oracle_points(fam, 3)
    bound = bind_family(fam, {"mu": 2})
    assert bound._chart_forms == {}
    points = family_solution_set(bound, 3)
    assert points == _oracle_points(bound, 3) == {0, 2 + 2 * 27, 1 + 27}
    # b11 is read off entry (1,1), 2*b11, through the inverse of 2 mod 3
    assert [m for m in range(3 ** 4) if chart_membership(bound, m, 3)] \
        == sorted(points)


# ---------------------------------------------------------------------------
# coverage

def _verified(cmap, families, algebra, kname):
    picked = []
    for f in families:
        if f.algebra != algebra or f.kind != kname or f.malformed:
            continue
        try:
            if verify_family(cmap[algebra], f).holds:
                picked.append(f)
        except Exception:
            pass
    return picked


def test_coverage_report_structure(cmap, families, l1_nij_solutions):
    fams = _verified(cmap, families, "L1", "nijenhuis")
    rep = coverage(cmap["L1"], make_kind("nijenhuis"), 2, fams,
                   solutions=l1_nij_solutions)
    assert isinstance(rep, CoverageReport)
    assert rep.total_solutions == 128
    assert 0 <= rep.covered <= rep.total_solutions
    assert rep.chart_points_outside == 0
    want = min(rep.total_solutions - rep.covered, rep.cap)
    assert len(rep.uncovered) == want
    assert rep.families_used
    d = rep.as_dict()
    assert d["total"] == 128 and d["note"]
    # uncovered solutions are counter values, ascending, decoded only in
    # the dict
    sols = set(l1_nij_solutions.tolist())
    assert all(type(m) is int and m in sols for m in rep.uncovered)
    assert rep.uncovered == sorted(rep.uncovered)
    assert d["uncovered"] == [{"index": m, "entries": matrix_rows(m, 4, 2)}
                              for m in rep.uncovered]


def test_coverage_is_order_invariant_and_deterministic(cmap, families):
    fams = _verified(cmap, families, "L17", "nijenhuis")
    kind = make_kind("nijenhuis")
    sols = solution_indices(cmap["L17"], kind, 2)
    a = coverage(cmap["L17"], kind, 2, fams, solutions=sols)
    b = coverage(cmap["L17"], kind, 2, fams[::-1], solutions=sols)
    assert a.covered == b.covered
    assert a.total_solutions == b.total_solutions
    assert a.uncovered == b.uncovered
    again = coverage(cmap["L17"], kind, 2, fams, solutions=sols)
    assert again.as_dict() == a.as_dict()


def test_coverage_without_families(cmap):
    kind = make_kind("reynolds")
    rep = coverage(cmap["L1"], kind, 2, [], cap=8,
                   solutions=solution_indices(cmap["L1"], kind, 2))
    assert rep.covered == 0
    assert len(rep.uncovered) == min(rep.total_solutions, 8)


def test_coverage_skips_charts_with_imaginary_entries(cmap, families):
    table = bind_params(cmap["L14"], {"mu": RatExpr.const(0)})
    fams = _verified(cmap, families, "L14", "rota-baxter")
    assert fams, "expected verified charts here"
    kind = make_kind("rota-baxter")
    rep = coverage(table, kind, 2, fams,
                   solutions=solution_indices(table, kind, 2))
    reasons = {s["reason"] for s in rep.families_skipped}
    assert "NonRealValue" in reasons


def test_coverage_rejects_foreign_family(cmap, families, l1_nij_solutions):
    fams = _verified(cmap, families, "L2", "nijenhuis")
    with pytest.raises(ValueError):
        coverage(cmap["L1"], make_kind("nijenhuis"), 2, fams,
                 solutions=l1_nij_solutions)


def test_coverage_propagates_budget(cmap, families):
    # the budget bounds each chart's enumeration: a chart with more F_2
    # assignments than the budget is skipped, and the others are still used
    kind = make_kind("rota-baxter")
    fams = _verified(cmap, families, "L1", "rota-baxter")
    sizes = {f.label(): 2 ** len(f.free) for f in fams}
    budget = min(sizes.values())
    assert max(sizes.values()) > budget
    rep = coverage(cmap["L1"], kind, 2, fams, budget=budget,
                   solutions=solution_indices(cmap["L1"], kind, 2))
    skipped = {s["family"] for s in rep.families_skipped
               if s["reason"] == "RefusedSize"}
    assert skipped == {label for label, n in sizes.items() if n > budget}
    assert {u["family"] for u in rep.families_used} \
        == set(sizes) - skipped
