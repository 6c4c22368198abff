"""Tests for the finite-field brute-force oracle."""

import dataclasses
import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from leibnizalg import fp
from leibnizalg.algebra import (
    AlgebraTable,
    bind_params,
    catalog_map,
    sample_bindings,
)
from leibnizalg.exact import (
    NonInvertibleDenominator,
    NonRealValue,
    RatExpr,
    parse_expr,
)
from leibnizalg.fp import (
    CoverageReport,
    FpMatrix,
    RefusedSize,
    bind_family,
    chart_membership,
    compile_system,
    coverage,
    family_solution_set,
    lift_check,
    roundtrip_check,
    solution_indices,
    sweep_kernel,
    sweep_shard,
)
from leibnizalg.operators import (
    KIND_NAMES,
    OperatorFamily,
    load_families,
    make_kind,
    verify_family,
)


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


# ---------------------------------------------------------------------------
# FpMatrix

def test_fpmatrix_little_endian_layout():
    m = FpMatrix.from_index(1, 4, 2)
    assert m.entries[0][0] == 1
    assert sum(sum(row) for row in m.entries) == 1
    m = FpMatrix.from_index(2, 4, 2)
    assert m.entries[0][1] == 1
    # digit t = r*n + c: index p^4 flips entry (1, 0)
    m = FpMatrix.from_index(2 ** 4, 4, 2)
    assert m.entries[1][0] == 1


def test_fpmatrix_validation():
    with pytest.raises(ValueError):
        FpMatrix(4, ((0,),))          # not a prime
    with pytest.raises(ValueError):
        FpMatrix(2, ((0, 2), (0, 1)))  # entry out of range
    with pytest.raises(ValueError):
        FpMatrix(2, ((0, 1),))         # not square


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=3 ** 16 - 1),
       st.sampled_from([2, 3]))
def test_fpmatrix_index_roundtrip(m, p):
    m = m % p ** 16
    assert FpMatrix.from_index(m, 4, p).index() == m


# ---------------------------------------------------------------------------
# sweeping

def test_solution_set_contains_trivial_operators(cmap, l1_nij_solutions):
    sols = set(l1_nij_solutions.tolist())
    assert 0 in sols                                     # zero matrix
    ident = FpMatrix(2, tuple(tuple(int(r == c) for c in range(4))
                              for r in range(4)))
    assert ident.index() in sols                         # identity map
    # identity is not a weight-0 solution on L1
    rb = set(solution_indices(cmap["L1"], make_kind("rota-baxter"),
                              2).tolist())
    assert 0 in rb and ident.index() not in rb


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
    # a chunk that is not a multiple of 64 leaves the bitsliced kernels a
    # partial last word
    for path, chunk in (("compiled", 1 << 14), ("direct", 1000)):
        parts = [solution_indices(cmap["L1"], kind, 2, shard=s, path=path,
                                  chunk=chunk) for s in range(16)]
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
# bitsliced F_2 kernels against the integer kernels

@st.composite
def mod2_tables(draw):
    """A random table of 0/1 structure constants (not necessarily Leibniz:
    the kernels evaluate the operator identity for any bracket)."""
    n = draw(st.integers(min_value=2, max_value=4))
    bits = draw(st.lists(st.integers(0, 1), min_size=n ** 3,
                         max_size=n ** 3))
    c = [[[RatExpr.const(bits[(i * n + j) * n + k]) for k in range(n)]
          for j in range(n)] for i in range(n)]
    return AlgebraTable("random", n, c)


@st.composite
def kinds(draw):
    name = draw(st.sampled_from(KIND_NAMES))
    if name == "rota-baxter":
        return make_kind(name, draw(st.integers(-3, 3)))
    return make_kind(name)


def digit_blocks(n):
    """0/1 digit blocks whose length is rarely a multiple of 64, so the
    padding of the last plane word is exercised."""
    return arrays(np.uint8, st.tuples(st.integers(1, 300), st.just(n * n)),
                  elements=st.integers(0, 1))


@settings(max_examples=30, deadline=None)
@given(mod2_tables(), kinds(), st.data())
def test_bitsliced_compiled_kernel_matches_int_kernel(table, kind, data):
    cs = compile_system(table, kind, 2)
    digits = data.draw(digit_blocks(table.dim))
    assert (fp._compiled_mask_f2(cs, digits).tolist()
            == fp._compiled_mask_int(cs, digits.astype(np.int32)).tolist())


@settings(max_examples=100, deadline=None)
@given(mod2_tables(), kinds(), st.data())
def test_bitsliced_direct_kernel_matches_int_kernel(table, kind, data):
    n = table.dim
    cm = fp._table_mod_p(table, 2)
    digits = data.draw(digit_blocks(n))
    assert (fp._direct_mask_f2(cm, kind, digits, n).tolist()
            == fp._direct_mask_int(cm, kind, digits, 2, n).tolist())


def _int_kernel_sweep(table, kind):
    """Full p = 2 sweep by the integer kernels, block by block."""
    n = table.dim
    cs = compile_system(table, kind, 2)
    cm = fp._table_mod_p(table, 2)
    compiled, direct = [], []
    for start in range(0, 2 ** (n * n), 1 << 14):
        idx = np.arange(start, start + (1 << 14), dtype=np.int64)
        digits = ((idx[:, None] >> np.arange(n * n)) & 1).astype(np.int32)
        compiled.append(idx[fp._compiled_mask_int(cs, digits)])
        direct.append(idx[fp._direct_mask_int(cm, kind, digits, 2, n)])
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
# integer widths of the p > 2 kernels and field checks

@pytest.fixture
def no_sweep(monkeypatch):
    """Fail at once, instead of sweeping p^16 matrices, if a refusal that
    should come before the sweep does not."""
    def sweep_started(*args):
        raise AssertionError("the sweep started")
    monkeypatch.setattr(fp, "_digit_block", sweep_started)


def test_width_guard_refuses_overflowing_primes(cmap, no_sweep):
    p = 1009
    budget = p ** 16 + 1      # the budget alone would admit the sweep
    kind = make_kind("reynolds")
    with pytest.raises(RefusedSize, match="int32"):
        solution_indices(cmap["L1"], kind, p, budget=budget,
                         path="compiled")
    with pytest.raises(RefusedSize, match="int16"):
        solution_indices(cmap["L1"], kind, p, budget=budget, path="direct")


def test_compiled_width_guard_is_tight_and_sufficient(cmap, no_sweep):
    # on L1 reynolds the int32 bound falls between 673 and 677
    kind = make_kind("reynolds")
    with pytest.raises(RefusedSize, match="int32"):
        solution_indices(cmap["L1"], kind, 677, budget=677 ** 16,
                         path="compiled")
    cs = compile_system(cmap["L1"], kind, 673)
    assert cs.worst_intermediate() <= np.iinfo(np.int32).max
    wide = dataclasses.replace(cs, coeffs=cs.coeffs.astype(np.int64))
    rng = np.random.default_rng(0)
    digits = rng.integers(0, 673, size=(200, 16))
    digits[0] = 672                       # the worst case, every entry p - 1
    assert (fp._compiled_mask_int(cs, digits.astype(np.int32)).tolist()
            == fp._compiled_mask_int(wide, digits).tolist())


def test_direct_width_guard_is_tight_and_sufficient(cmap, no_sweep):
    kind = make_kind("nijenhuis")
    with pytest.raises(RefusedSize, match="int16"):
        solution_indices(cmap["L1"], kind, 17, budget=17 ** 16,
                         path="direct")
    assert fp._direct_worst(4, 13) <= np.iinfo(np.int16).max
    cm = fp._table_mod_p(cmap["L2"], 13)
    rng = np.random.default_rng(0)
    digits = rng.integers(0, 13, size=(200, 16))
    digits[0] = 12
    for name in KIND_NAMES:
        k = make_kind(name, 12) if name == "rota-baxter" else make_kind(name)
        assert (fp._direct_mask_int(cm, k, digits, 13, 4).tolist()
                == fp._direct_mask_int(cm.astype(np.int64), k, digits, 13,
                                       4).tolist())


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

def test_lift_check_confirms_solutions(cmap, l1_nij_solutions):
    out = lift_check(cmap["L1"], make_kind("nijenhuis"), 2,
                     l1_nij_solutions.tolist(), samples=40)
    assert out == {"ok": True, "checked": 40, "counterexample": None}


def test_lift_check_flags_non_solutions(cmap):
    ident = FpMatrix(2, tuple(tuple(int(r == c) for c in range(4))
                              for r in range(4))).index()
    out = lift_check(cmap["L1"], make_kind("rota-baxter"), 2, [ident])
    assert not out["ok"] and out["counterexample"] == ident


# ---------------------------------------------------------------------------
# chart membership

def test_membership_respects_fixed_zero_entries(cmap, family_index):
    # first chart keeps entry (1,1) at zero, so no point has it nonzero
    fam = family_index[("L1", "rota-baxter", 1)]
    assert fam.chart[0][0].is_zero
    m_bad = FpMatrix.from_index(1, 4, 2)     # lone 1 in entry (1,1)
    assert chart_membership(fam, m_bad) is False
    zero = FpMatrix.from_index(0, 4, 2)
    assert chart_membership(fam, zero) is True


def test_membership_enforces_denominator_constraint(cmap, family_index):
    # the third chart divides by r32, so over F_2 membership forces r32 = 1
    fam = family_index[("L1", "rota-baxter", 3)]
    assert any(str(c) == "r32" for c in fam.constraints)
    zero = FpMatrix.from_index(0, 4, 2)
    assert chart_membership(fam, zero) is False
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
    zero = FpMatrix.from_index(0, 4, 2)
    with pytest.raises(RefusedSize):
        chart_membership(fam, zero, budget=4)
    assert chart_membership(fam, zero, budget=8) is True


def test_membership_rejects_malformed_and_size_mismatch(family_index):
    fam = family_index[("L1", "rota-baxter", 5)]
    with pytest.raises(ValueError):
        chart_membership(fam, FpMatrix.from_index(0, 4, 2))
    good = family_index[("L1", "rota-baxter", 1)]
    with pytest.raises(ValueError):
        chart_membership(good, FpMatrix.from_index(0, 2, 2))


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


def test_coverage_is_order_invariant_and_deterministic(cmap, families):
    fams = _verified(cmap, families, "L17", "nijenhuis")
    kind = make_kind("nijenhuis")
    sols = solution_indices(cmap["L17"], kind, 2)
    a = coverage(cmap["L17"], kind, 2, fams, solutions=sols)
    b = coverage(cmap["L17"], kind, 2, fams[::-1], solutions=sols)
    assert a.covered == b.covered
    assert a.total_solutions == b.total_solutions
    assert {m.index() for m in a.uncovered} == {m.index() for m in b.uncovered}
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
    rep = coverage(table, kind, 2, fams, fixed={"mu": 0},
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
