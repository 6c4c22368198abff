"""Tests for bracket-pair compatibility and the catalog pair scan."""

import json
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import leibnizalg.algebra as algebra
import leibnizalg.compat as compat
from leibnizalg.algebra import (
    AlgebraTable,
    CatalogError,
    ParamSpec,
    bind_params,
    catalog_map,
    combined_bracket,
    leibniz_residual,
)
from leibnizalg.compat import (
    PairReport,
    compat_scan,
    is_compatible,
    lambda_sample_check,
    load_claimed_pairs,
    mixed_residual,
    pair_witness,
    _disjoin_params,
)
from leibnizalg.exact import RE_ZERO, RatExpr
import oracles
from oracles import eager, vectors
from strategies import EagerResidual, dims, sparse_tables, unit, walk_text


@pytest.fixture(scope="module")
def cmap():
    return catalog_map()


def _abelian(n=4):
    zero = [[[RE_ZERO] * n for _ in range(n)] for _ in range(n)]
    return AlgebraTable("abelian", n, zero)


# ---------------------------------------------------------------------------
# mixed residual

def test_mixed_residual_of_equal_brackets_doubles_leibniz(cmap):
    for name in ("L1", "L4"):       # L4 keeps its parameter symbolic
        table = cmap[name]
        mixed = mixed_residual(table, table)
        lhs = vectors(mixed)
        rhs = vectors(leibniz_residual(table))
        assert len(lhs) == table.dim ** 3
        for index, vec in lhs.items():
            assert all(x == RatExpr.const(2) * y
                       for x, y in zip(vec, rhs[index], strict=True))
        assert mixed.is_zero    # catalog tables satisfy the Leibniz identity


def dense_mixed_residual(a, b):
    """Reference: the mixed residual bracketing unit vectors."""
    n = a.dim

    def coords(i, j, k):
        t1 = oracles.bracket(b, unit(n, i), list(a.c[j][k]))
        t2 = oracles.bracket(a, unit(n, i), list(b.c[j][k]))
        t3 = oracles.bracket(b, list(a.c[i][j]), unit(n, k))
        t4 = oracles.bracket(a, list(b.c[i][j]), unit(n, k))
        t5 = oracles.bracket(b, list(a.c[i][k]), unit(n, j))
        t6 = oracles.bracket(a, list(b.c[i][k]), unit(n, j))
        return [t1[q] + t2[q] - t3[q] - t4[q] + t5[q] + t6[q]
                for q in range(n)]

    return EagerResidual(n, 3, coords)


@settings(max_examples=60, deadline=None)
@given(dims.flatmap(lambda n: st.tuples(sparse_tables(n, "A"),
                                        sparse_tables(n, "B"))))
def test_mixed_residual_matches_dense_oracle(pair):
    a, b = pair
    res = mixed_residual(a, b)
    assert walk_text(res) == walk_text(dense_mixed_residual(a, b))
    assert res.is_zero == (res.first_failure() is None)


def test_catalog_mixed_residuals_match_dense_oracle(cmap):
    # L20 is the one table with a non-constant denominator
    for x, y in (("L20", "L4"), ("L4", "L20"), ("L20", "L20"), ("L4", "L9"),
                 ("L13", "L14"), ("L5", "L7")):
        a, b = cmap[x], _disjoin_params(cmap[x], cmap[y])[0]
        assert walk_text(mixed_residual(a, b)) \
            == walk_text(dense_mixed_residual(a, b)), (x, y)


def test_mixed_residual_against_abelian_vanishes(cmap):
    assert mixed_residual(cmap["L6"], _abelian()).is_zero
    assert is_compatible(cmap["L6"], _abelian())


def test_mixed_residual_dimension_mismatch():
    with pytest.raises(ValueError):
        mixed_residual(_abelian(4), _abelian(3))


def test_mixed_residual_symmetric_in_the_two_brackets(cmap):
    a, b = cmap["L5"], cmap["L7"]
    ab = vectors(mixed_residual(a, b))
    ba = vectors(mixed_residual(b, a))
    assert len(ab) == a.dim ** 3
    assert all(x == y for index, vec in ab.items()
               for x, y in zip(vec, ba[index], strict=True))


# ---------------------------------------------------------------------------
# is_compatible

def test_compatible_example_pair(cmap):
    assert is_compatible(cmap["L1"], cmap["L3"])
    assert pair_witness(cmap["L1"], cmap["L3"]) is None


def test_incompatible_pair_has_witness(cmap):
    assert not is_compatible(cmap["L4"], cmap["L9"])
    i, j, k, q, value = pair_witness(cmap["L4"], cmap["L9"])
    assert (i, j, k, q) == (1, 1, 1, 4)
    assert value == RatExpr.const(-1)
    # the (1,1) pencil violates the bracket identity at the same spot
    b2, _ = _disjoin_params(cmap["L4"], cmap["L9"])
    pencil = combined_bracket(cmap["L4"], b2, RatExpr.const(1),
                              RatExpr.const(1))
    hit = leibniz_residual(pencil).first_failure()
    assert hit[:4] == (1, 1, 1, 4)


def test_is_compatible_symmetric(cmap):
    for a, b in (("L1", "L3"), ("L4", "L9"), ("L5", "L7"), ("L2", "L3")):
        assert is_compatible(cmap[a], cmap[b]) == \
            is_compatible(cmap[b], cmap[a])


def test_shared_parameter_names_are_disjoined(cmap):
    a, b = cmap["L4"], cmap["L13"]      # both call their parameter mu
    b2, rename = _disjoin_params(a, b)
    assert rename == {"mu": "mu_b"}
    assert set(b2.param_names()) == {"mu_b"}
    assert is_compatible(a, b)          # claimed pair, symbolically in both


def test_diagonal_is_compatible(cmap):
    for name in ("L1", "L4", "L14", "L21"):
        assert is_compatible(cmap[name], cmap[name])


@pytest.fixture
def leibniz_calls(monkeypatch):
    """Names of the tables whose Leibniz residual is computed, in order."""
    computed = []
    original = algebra.leibniz_residual

    def counting(table):
        computed.append(table.name)
        return original(table)

    monkeypatch.setattr(algebra, "leibniz_residual", counting)
    return computed


def test_leibniz_cache_computes_each_table_once(leibniz_calls):
    fresh = catalog_map()           # no verdicts kept from earlier tests
    assert is_compatible(fresh["L1"], fresh["L3"])
    assert is_compatible(fresh["L3"], fresh["L1"])
    assert is_compatible(fresh["L1"], fresh["L1"])
    assert leibniz_calls == ["L1", "L3"]
    # the first call renames a copy of L4, a table of its own, kept on L4
    assert is_compatible(fresh["L4"], fresh["L4"])
    assert is_compatible(fresh["L4"], fresh["L4"])
    assert leibniz_calls == ["L1", "L3", "L4", "L4"]


def test_leibniz_cache_keeps_failing_verdicts(leibniz_calls):
    bad = AlgebraTable("bad", 4, [[[RatExpr.const(int(i == j == k == 0))
                                    for k in range(4)] for j in range(4)]
                                  for i in range(4)])
    good = catalog_map()["L1"]
    for _ in range(2):
        assert not is_compatible(bad, good)
        assert not is_compatible(good, bad)
    assert not bad.is_leibniz() and good.is_leibniz()
    assert leibniz_calls == ["bad", "L1"]


def test_scan_calls_is_compatible_through_the_module(cmap, monkeypatch):
    # per-layer tracing replaces the module global and reads the two
    # tables from the positional arguments
    seen = []
    original = compat.is_compatible

    def observed(*args, **kwargs):
        seen.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(compat, "is_compatible", observed)
    tables = [cmap[n] for n in ("L1", "L3", "L4")]
    rep = compat_scan(tables, claimed=[])
    assert all(len(args) == 2 for args in seen)
    bound = sum(1 for a, b in seen if a.is_bound() and b.is_bound())
    # 3 diagonal checks (L4 symbolic); every pair symbolically once (L1-L3
    # is bound); only the failing L1-L4 again at mu = 0 and 1, since the
    # symbolic pass of L3-L4 holds at every binding
    assert len(seen) == 3 + 3 + 2
    assert bound == 2 + 1 + 2
    assert rep.diagonal_compatible == ["L1", "L3", "L4"]
    assert rep.compatible == [("L1", "L3"), ("L3", "L4")]


def test_scan_binds_each_table_once_per_sample(monkeypatch):
    constant_binds = []
    original = compat.bind_params

    def observed(table, bindings):
        if not any(v.params() for v in bindings.values()):
            constant_binds.append((table.name, str(bindings)))
        return original(table, bindings)

    monkeypatch.setattr(compat, "bind_params", observed)
    rep = compat_scan(catalog_map().values(), claimed=[])
    # L4 at mu = 0, 1; L13, L14 at 0, 1, 2, 5; L20 at 0, 2, 5
    assert len(constant_binds) == 13
    assert len(set(constant_binds)) == 13
    assert len(rep.pairs_checked) == 210 and len(rep.compatible) == 59


def test_scan_renames_each_clashing_pair_once(monkeypatch):
    # all four parameterised tables call their parameter mu: each is
    # renamed apart from mu once, for its diagonal check and every pair it
    # is second in, whose checks, witness and pencils share the copy
    renames = []
    original = compat.bind_params

    def observed(table, bindings):
        if any(v.params() for v in bindings.values()):
            renames.append(table.name)
        return original(table, bindings)

    monkeypatch.setattr(compat, "bind_params", observed)
    fresh = catalog_map()
    rep = compat_scan([fresh[n] for n in ("L4", "L13", "L14", "L20")],
                      claimed=[], lambda_samples=3)
    assert sorted(renames) == ["L13", "L14", "L20", "L4"]
    assert rep.lambda_checks["pairs_checked"] == len(rep.compatible) > 0


def test_scan_computes_one_leibniz_residual_per_distinct_table(
        leibniz_calls):
    # the 4 tables, one renamed copy of each and the 13 sample bindings
    fresh = catalog_map()
    compat_scan([fresh[n] for n in ("L4", "L13", "L14", "L20")],
                claimed=[])
    assert len(leibniz_calls) == 4 + 4 + 13
    # a pair's verdict and witness outside a scan share one copy too
    a, b = fresh["L13"], fresh["L14"]
    assert _disjoin_params(a, b) is _disjoin_params(b, b)
    is_compatible(a, b)
    pair_witness(a, b)
    assert len(leibniz_calls) == 4 + 4 + 13


def _x_table():
    """[e1, e1] = mu e2: it shares L4's parameter name and is compatible
    with L4 only where it vanishes."""
    c = [[[RE_ZERO] * 4 for _ in range(4)] for _ in range(4)]
    c[0][0][1] = RatExpr.var("mu")
    return AlgebraTable("X", 4, c, [ParamSpec("mu", "C")])


def test_scan_reports_per_value_exceptions_with_renamed_keys(cmap):
    rep = compat_scan([cmap["L4"], _x_table()], claimed=[])
    assert rep.diagonal_compatible == ["L4", "X"]
    assert rep.compatible == []
    assert rep.failing == [{"pair": ["X", "L4"],
                            "witness": {"i": 1, "j": 1, "k": 1, "q": 4,
                                        "value": "mu*mu_b"}}]
    assert rep.per_value_exceptions == [
        {"pair": ["X", "L4"],
         "passing_bindings": [{"mu": "0", "mu_b": "0"},
                              {"mu": "1", "mu_b": "0"}]}]


# ---------------------------------------------------------------------------
# pencil sampling

def test_lambda_samples_pass_for_compatible_pair(cmap):
    out = lambda_sample_check(cmap["L1"], cmap["L3"], samples=50)
    assert out == {"samples": 50, "ok": True, "failures": []}


def test_lambda_samples_catch_incompatible_pair(cmap):
    out = lambda_sample_check(cmap["L5"], cmap["L7"], samples=50)
    assert not out["ok"]
    first = out["failures"][0]
    assert {"l1", "l2", "i", "j", "k", "q", "value"} <= set(first)


def test_generic_pencil_settles_every_sample(cmap, monkeypatch):
    pencils, residuals = [], []
    original_pencil = compat.combined_bracket
    original_residual = compat.leibniz_residual

    def pencil(a, b, l1, l2):
        pencils.append((l1, l2))
        return original_pencil(a, b, l1, l2)

    def residual(table):
        residuals.append(table.name)
        return original_residual(table)

    monkeypatch.setattr(compat, "combined_bracket", pencil)
    monkeypatch.setattr(compat, "leibniz_residual", residual)
    out = lambda_sample_check(cmap["L1"], cmap["L3"], samples=50)
    assert out == {"samples": 50, "ok": True, "failures": []}
    assert residuals == ["L1+L3"] and len(pencils) == 1
    # parameters named like the coefficients: the coefficients get names
    # of their own
    pencils.clear()
    a = bind_params(cmap["L4"], {"mu": RatExpr.var("l1")})
    b = bind_params(cmap["L13"], {"mu": RatExpr.var("l2")})
    assert lambda_sample_check(a, b, samples=3)["ok"]
    (l1, l2), = pencils
    names = l1.params() | l2.params()
    assert len(names) == 2 and not names & {"l1", "l2"}


def test_lambda_samples_deterministic(cmap):
    a = lambda_sample_check(cmap["L5"], cmap["L7"], samples=10, seed=3)
    b = lambda_sample_check(cmap["L5"], cmap["L7"], samples=10, seed=3)
    assert a == b


def per_sample_lambda_check(a, b, samples, seed):
    """Reference: every seeded pencil, summed at every position of the
    table and checked with every residual vector computed."""
    b2, _ = _disjoin_params(a, b)
    n = a.dim
    rng = random.Random(seed)
    failures = []
    for _ in range(samples):
        l1 = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        l2 = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        x, y = RatExpr.const(l1), RatExpr.const(l2)
        c = [[[x * a.c[i][j][k] + y * b2.c[i][j][k] for k in range(n)]
              for j in range(n)] for i in range(n)]
        hit = eager(leibniz_residual, AlgebraTable("pencil", n, c)) \
            .first_failure()
        if hit is not None:
            i, j, k, q, value = hit
            failures.append({"l1": str(l1), "l2": str(l2), "i": i, "j": j,
                             "k": k, "q": q, "value": str(value)})
    return {"samples": samples, "ok": not failures, "failures": failures}


CATALOG_NAMES = sorted(catalog_map(), key=algebra.algebra_sort_key)


@settings(max_examples=30, deadline=None)
@given(st.tuples(st.sampled_from(CATALOG_NAMES),
                 st.sampled_from(CATALOG_NAMES)),
       dims.flatmap(lambda n: st.tuples(sparse_tables(n, "A"),
                                        sparse_tables(n, "B"))),
       st.integers(-1, 6), st.integers(0, 3))
def test_lambda_sample_check_matches_the_per_sample_loop(cmap, names, drawn,
                                                         samples, seed):
    # catalog pairs, compatible or not, and random tables, which are
    # seldom Leibniz, so that the seeded samples run as well
    for a, b in ((cmap[names[0]], cmap[names[1]]), drawn):
        assert lambda_sample_check(a, b, samples=samples, seed=seed) \
            == per_sample_lambda_check(a, b, samples, seed)


# ---------------------------------------------------------------------------
# claimed pairs data

def test_claimed_pairs_shipped(cmap):
    pairs = load_claimed_pairs()
    assert len(pairs) == 50
    assert ("L1", "L3") in pairs
    assert ("L14", "L16") in pairs
    assert ("L12", "L23") in pairs      # names an algebra that does not exist
    names = set(cmap)
    assert sum(1 for a, b in pairs if a in names and b in names) == 49


def test_claimed_pairs_validation(tmp_path):
    p = tmp_path / "pairs.json"
    p.write_text(json.dumps({"pairs": []}))
    with pytest.raises(CatalogError):
        load_claimed_pairs(p)
    p.write_text(json.dumps([["L1"]]))
    with pytest.raises(CatalogError):
        load_claimed_pairs(p)


# ---------------------------------------------------------------------------
# scan

@pytest.fixture(scope="module")
def subset_report(cmap):
    tables = [cmap[n] for n in ("L1", "L2", "L3", "L4", "L9")]
    claimed = [("L1", "L3"), ("L4", "L9"), ("L12", "L23")]
    return compat_scan(tables, claimed=claimed, lambda_samples=5)


def test_scan_partitions_pairs(subset_report):
    rep = subset_report
    assert len(rep.pairs_checked) == 10
    failing_pairs = {tuple(r["pair"]) for r in rep.failing}
    assert set(rep.compatible) | failing_pairs == set(rep.pairs_checked)
    assert not set(rep.compatible) & failing_pairs
    assert rep.diagonal_compatible == rep.names


def test_scan_diffs_against_claims(subset_report):
    rep = subset_report
    assert ("L1", "L3") in rep.compatible
    assert rep.claimed_but_failing == [("L4", "L9")]
    assert rep.unmatchable_claims == [("L12", "L23")]
    assert ("L2", "L3") in rep.passing_but_unclaimed
    assert ("L1", "L3") not in rep.passing_but_unclaimed


def test_scan_failing_rows_carry_witnesses(subset_report):
    for row in subset_report.failing:
        assert row["witness"] is not None
        w = row["witness"]
        assert all(1 <= w[x] <= 4 for x in ("i", "j", "k", "q"))
        assert w["value"] != "0"


def test_scan_lambda_checks(subset_report):
    checks = subset_report.lambda_checks
    assert checks["samples"] == 5
    assert checks["pairs_checked"] == len(subset_report.compatible)
    assert checks["ok"] and checks["failures"] == []


def test_scan_report_serializes(subset_report):
    d = subset_report.as_dict()
    json.dumps(d)
    again = subset_report.as_dict()
    assert d == again
    assert d["note"]


def test_scan_no_per_value_exceptions_in_subset(subset_report):
    assert subset_report.per_value_exceptions == []


def per_binding_first_scan(tables, claimed, lambda_samples, seed, pool):
    """Reference: the scan checking every pair at every sample binding
    first and symbolically only when all of them pass, with pencils in
    name order."""
    tables = list(tables)
    names = [t.name for t in tables]
    diagonal = [t.name for t in tables if is_compatible(t, t)]
    pool = algebra.SAMPLE_POOL if pool is None else pool
    bound = [[(binding, algebra.bind_params(t, binding) if binding else t)
              for binding in algebra.sample_bindings(t, pool)]
             for t in tables]
    pairs_checked, compatible, failing, exceptions = [], [], [], []
    for (a, bound_a), (b, bound_b) in combinations(zip(tables, bound), 2):
        pair = compat._key(a.name, b.name)
        pairs_checked.append(pair)
        b2, rename = _disjoin_params(a, b)
        passing, all_pass = [], True
        for ba, av in bound_a:
            for bb, bv in bound_b:
                binding = {**ba, **{rename.get(k, k): v
                                    for k, v in bb.items()}}
                if is_compatible(av, bv):
                    passing.append({k: str(v) for k, v in binding.items()})
                else:
                    all_pass = False
        if all_pass and (a.is_bound() and b.is_bound()
                         or is_compatible(a, b2)):
            compatible.append(pair)
            continue
        failing.append({"pair": list(pair), "witness": algebra.witness_dict(
            pair_witness(a, b2))})
        if passing:
            exceptions.append({"pair": list(pair),
                               "passing_bindings": passing})
    known = set(names)
    claimed_keys = [compat._key(a, b) for a, b in claimed
                    if a in known and b in known]
    lambda_checks = None
    if lambda_samples > 0:
        by_name = {t.name: t for t in tables}
        results = []
        for a, b in compatible:
            out = lambda_sample_check(by_name[a], by_name[b],
                                      samples=lambda_samples, seed=seed)
            if not out["ok"]:
                results.append({"pair": [a, b], "failures": out["failures"]})
        lambda_checks = {"samples": lambda_samples,
                         "pairs_checked": len(compatible),
                         "ok": not results, "failures": results}
    return PairReport(
        names=names, pairs_checked=pairs_checked,
        diagonal_compatible=diagonal, compatible=compatible,
        failing=failing, per_value_exceptions=exceptions,
        claimed=list(claimed),
        claimed_but_failing=sorted(set(claimed_keys) - set(compatible)),
        passing_but_unclaimed=sorted(set(compatible) - set(claimed_keys)),
        unmatchable_claims=[(a, b) for a, b in claimed
                            if a not in known or b not in known],
        lambda_checks=lambda_checks)


PARAMETERISED = ("L4", "L13", "L14", "L20")


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(PARAMETERISED), min_size=1, max_size=3,
                unique=True),
       st.lists(st.sampled_from(("L1", "L3", "L5", "L9", "L16", "L21")),
                max_size=2, unique=True),
       st.booleans(), st.randoms(use_true_random=False),
       st.sampled_from((None, (Fraction(0), Fraction(1)),
                        (Fraction(1), Fraction(3), Fraction(-1)))),
       st.integers(0, 3))
def test_scan_matches_the_per_binding_first_schedule(
        parameterised, plain, with_x, rnd, pool, lambda_samples):
    # drawn subsets in a drawn order, so that a pair's scan order and its
    # name order differ; X adds per-value exceptions
    fresh = catalog_map()
    tables = [fresh[n] for n in parameterised + plain]
    if with_x:
        tables.append(_x_table())
    rnd.shuffle(tables)
    claimed = load_claimed_pairs() + [("X", "L4"), ("L1", "X")]
    got = compat_scan(tables, claimed=claimed, lambda_samples=lambda_samples,
                      seed=2, pool=pool)
    fresh = {t.name: t for t in catalog_map().values()}
    again = [fresh.get(t.name, t) for t in tables]
    assert got == per_binding_first_scan(again, claimed, lambda_samples, 2,
                                         pool)
