"""Tests for bracket-pair compatibility and the catalog pair scan."""

import json

import pytest
from hypothesis import given, settings, strategies as st

import leibnizalg.algebra as algebra
import leibnizalg.compat as compat
from leibnizalg.algebra import (
    AlgebraTable,
    CatalogError,
    ParamSpec,
    ResidualTensor,
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
from strategies import dims, sparse_tables, unit, walk_text


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
        base = leibniz_residual(table)
        n = table.dim
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for q in range(n):
                        lhs = mixed.entries[i, j, k][q]
                        rhs = RatExpr.const(2) * base.entries[i, j, k][q]
                        assert lhs == rhs
        assert mixed.is_zero    # catalog tables satisfy the Leibniz identity


def dense_mixed_residual(a, b):
    """Reference: the mixed residual bracketing unit vectors."""
    n = a.dim

    def coords(i, j, k):
        t1 = b.bracket(unit(n, i), list(a.c[j][k]))
        t2 = a.bracket(unit(n, i), list(b.c[j][k]))
        t3 = b.bracket(list(a.c[i][j]), unit(n, k))
        t4 = a.bracket(list(b.c[i][j]), unit(n, k))
        t5 = b.bracket(list(a.c[i][k]), unit(n, j))
        t6 = a.bracket(list(b.c[i][k]), unit(n, j))
        return [t1[q] + t2[q] - t3[q] - t4[q] + t5[q] + t6[q]
                for q in range(n)]

    return ResidualTensor.tabulate(n, 3, coords)


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
    ab = mixed_residual(a, b)
    ba = mixed_residual(b, a)
    n = a.dim
    assert all(ab.entries[i, j, k][q] == ba.entries[i, j, k][q]
               for i in range(n) for j in range(n)
               for k in range(n) for q in range(n))


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
    # each call renames a fresh copy of L4, a table of its own
    assert is_compatible(fresh["L4"], fresh["L4"])
    assert is_compatible(fresh["L4"], fresh["L4"])
    assert leibniz_calls == ["L1", "L3", "L4", "L4", "L4"]


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
    # 3 diagonal checks (L4 symbolic); L1-L3 once, at its one empty
    # binding; L1-L4 and L3-L4 at mu = 0 and 1, and only the passing
    # L3-L4 symbolically
    assert len(seen) == 3 + 1 + 2 + 3
    assert bound == 2 + 1 + 2 + 2
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


def test_scan_reports_per_value_exceptions_with_renamed_keys(cmap):
    # [e1, e1] = mu e2 shares L4's parameter name and is compatible with
    # L4 only where it vanishes
    c = [[[RE_ZERO] * 4 for _ in range(4)] for _ in range(4)]
    c[0][0][1] = RatExpr.var("mu")
    x = AlgebraTable("X", 4, c, [ParamSpec("mu", "C")])
    rep = compat_scan([cmap["L4"], x], claimed=[])
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


def test_lambda_samples_deterministic(cmap):
    a = lambda_sample_check(cmap["L5"], cmap["L7"], samples=10, seed=3)
    b = lambda_sample_check(cmap["L5"], cmap["L7"], samples=10, seed=3)
    assert a == b


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
