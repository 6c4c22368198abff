"""Tests for bracket-pair compatibility and the catalog pair scan."""

import json

import pytest

from leibnizalg.algebra import (
    AlgebraTable,
    CatalogError,
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
