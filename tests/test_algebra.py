"""Tests for structure-constant tables, residuals and the catalog."""

import json

import pytest

import leibnizalg
from leibnizalg.algebra import (
    AlgebraTable,
    CatalogError,
    ParamSpec,
    bind_params,
    catalog_map,
    combined_bracket,
    echelon_basis,
    leibniz_residual,
    load_catalog,
    load_errata,
    lower_central_series,
    printed_variant,
    sample_bindings,
)
from leibnizalg.exact import RatExpr, Scalar, parse_expr


def make_table(name, entries, params=(), dim=4):
    c = [[[RatExpr.const(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j, k, text in entries:
        c[i - 1][j - 1][k - 1] = parse_expr(text)
    return AlgebraTable(name, dim, c, params)


@pytest.fixture(scope="module")
def catalog():
    return catalog_map()


class TestBracket:
    def test_filiform_products(self, catalog):
        t = catalog["L1"]
        e1 = [RatExpr.const(1)] + [RatExpr.const(0)] * 3
        out = t.bracket(e1, e1)
        assert [str(x) for x in out] == ["0", "1", "0", "0"]

    def test_bilinear(self, catalog):
        t = catalog["L17"]
        u = [parse_expr(s) for s in ["2", "3", "0", "0"]]
        v = [parse_expr(s) for s in ["1", "-1", "0", "0"]]
        out = t.bracket(u, v)
        # [2e1+3e2, e1-e2] = -2[e1,e2] + 3[e2,e1] = -2e3 + 3e4
        assert [str(x) for x in out] == ["0", "0", "-2", "3"]


class TestResidual:
    def test_catalog_tables_all_satisfy_identity(self, catalog):
        for t in catalog.values():
            assert leibniz_residual(t).is_zero, t.name

    def test_abelian_is_trivially_fine(self):
        t = make_table("abelian", [])
        assert leibniz_residual(t).is_zero

    def test_counterexample_fails(self):
        # [e1,e1] = e1 violates the identity: R(1,1,1) = [e1,e1] != 0
        t = make_table("bad", [[1, 1, 1, "1"]], dim=1)
        ff = leibniz_residual(t).first_failure()
        assert ff is not None
        assert ff[:4] == (1, 1, 1, 1)

    def test_printed_variant_of_l4_fails_at_recorded_triple(self, catalog):
        errata = {e["algebra"]: e for e in load_errata()}
        var = printed_variant(catalog["L4"], errata["L4"])
        ff = leibniz_residual(var).first_failure()
        assert ff is not None
        assert list(ff[:3]) == errata["L4"]["failing_triple"]


class TestLowerCentralSeries:
    def test_filiform_chain(self, catalog):
        dims, nilpotent = lower_central_series(catalog["L1"])
        assert dims == [4, 3, 2, 1, 0]
        assert nilpotent

    def test_two_step(self, catalog):
        t = bind_params(catalog["L13"], {"mu": RatExpr.const(2)})
        dims, nilpotent = lower_central_series(t)
        assert dims == [4, 2, 0]
        assert nilpotent

    def test_abelian(self):
        dims, nilpotent = lower_central_series(make_table("abelian", []))
        assert dims == [4, 0]
        assert nilpotent

    def test_non_nilpotent_stabilizes(self):
        t = make_table("solv", [[1, 1, 1, "1"]], dim=1)
        dims, nilpotent = lower_central_series(t)
        assert dims == [1, 1]
        assert not nilpotent

    def test_requires_bound_parameters(self, catalog):
        with pytest.raises(ValueError):
            lower_central_series(catalog["L4"])


class TestParams:
    def test_sample_filtering(self, catalog):
        assert [str(b["mu"]) for b in sample_bindings(catalog["L4"])] == ["0", "1"]
        assert len(sample_bindings(catalog["L13"])) == 4
        assert [str(b["mu"]) for b in sample_bindings(catalog["L20"])] == ["0", "2", "5"]

    def test_binding_outside_admissible_set_rejected(self, catalog):
        with pytest.raises(ValueError):
            bind_params(catalog["L4"], {"mu": RatExpr.const(7)})
        with pytest.raises(ValueError):
            bind_params(catalog["L20"], {"mu": RatExpr.const(1)})

    def test_rename(self, catalog):
        t = bind_params(catalog["L13"], {"mu": RatExpr.var("mu_b")})
        assert t.param_names() == ["mu_b"]
        assert t.c[1][0][2] == parse_expr("-mu_b")

    def test_unknown_param(self, catalog):
        with pytest.raises(ValueError):
            bind_params(catalog["L1"], {"mu": RatExpr.const(0)})


class TestCombinedBracket:
    def test_entries_combine(self, catalog):
        lam1, lam2 = RatExpr.var("lam1"), RatExpr.var("lam2")
        t = combined_bracket(catalog["L1"], catalog["L3"], lam1, lam2)
        assert t.c[0][0][1] == lam1          # e2 coefficient from L1 only
        assert t.c[0][0][2] == lam2          # e3 coefficient from L3 only
        assert t.c[2][0][3] == lam1 + lam2   # shared product

    def test_pencil_residual_expansion(self, catalog):
        # R(l1*A + l2*B) = l1^2 R(A) + l2^2 R(B) + l1*l2*M(A,B); with A, B
        # satisfying the identity the pencil residual is l1*l2*M(A,B).
        a, b = catalog["L1"], catalog["L3"]
        t = combined_bracket(a, b, RatExpr.var("l1"), RatExpr.var("l2"))
        res = leibniz_residual(t)
        assert res.is_zero  # this particular pair is compatible


class TestLinearAlgebra:
    def test_rank(self):
        rows = [
            [Scalar(1), Scalar(2)],
            [Scalar(2), Scalar(4)],
            [Scalar(0), Scalar(1)],
        ]
        assert len(echelon_basis(rows)) == 2

    def test_echelon_basis_spans(self):
        rows = [[Scalar(0, 1), Scalar(1)], [Scalar(1), Scalar(0)]]
        basis = echelon_basis(rows)
        assert len(basis) == 2


class TestCatalogLoading:
    def test_twenty_one_algebras(self):
        tables = load_catalog()
        assert len(tables) == 21
        assert [t.name for t in tables] == [f"L{n}" for n in range(1, 22)]
        assert all(t.dim == 4 for t in tables)

    def test_schema_error_pointer(self, tmp_path):
        bad = [{"name": "X", "dim": 4, "params": [],
                "entries": [[1, 1, 5, "1"]]}]
        p = tmp_path / "catalog.json"
        p.write_text(json.dumps(bad))
        with pytest.raises(CatalogError) as e:
            load_catalog(p)
        assert e.value.pointer == "/0/entries/0"

    def test_undeclared_parameter_rejected(self, tmp_path):
        bad = [{"name": "X", "dim": 2, "params": [],
                "entries": [[1, 1, 2, "mu"]]}]
        p = tmp_path / "catalog.json"
        p.write_text(json.dumps(bad))
        with pytest.raises(CatalogError) as e:
            load_catalog(p)
        assert "undeclared" in str(e.value)

    def test_duplicate_entry_rejected(self, tmp_path):
        bad = [{"name": "X", "dim": 2, "params": [],
                "entries": [[1, 1, 2, "1"], [1, 1, 2, "2"]]}]
        p = tmp_path / "catalog.json"
        p.write_text(json.dumps(bad))
        with pytest.raises(CatalogError):
            load_catalog(p)

    def test_empty_file_is_schema_error(self, tmp_path):
        p = tmp_path / "catalog.json"
        p.write_text("")
        with pytest.raises(CatalogError):
            load_catalog(p)

    def test_data_dir_env_override(self, tmp_path, monkeypatch):
        p = tmp_path / "catalog.json"
        p.write_text(json.dumps([{"name": "only", "dim": 1, "params": [],
                                  "entries": []}]))
        monkeypatch.setenv("LEIBNIZ_DATA_DIR", str(tmp_path))
        tables = load_catalog()
        assert [t.name for t in tables] == ["only"]


class TestParamSpec:
    def test_admissible_forms(self):
        assert ParamSpec("m", "C").allows(Scalar(0, 1))
        assert not ParamSpec("m", "C\\{1}").allows(Scalar(1))
        assert ParamSpec("m", "{0,1}").allows(Scalar(1))
        assert not ParamSpec("m", "{0,1}").allows(Scalar(2))

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            ParamSpec("m", "everything")._parsed()


def test_package_exports_resolve():
    for name in leibnizalg.__all__:
        assert hasattr(leibnizalg, name), name
