"""Tests for structure-constant tables, residuals and the catalog."""

import hashlib
import json
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import leibnizalg
from leibnizalg.algebra import (
    AlgebraTable,
    CatalogError,
    ParamSpec,
    ResidualTensor,
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
    signed_sum,
)
from leibnizalg.compat import mixed_residual
from leibnizalg.exact import RE_ONE, RatExpr, Scalar, parse_expr
from leibnizalg.operators import KIND_NAMES, make_kind, operator_residual
import oracles
from oracles import dense, eager, sparse, vectors
from strategies import (
    ENTRY_TEXTS,
    EagerResidual,
    dims,
    sparse_tables,
    unit,
    walk_text,
)


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
        e1 = {0: RE_ONE}
        out = t.bracket(e1, e1)
        assert [str(x) for x in dense(out, 4)] == ["0", "1", "0", "0"]

    def test_bilinear(self, catalog):
        t = catalog["L17"]
        u = sparse([parse_expr(s) for s in ["2", "3", "0", "0"]])
        v = sparse([parse_expr(s) for s in ["1", "-1", "0", "0"]])
        out = t.bracket(u, v)
        # [2e1+3e2, e1-e2] = -2[e1,e2] + 3[e2,e1] = -2e3 + 3e4
        assert [str(x) for x in dense(out, 4)] == ["0", "0", "-2", "3"]


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


def dense_leibniz_residual(table):
    """Reference: the residual bracketing unit vectors over every triple."""
    n = table.dim

    def coords(i, j, k):
        t1 = oracles.bracket(table, unit(n, i), list(table.c[j][k]))
        t2 = oracles.bracket(table, list(table.c[i][j]), unit(n, k))
        t3 = oracles.bracket(table, list(table.c[i][k]), unit(n, j))
        return [t1[q] - t2[q] + t3[q] for q in range(n)]

    return EagerResidual(n, 3, coords)


class TestSparseContraction:
    @settings(max_examples=60, deadline=None)
    @given(dims.flatmap(sparse_tables), st.data())
    def test_unit_brackets_match_dense_bracket(self, table, data):
        n = table.dim
        a = data.draw(st.integers(min_value=0, max_value=n - 1))
        v = [parse_expr(text) for text in data.draw(
            st.lists(st.sampled_from(ENTRY_TEXTS + ("0", "0")),
                     min_size=n, max_size=n))]
        ea, sv = unit(n, a), sparse(v)
        for got, want in ((table.e_bracket(a, sv),
                           oracles.bracket(table, ea, v)),
                          (table.bracket_e(sv, a),
                           oracles.bracket(table, v, ea))):
            assert [str(x) for x in dense(got, n)] == [str(x) for x in want]
            assert all(not x.is_zero for x in got.values())

    @settings(max_examples=60, deadline=None)
    @given(dims.flatmap(sparse_tables))
    def test_leibniz_residual_matches_dense_oracle(self, table):
        res = leibniz_residual(table)
        want = dense_leibniz_residual(table)
        assert walk_text(res) == walk_text(want)
        assert res.is_zero == (want.first_failure() is None)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.tuples(st.booleans(), st.lists(
            st.sampled_from(ENTRY_TEXTS + ("0",) * 8),
            min_size=n, max_size=n).map(
                lambda texts: [parse_expr(t) for t in texts])),
        min_size=1, max_size=6)))
    def test_signed_sum_is_the_dense_sum(self, terms):
        # the dense t1 +- t2 +- ..., left to right, zero terms included
        n = len(terms[0][1])
        want = [RatExpr.const(0) + terms[0][1][q] if terms[0][0]
                else RatExpr.const(0) - terms[0][1][q] for q in range(n)]
        for plus, vec in terms[1:]:
            want = [d + x if plus else d - x for d, x in zip(want, vec)]
        got = signed_sum([(plus, sparse(vec)) for plus, vec in terms])
        assert [str(x) for x in dense(got, n)] == [str(x) for x in want] \
            == [str(x) for x in oracles.signed_sum(terms, n)]
        assert all(not x.is_zero for x in got.values())

    def test_unit_brackets_sum_in_ascending_index(self):
        # [e1, v] = [v, e1] = (v1 + v2 + v3) e1 with v over denominators
        # (d, d, e): summed backwards the unreduced text differs
        c = [[[RatExpr.const(0)] * 3 for _ in range(3)] for _ in range(3)]
        for b in range(3):
            c[0][b][0] = c[b][0][0] = RatExpr.const(1)
        table = AlgebraTable("sum", 3, c)
        v = [parse_expr(t) for t in ("1/(1-mu)", "mu/(1-mu)", "1/(1+mu)")]
        backwards = v[2] + v[1] + v[0]
        e1, sv = unit(3, 0), sparse(v)
        for got, want in ((table.e_bracket(0, sv),
                           oracles.bracket(table, e1, v)),
                          (table.bracket_e(sv, 0),
                           oracles.bracket(table, v, e1))):
            assert str(got[0]) == str(want[0]) \
                == "(2 + mu + mu^2)/(1 - mu^2)"
            assert got[0] == backwards and str(got[0]) != str(backwards)

    def test_catalog_residuals_match_dense_oracle(self, catalog):
        for t in catalog.values():
            assert walk_text(leibniz_residual(t)) \
                == walk_text(dense_leibniz_residual(t)), t.name

    def test_residual_is_zero_reads_every_coordinate(self):
        # the last coordinate alone is nonzero
        last = {1: parse_expr("1/(1-mu)")}
        res = ResidualTensor.tabulate(
            2, 3, lambda i, j, k: last if (i, j, k) == (1, 1, 1) else {})
        assert not res.is_zero
        assert res.first_failure()[:4] == (2, 2, 2, 2)


def _hit_text(hit):
    return None if hit is None else hit[:-1] + (str(hit[-1]),)


#: what a reader can ask of a residual, each as comparable text
QUERIES = {
    "first_failure": lambda r: _hit_text(r.first_failure()),
    "first_left": lambda r: _hit_text(r.first_failure("left")),
    "is_zero": lambda r: r.is_zero,
    "left": lambda r: r.holds("left"),
    "right": lambda r: r.holds("right"),
    "walk": walk_text,
}


def walk_text_lazy(residual):
    """walk_text as a generator, so that two walks can interleave."""
    for label, value in residual.walk():
        yield label, str(value)


@st.composite
def operator_matrices(draw, dim: int):
    """A dim x dim operator matrix, mostly zeros, so that its residual
    vanishes often enough."""
    pool = ("1", "-1", "2", "mu", "i") + ("0",) * 12
    return [[parse_expr(draw(st.sampled_from(pool))) for _ in range(dim)]
            for _ in range(dim)]


class TestEarlyStopping:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 3).flatmap(lambda n: st.tuples(
               sparse_tables(n, "A"), sparse_tables(n, "B"),
               operator_matrices(n))),
           st.sampled_from(KIND_NAMES), st.permutations(sorted(QUERIES)))
    def test_answers_match_the_eager_reference(self, drawn, kind_name,
                                               order):
        a, b, T = drawn
        kind = make_kind(kind_name)
        for residual, args in ((leibniz_residual, (a,)),
                               (mixed_residual, (a, b)),
                               (operator_residual, (a, kind, T))):
            want = eager(residual, *args)
            expected = {q: ask(want) for q, ask in QUERIES.items()}
            # each question first, on a tensor of its own
            for q, ask in QUERIES.items():
                assert ask(residual(*args)) == expected[q], q
            # every question of one tensor, in a drawn order
            res = residual(*args)
            assert {q: QUERIES[q](res) for q in order} == expected
            # two walks of one tensor, interleaved
            res = residual(*args)
            pairs = list(zip(walk_text_lazy(res), walk_text_lazy(res)))
            assert [x for x, _ in pairs] == [y for _, y in pairs] \
                == expected["walk"]

    def test_a_failing_residual_stops_at_its_first_nonzero_vector(self):
        # [e1, e1] = e2 and [e1, e2] = e3 fail at (1, 1, 1); the 63 later
        # vectors are left for a reader that walks on
        t = make_table("X", [(1, 1, 2, "1"), (1, 2, 3, "1")])
        calls = []
        original = AlgebraTable.e_bracket

        def counting(table, a, v):      # once per Leibniz vector
            calls.append(a)
            return original(table, a, v)

        with mock.patch.object(AlgebraTable, "e_bracket", counting):
            res = leibniz_residual(t)
            assert not res.is_zero
            assert res.first_failure()[:4] == (1, 1, 1, 3)
            assert len(calls) == 1
            assert len(vectors(res)) == 64 and len(calls) == 64
            assert len(list(res.walk())) == 256 and len(calls) == 64


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

    def test_catalog_series_keep_their_digest(self):
        # every catalog table at every sample binding, as one text
        lines = []
        for t in load_catalog():
            for b in sample_bindings(t):
                dims, nilpotent = lower_central_series(bind_params(t, b))
                where = sorted((k, str(v)) for k, v in b.items())
                lines.append(f"{t.name} {where} {dims} {nilpotent}")
        assert len(lines) == 30
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == (
            "19abf35f9316a65d415444b257acc1768b04e1c4359b2d3d6bb716d002c9150f")

    @settings(max_examples=60, deadline=None)
    @given(dims.flatmap(sparse_tables), st.sampled_from(("2", "1/3", "i")))
    def test_series_matches_the_dense_scalar_series(self, table, mu):
        bound = bind_params(table, {"mu": parse_expr(mu)})
        assert lower_central_series(bound) \
            == oracles.lower_central_series(bound)


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

    def test_only_entries_with_a_bound_name_are_substituted(self, catalog):
        t = catalog["L13"]
        two = {"mu": RatExpr.const(2)}
        bound = bind_params(t, two)
        for plane, bound_plane in zip(t.c, bound.c):
            for row, bound_row in zip(plane, bound_plane):
                for e, got in zip(row, bound_row):
                    if "mu" in e.params():
                        assert got == e.substitute(two)
                    else:
                        assert got is e

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
