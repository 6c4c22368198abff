"""Tests for operator equation systems, family verification, and the audit."""

import json

import pytest
from hypothesis import given, settings, strategies as st

import leibnizalg.operators as operators
from leibnizalg.algebra import AlgebraTable, CatalogError, catalog_map
from leibnizalg.exact import (
    DenominatorVanishes,
    Poly,
    RatExpr,
    RE_ONE,
    RE_ZERO,
    parse_expr,
)
from leibnizalg.fp import compile_system
from leibnizalg.operators import (
    CLAIMED_DIM_RANGE,
    KIND_NAMES,
    OperatorFamily,
    audit_families,
    audit_summary,
    build_system,
    dimension_report,
    family_dimension,
    load_families,
    make_kind,
    operator_residual,
    unknown_matrix,
    verify_family,
)
import oracles
from oracles import vectors
from strategies import EagerResidual, dims, sparse_tables, unit, walk_text


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
def audit(cmap, families):
    return audit_families(cmap, families)


def _zero_matrix(n):
    return [[RE_ZERO] * n for _ in range(n)]


def _identity_matrix(n):
    return [[RE_ONE if r == c else RE_ZERO for c in range(n)] for r in range(n)]


def _scale_matrix(m, c):
    return [[c * e for e in row] for row in m]


def _all_kinds():
    return [make_kind(k) for k in KIND_NAMES]


# ---------------------------------------------------------------------------
# make_kind

def test_make_kind_rejects_unknown_name():
    with pytest.raises(ValueError):
        make_kind("baxter-rota")


def test_make_kind_weight_only_for_rota_baxter():
    for name in ("nijenhuis", "reynolds", "averaging"):
        with pytest.raises(ValueError):
            make_kind(name, "1")
    assert make_kind("nijenhuis").weight is None


def test_make_kind_default_weight_is_zero():
    kind = make_kind("rota-baxter")
    assert kind.weight == RE_ZERO
    assert make_kind("rota-baxter", "-1").weight == RatExpr.const(-1)
    assert make_kind("rota-baxter", RatExpr.var("w")).weight == RatExpr.var("w")


# ---------------------------------------------------------------------------
# trivial operators

def test_zero_map_satisfies_every_kind_everywhere(cmap):
    for table in cmap.values():
        z = _zero_matrix(table.dim)
        for kind in _all_kinds():
            assert operator_residual(table, kind, z).is_zero, \
                f"zero map fails {kind.name} on {table.name}"


def test_identity_satisfies_nijenhuis_reynolds_and_weight_minus_one(cmap):
    kinds = [make_kind("nijenhuis"), make_kind("reynolds"),
             make_kind("rota-baxter", "-1")]
    for table in cmap.values():
        ident = _identity_matrix(table.dim)
        for kind in kinds:
            assert operator_residual(table, kind, ident).is_zero, \
                f"identity fails {kind.name} on {table.name}"


def test_identity_fails_weight_zero_on_l1_with_first_witness(cmap):
    table = cmap["L1"]
    res = operator_residual(table, make_kind("rota-baxter"), _identity_matrix(4))
    hit = res.first_failure()
    assert hit is not None
    i, j, q, cond, value = hit
    # [e1,e1] = e2 while T(2[e1,e1]) = 2 e2, so the residual at (1,1) is -e2.
    assert (i, j, q, cond) == (1, 1, 2, "")
    assert value == RatExpr.const(-1)


def test_identity_satisfies_averaging_everywhere(cmap):
    # with T = id both one-sided identities collapse to [x,y] = [x,y]
    for table in cmap.values():
        res = operator_residual(table, make_kind("averaging"),
                                _identity_matrix(table.dim))
        assert res.is_zero, table.name


# ---------------------------------------------------------------------------
# equation systems

def test_build_system_shape_and_labels(cmap):
    table = cmap["L1"]
    sys = build_system(table, make_kind("rota-baxter"))
    assert sys.unknowns == tuple(f"r{r}{c}" for r in range(1, 5)
                                 for c in range(1, 5))
    assert len(sys.equations) == 4 ** 3
    assert len(sys.labels) == len(sys.equations) == len(sys.denominators)
    assert sys.labels[0] == (1, 1, 1, "")
    assert sys.labels[-1] == (4, 4, 4, "")
    # averaging keeps both one-sided conditions, doubling the system
    asys = build_system(table, make_kind("averaging"))
    assert len(asys.equations) == 2 * 4 ** 3
    conds = {lab[3] for lab in asys.labels}
    assert conds == {"left", "right"}
    assert asys.unknowns[0] == "b11"


def test_unknown_letters_per_kind():
    for kname, letter in (("rota-baxter", "r"), ("nijenhuis", "k"),
                          ("reynolds", "a"), ("averaging", "b")):
        m = unknown_matrix(4, kname)
        assert str(m[0][0]) == f"{letter}11"
        assert str(m[2][1]) == f"{letter}32"


def test_unknown_names_stay_distinct_from_dimension_ten(cmap):
    for kname in KIND_NAMES:
        names = {str(x) for row in unknown_matrix(11, kname) for x in row}
        assert len(names) == 121
    m = unknown_matrix(11, "nijenhuis")
    assert (str(m[0][10]), str(m[10][0])) == ("k1_11", "k11_1")
    assert str(unknown_matrix(9, "reynolds")[8][8]) == "a99"
    # up to dimension 9 the names, and so every printed system, are as
    # they were
    sys = build_system(cmap["L2"], make_kind("nijenhuis"))
    assert sys.unknowns == tuple(f"k{r}{c}" for r in range(1, 5)
                                 for c in range(1, 5))
    # [e1, e1] = e2 in dimension 11: every entry is its own unknown, so
    # the compiled system touches all 121 flat positions
    n = 11
    c = [[[RE_ZERO] * n for _ in range(n)] for _ in range(n)]
    c[0][0][1] = RatExpr.const(1)
    cs = compile_system(AlgebraTable("D11", n, c), make_kind("nijenhuis"), 2)
    assert {pos for mono in cs.monos for pos, _ in mono} == set(range(121))


def test_degree_bounds_over_whole_catalog(cmap):
    # Quadratic conditions stay quadratic in the unknowns; the Reynolds
    # condition contains T applied to [Tx,Ty] and reaches degree 3.  These
    # are the exact maxima over the full catalog.
    expected_max = {"rota-baxter": 2, "nijenhuis": 2,
                    "reynolds": 3, "averaging": 2}
    seen = {k: 0 for k in KIND_NAMES}
    for table in cmap.values():
        for kname in KIND_NAMES:
            deg = build_system(table, make_kind(kname)).max_degree()
            assert deg <= expected_max[kname], (table.name, kname, deg)
            seen[kname] = max(seen[kname], deg)
    assert seen == expected_max


def test_symbolic_weight_stays_quadratic_in_unknowns(cmap):
    kind = make_kind("rota-baxter", RatExpr.var("w"))
    sys = build_system(cmap["L6"], kind)
    assert sys.max_degree() == 2


def test_system_substitution_matches_direct_residual(cmap):
    # Evaluating the symbolic system at a concrete matrix must agree with
    # computing the residual of that matrix directly.
    chart = [[parse_expr(x) for x in row] for row in [
        ["1", "0", "t", "0"],
        ["2", "t", "0", "0"],
        ["0", "1", "t+1", "0"],
        ["1/2", "0", "0", "t"],
    ]]
    for name in ("L1", "L20"):          # L20 keeps a symbolic table parameter
        table = cmap[name]
        for kname in KIND_NAMES:
            kind = make_kind(kname)
            sys = build_system(table, kind)
            binding = {f"{sys.unknowns[0][0]}{r}{c}": chart[r - 1][c - 1]
                       for r in range(1, 5) for c in range(1, 5)}
            res = vectors(operator_residual(table, kind, chart))
            for eq, den, (i, j, q, cond) in zip(sys.equations,
                                                sys.denominators, sys.labels):
                direct = res[i - 1, j - 1]
                t = q - 1 if cond in ("", "left") else 4 + q - 1
                assert RatExpr(eq, den).substitute(binding) == direct[t], \
                    (name, kname, i, j, q, cond)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=-2, max_value=2),
                min_size=16, max_size=16))
def test_system_substitution_matches_direct_residual_random(entries):
    table = catalog_map()["L6"]
    chart = [[RatExpr.const(entries[4 * r + c]) for c in range(4)]
             for r in range(4)]
    kind = make_kind("nijenhuis")
    sys = build_system(table, kind)
    binding = {f"k{r}{c}": chart[r - 1][c - 1]
               for r in range(1, 5) for c in range(1, 5)}
    res = vectors(operator_residual(table, kind, chart))
    for eq, den, (i, j, q, cond) in zip(sys.equations, sys.denominators,
                                        sys.labels):
        assert RatExpr(eq, den).substitute(binding) \
            == res[i - 1, j - 1][q - 1]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(KIND_NAMES),
       st.lists(st.integers(min_value=-2, max_value=2),
                min_size=16, max_size=16))
def test_first_failing_equation_has_the_first_failure_label(kind_name,
                                                             entries):
    # build_system and first_failure read one labelled walk of the residual
    table = catalog_map()["L1"]
    kind = make_kind(kind_name)
    sys = build_system(table, kind)
    values = [RatExpr.const(x) for x in entries]
    binding = dict(zip(sys.unknowns, values))
    first = next((label for eq, den, label in zip(
                      sys.equations, sys.denominators, sys.labels)
                  if not RatExpr(eq, den).substitute(binding).is_zero), None)
    T = [values[4 * r:4 * r + 4] for r in range(4)]
    hit = operator_residual(table, kind, T).first_failure()
    assert first == (None if hit is None else hit[:-1])


def test_rota_baxter_scaling_identity(cmap):
    # Scaling T by c and the weight by c multiplies the residual by c^2,
    # so solutions of weight w scale to solutions of weight c*w.
    table = cmap["L6"]
    T = unknown_matrix(4, "rota-baxter")
    w, c = RatExpr.var("w"), RatExpr.var("c")
    base = vectors(operator_residual(table, make_kind("rota-baxter", w), T))
    scaled = vectors(operator_residual(
        table, make_kind("rota-baxter", c * w), _scale_matrix(T, c)))
    c2 = c * c
    for i in range(4):
        for j in range(4):
            for q in range(4):
                assert scaled[i, j][q] == c2 * base[i, j][q]


def test_nijenhuis_shift_by_identity_preserves_residual(cmap):
    # Adding c*Id to T leaves the Nijenhuis residual unchanged entrywise.
    table = cmap["L2"]
    T = unknown_matrix(4, "nijenhuis")
    c = RatExpr.var("c")
    shifted = [[T[r][s] + c if r == s else T[r][s] for s in range(4)]
               for r in range(4)]
    kind = make_kind("nijenhuis")
    base = vectors(operator_residual(table, kind, T))
    moved = vectors(operator_residual(table, kind, shifted))
    for i in range(4):
        for j in range(4):
            for q in range(4):
                assert moved[i, j][q] == base[i, j][q]


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=-3, max_value=3),
                min_size=16, max_size=16),
       st.integers(min_value=-3, max_value=3),
       st.integers(min_value=-3, max_value=3))
def test_rota_baxter_scaling_identity_random(entries, cval, wval):
    table = catalog_map()["L3"]
    T = [[RatExpr.const(entries[4 * r + s]) for s in range(4)]
         for r in range(4)]
    c, w = RatExpr.const(cval), RatExpr.const(wval)
    base = vectors(operator_residual(table, make_kind("rota-baxter", w), T))
    scaled = vectors(operator_residual(
        table, make_kind("rota-baxter", c * w), _scale_matrix(T, c)))
    c2 = c * c
    assert all(scaled[i, j][q] == c2 * base[i, j][q]
               for i in range(4) for j in range(4) for q in range(4))


# ---------------------------------------------------------------------------
# the residual against a dense reference

def dense_operator_residual(table, kind, T):
    """Reference: the operator residual bracketing unit vectors."""
    n = table.dim
    cols = [[T[r][c] for r in range(n)] for c in range(n)]

    def apply_t(vec):
        out = []
        for q in range(n):
            s = RE_ZERO
            for k in range(n):
                if not vec[k].is_zero and not T[q][k].is_zero:
                    s = s + T[q][k] * vec[k]
            out.append(s)
        return out

    def coords(i, j):
        ti, tj = cols[i], cols[j]
        btt = oracles.bracket(table, ti, tj)
        bte = oracles.bracket(table, ti, unit(n, j))
        bet = oracles.bracket(table, unit(n, i), tj)
        if kind.name == "rota-baxter":
            bee = list(table.c[i][j])
            inner = [bte[q] + bet[q] + kind.weight * bee[q] for q in range(n)]
        elif kind.name == "nijenhuis":
            tb = apply_t(list(table.c[i][j]))
            inner = [bte[q] + bet[q] - tb[q] for q in range(n)]
        elif kind.name == "reynolds":
            inner = [bet[q] + bte[q] - btt[q] for q in range(n)]
        else:
            left = apply_t(bte)
            right = apply_t(bet)
            return ([btt[q] - left[q] for q in range(n)]
                    + [btt[q] - right[q] for q in range(n)])
        out = apply_t(inner)
        return [btt[q] - out[q] for q in range(n)]

    conditions = ("left", "right") if kind.name == "averaging" else ("",)
    return EagerResidual(n, 2, coords, conditions)


OPERATOR_ENTRIES = ("0",) * 8 + ("1", "-2", "1/2", "i", "t", "s + 1",
                                 "1/(1 - mu)", "mu/(1 - mu)", "1/(1 + mu)")
KINDS_WITH_WEIGHTS = [make_kind(k) for k in KIND_NAMES] + [
    make_kind("rota-baxter", "1/2"),
    make_kind("rota-baxter", RatExpr.var("w")),
]


@settings(max_examples=40, deadline=None)
@given(dims.flatmap(sparse_tables), st.sampled_from(KINDS_WITH_WEIGHTS),
       st.data())
def test_operator_residual_matches_dense_oracle(table, kind, data):
    n = table.dim
    T = [[parse_expr(data.draw(st.sampled_from(OPERATOR_ENTRIES)))
          for _ in range(n)] for _ in range(n)]
    res = operator_residual(table, kind, T)
    dense = dense_operator_residual(table, kind, T)
    assert walk_text(res) == walk_text(dense)
    assert res.conditions == dense.conditions


def test_catalog_operator_residuals_match_dense_oracle(cmap, families):
    # every chart of every kind, the 17 with a non-constant denominator and
    # L20's (1 + mu)/(1 - mu) among them, rota-baxter charts at three
    # weights, and the unknown matrices of L4 and L20
    checked = set()
    for fam in families:
        if fam.malformed:
            continue
        table = cmap[fam.algebra]
        for kind in KINDS_WITH_WEIGHTS:
            if kind.name == fam.kind:
                res = operator_residual(table, kind, fam.chart)
                assert walk_text(res) == walk_text(
                    dense_operator_residual(table, kind, fam.chart)), \
                    fam.label()
                checked.add(fam.label())
    assert len(checked) == 348
    for name in ("L4", "L20"):
        for kind in KINDS_WITH_WEIGHTS:
            T = unknown_matrix(4, kind.name)
            assert walk_text(operator_residual(cmap[name], kind, T)) \
                == walk_text(dense_operator_residual(cmap[name], kind, T))


@settings(max_examples=30, deadline=None)
@given(dims.flatmap(sparse_tables), st.sampled_from(KINDS_WITH_WEIGHTS),
       st.data())
def test_operator_residual_with_zero_rows_and_columns(table, kind, data):
    # apply_t walks T's nonzero entries per row: whole rows and columns
    # of zeros, and at times the zero matrix, against the dense oracle
    n = table.dim
    zero_rows = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    zero_cols = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    T = [[RE_ZERO if r in zero_rows or c in zero_cols
          else parse_expr(data.draw(st.sampled_from(OPERATOR_ENTRIES[8:])))
          for c in range(n)] for r in range(n)]
    assert walk_text(operator_residual(table, kind, T)) \
        == walk_text(dense_operator_residual(table, kind, T))


# ---------------------------------------------------------------------------
# residual bookkeeping on a small handmade table

def _two_dim_table():
    # [e1,e1] = e2 and [e2,e1] = e2; satisfies the right Leibniz identity.
    c = [[[RE_ZERO, RE_ZERO] for _ in range(2)] for _ in range(2)]
    c[0][0][1] = RE_ONE
    c[1][0][1] = RE_ONE
    return AlgebraTable("demo", 2, c)


def test_two_dim_table_is_right_leibniz():
    from leibnizalg.algebra import leibniz_residual
    assert leibniz_residual(_two_dim_table()).is_zero


def test_family_dimension_comes_from_the_chart(tmp_path):
    # scalar multiples of the identity are Nijenhuis on any algebra
    obj = _family_json(algebra="demo", chart=[["k11", "0"], ["0", "k11"]])
    p = tmp_path / "nijenhuis.json"
    p.write_text(json.dumps(obj))
    fam, = load_families("nijenhuis", p)
    assert len(fam.chart) == 2
    assert verify_family(_two_dim_table(), fam).holds


def test_load_families_rejects_ragged_chart(tmp_path):
    p = tmp_path / "nijenhuis.json"
    p.write_text(json.dumps(_family_json(chart=[["k11", "0"], ["0"]])))
    with pytest.raises(CatalogError):
        load_families("nijenhuis", p)


def test_averaging_conditions_reported_separately():
    # T = E22 satisfies the right-sided identity but breaks the left-sided
    # one at (2,1): [Te2,Te1] = 0 while T[Te2,e1] = T(e2) = e2.
    table = _two_dim_table()
    T = [[RE_ZERO, RE_ZERO], [RE_ZERO, RE_ONE]]
    res = operator_residual(table, make_kind("averaging"), T)
    assert all(len(vec) == 4 for vec in vectors(res).values())
    hit = res.first_failure()
    assert hit is not None
    i, j, q, cond, value = hit
    assert (i, j, q, cond) == (2, 1, 2, "left")
    assert value == RatExpr.const(-1)
    fam = OperatorFamily("demo", "averaging", 1,
                         [[RE_ZERO, RE_ZERO], [RE_ZERO, RE_ONE]], (), (), False)
    verdict = verify_family(table, fam)
    assert not verdict.holds
    assert verdict.left is False and verdict.right is True


# ---------------------------------------------------------------------------
# transcribed families: loading and validation

def test_corpus_counts_per_kind(families):
    counts = {}
    malformed = {}
    for f in families:
        counts[f.kind] = counts.get(f.kind, 0) + 1
        if f.malformed:
            malformed[f.kind] = malformed.get(f.kind, 0) + 1
    assert counts == {"rota-baxter": 109, "nijenhuis": 76,
                      "reynolds": 90, "averaging": 82}
    assert sum(counts.values()) == 357
    assert malformed == {"rota-baxter": 8, "averaging": 1}


def test_malformed_families_keep_raw_rows(families):
    for f in families:
        if f.malformed:
            assert f.chart is None
            assert f.raw_rows, f.label()
            assert f.note, f.label()


def test_family_indices_unique_and_contiguous(families):
    seen = {}
    for f in families:
        seen.setdefault((f.algebra, f.kind), []).append(f.index)
    for key, idxs in seen.items():
        assert sorted(idxs) == list(range(1, len(idxs) + 1)), key


def test_rota_baxter_families_carry_weight_zero(families):
    for f in families:
        if f.kind == "rota-baxter":
            assert f.weight == "0", f.label()
        else:
            assert f.weight is None, f.label()


def test_free_lists_match_chart_parameters(families):
    for f in families:
        if f.malformed:
            continue
        occurring = set()
        for row in f.chart:
            for e in row:
                occurring |= e.params()
        assert occurring <= set(f.free), f.label()


def _family_json(**over):
    obj = {
        "algebra": "L1", "kind": "nijenhuis", "index": 1,
        "chart": [["k11", "0", "0", "0"]] + [["0"] * 4] * 3,
        "free": ["k11"], "constraints": [],
    }
    obj.update(over)
    return [obj]


def test_load_families_rejects_stray_parameters(tmp_path):
    p = tmp_path / "nijenhuis.json"
    p.write_text(json.dumps(_family_json(free=[])))
    with pytest.raises(CatalogError) as err:
        load_families("nijenhuis", p)
    assert "k11" in str(err.value)


def test_load_families_rejects_uncovered_denominator(tmp_path):
    p = tmp_path / "nijenhuis.json"
    chart = [["1/k22", "0", "0", "0"], ["0", "k22", "0", "0"],
             ["0"] * 4, ["0"] * 4]
    p.write_text(json.dumps(_family_json(chart=chart, free=["k22"])))
    with pytest.raises(CatalogError) as err:
        load_families("nijenhuis", p)
    assert "denominator" in str(err.value)
    # listing the denominator as a constraint fixes it
    p.write_text(json.dumps(_family_json(chart=chart, free=["k22"],
                                         constraints=["k22"])))
    fams = load_families("nijenhuis", p)
    assert len(fams) == 1 and not fams[0].malformed


def test_load_families_accepts_scaled_constraint(tmp_path):
    # a constraint that is a nonzero scalar multiple of the denominator counts
    p = tmp_path / "reynolds.json"
    chart = [["a21/(2*a11+2*a22)", "0", "0", "0"],
             ["a21", "0", "0", "0"], ["0"] * 4, ["0"] * 4]
    obj = _family_json(kind="reynolds", chart=chart,
                       free=["a11", "a21", "a22"],
                       constraints=["a11+a22"])
    p.write_text(json.dumps(obj))
    fams = load_families("reynolds", p)
    assert fams[0].constraints[0] == parse_expr("a11+a22")


def test_load_families_rejects_bad_shape(tmp_path):
    p = tmp_path / "averaging.json"
    p.write_text(json.dumps(_family_json(kind="averaging",
                                         chart=[["0"] * 4] * 3, free=[])))
    with pytest.raises(CatalogError):
        load_families("averaging", p)


def test_load_families_rejects_unparsable_entry(tmp_path):
    p = tmp_path / "nijenhuis.json"
    bad = [["k11", "0", "0", "0"], ["0", "k11+", "0", "0"],
           ["0"] * 4, ["0"] * 4]
    p.write_text(json.dumps(_family_json(chart=bad, free=["k11"])))
    with pytest.raises(CatalogError):
        load_families("nijenhuis", p)


def _texts(fam_obj):
    """Every expression text of a family object with its JSON pointer."""
    for r, row in enumerate(fam_obj.get("chart", [])):
        for c, text in enumerate(row):
            yield f"chart/{r}/{c}", text
    for s, text in enumerate(fam_obj.get("constraints", [])):
        yield f"constraints/{s}", text


def _exprs(fams):
    for f in fams:
        if not f.malformed:
            yield from (e for row in f.chart for e in row)
            yield from f.constraints


@pytest.mark.parametrize("kind_name", KIND_NAMES)
def test_loaded_expressions_print_as_their_own_parse(kind_name):
    # each distinct text is parsed once per load and shared; every entry
    # and constraint still prints as a parse of that entry on its own
    fams = load_families(kind_name)
    fname = kind_name.replace("-", "_") + ".json"
    raw = json.loads((operators.data_dir() / "families" / fname).read_text())
    assert len(raw) == len(fams)
    for obj, fam in zip(raw, fams):
        if fam.malformed:
            continue
        got = {f"chart/{r}/{c}": e for r, row in enumerate(fam.chart)
               for c, e in enumerate(row)}
        got.update((f"constraints/{s}", e)
                   for s, e in enumerate(fam.constraints))
        want = dict(_texts(obj))
        assert got.keys() == want.keys()
        for where, text in want.items():
            e, again = got[where], parse_expr(text)
            assert str(e) == str(again), (fam.label(), where)
            assert (e.den is RE_ONE.den) == (again.den is RE_ONE.den)


def test_two_loads_share_no_expression():
    first = [f for k in KIND_NAMES for f in load_families(k)]
    second = [f for k in KIND_NAMES for f in load_families(k)]
    ids = {id(e) for e in _exprs(first)}
    assert ids and ids.isdisjoint(id(e) for e in _exprs(second))


def test_a_bad_text_raises_at_its_own_pointer(tmp_path):
    # the bad text follows good copies of its neighbours, and repeats
    p = tmp_path / "nijenhuis.json"
    good = _family_json()[0]
    bad_chart = [["k11", "0", "0", "0"], ["0", "0", "k11+", "0"],
                 ["0", "k11+", "0", "0"], ["0"] * 4]
    p.write_text(json.dumps([good, dict(good, index=2, chart=bad_chart)]))
    with pytest.raises(CatalogError) as err:
        load_families("nijenhuis", p)
    assert err.value.pointer == "/1/chart/1/2"
    p.write_text(json.dumps([good, dict(good, index=2,
                                        constraints=["k11", "k11 *"])]))
    with pytest.raises(CatalogError) as err:
        load_families("nijenhuis", p)
    assert err.value.pointer == "/1/constraints/1"


# ---------------------------------------------------------------------------
# family dimension

def test_family_dimension_counts_occurring_parameters(family_index):
    assert family_dimension(family_index[("L1", "rota-baxter", 1)]) == 6
    assert family_dimension(family_index[("L6", "nijenhuis", 1)]) == 7


def test_family_dimension_zero_chart():
    fam = OperatorFamily("L1", "reynolds", 99, _zero_matrix(4), (), (), False)
    assert family_dimension(fam) == 0


def test_family_dimension_malformed_raises(family_index):
    fam = family_index[("L1", "rota-baxter", 5)]
    assert fam.malformed
    with pytest.raises(ValueError):
        family_dimension(fam)


def test_family_dimension_is_counted_once(family_index, monkeypatch):
    fam = family_index[("L6", "nijenhuis", 1)]
    assert family_dimension(fam) == 7

    def counted_again(self):
        raise AssertionError("the chart's parameters were collected again")
    monkeypatch.setattr(RatExpr, "params", counted_again)
    assert family_dimension(fam) == 7


def test_verify_family_parses_each_weight_text_once(cmap, monkeypatch):
    parsed = []

    def counting(text):
        parsed.append(text)
        return parse_expr(text)
    monkeypatch.setattr(operators, "parse_expr", counting)
    operators._family_kind.cache_clear()
    fams = [f for f in load_families("rota-baxter")
            if f.algebra == "L1" and not f.malformed]
    parsed.clear()
    verdicts = [verify_family(cmap["L1"], f).holds for f in fams * 2]
    assert parsed == ["0"]
    assert verdicts == verdicts[:len(fams)] * 2


# ---------------------------------------------------------------------------
# verify_family

def test_verify_family_guards(cmap, family_index):
    fam = family_index[("L1", "rota-baxter", 5)]       # malformed
    with pytest.raises(ValueError):
        verify_family(cmap["L1"], fam)
    good = family_index[("L1", "rota-baxter", 1)]
    with pytest.raises(ValueError):
        verify_family(cmap["L2"], good)                # wrong algebra


def test_verify_family_zero_constraint_raises(cmap):
    fam = OperatorFamily("L1", "nijenhuis", 99, _zero_matrix(4), (),
                         (RE_ZERO,), False)
    with pytest.raises(DenominatorVanishes):
        verify_family(cmap["L1"], fam)


def test_verify_family_holds_example(cmap, family_index):
    verdict = verify_family(cmap["L1"], family_index[("L1", "rota-baxter", 1)])
    assert verdict.holds and verdict.witness is None


def test_l1_nijenhuis_first_two_matrices(cmap, family_index):
    # The first printed matrix fails: with entry (4,3) free, the (1,1)
    # residual keeps a k43*(k32-k21) component.  The second matrix, identical
    # except that entry (4,3) is zero, holds.
    v1 = verify_family(cmap["L1"], family_index[("L1", "nijenhuis", 1)])
    assert not v1.holds
    i, j, q, cond, poly = v1.witness
    assert (i, j, q) == (1, 1, 4)
    assert poly == (parse_expr("k32*k43-k21*k43")).num
    v2 = verify_family(cmap["L1"], family_index[("L1", "nijenhuis", 2)])
    assert v2.holds


def test_verify_family_symbolic_weight(cmap, family_index):
    # some charts absorb the weight term entirely and hold for a fully
    # symbolic weight; others hold at weight 0 only
    fam = family_index[("L3", "rota-baxter", 2)]
    assert verify_family(cmap["L3"], fam, weight=RatExpr.var("w")).holds
    fam0 = family_index[("L1", "rota-baxter", 1)]
    assert verify_family(cmap["L1"], fam0).holds
    assert not verify_family(cmap["L1"], fam0, weight=RatExpr.var("w")).holds


# ---------------------------------------------------------------------------
# audit

def test_audit_summary_per_kind(audit):
    expected = {
        "rota-baxter": {"total": 109, "malformed": 8, "checked": 101,
                        "holds": 71, "fails": 30, "pass_rate": "71/101"},
        "nijenhuis": {"total": 76, "malformed": 0, "checked": 76,
                      "holds": 40, "fails": 36, "pass_rate": "40/76"},
        "reynolds": {"total": 90, "malformed": 0, "checked": 90,
                     "holds": 51, "fails": 39, "pass_rate": "51/90"},
        "averaging": {"total": 82, "malformed": 1, "checked": 81,
                      "holds": 63, "fails": 18, "pass_rate": "63/81"},
    }
    for kname, want in expected.items():
        got = audit_summary([r for r in audit if r["kind"] == kname])
        assert got == want, kname


def test_audit_weight_classification(audit):
    anyw = [r for r in audit if r["status"] == "holds-any-weight"]
    assert len(anyw) == 11
    assert all(r["kind"] == "rota-baxter" for r in anyw)


def test_audit_failures_carry_witnesses(audit):
    for row in audit:
        if row["status"] == "fails":
            w = row["witness"]
            assert 1 <= w["i"] <= 4 and 1 <= w["j"] <= 4 and 1 <= w["q"] <= 4
            assert w["poly"] and w["poly"] != "0"
        else:
            assert "witness" not in row


def test_audit_averaging_rows_report_sides(audit):
    rows = [r for r in audit if r["kind"] == "averaging" and
            r["status"] != "malformed"]
    for r in rows:
        assert isinstance(r["left"], bool) and isinstance(r["right"], bool)
        assert (r["status"] == "holds") == (r["left"] and r["right"])
    one_sided = [(r["algebra"], r["index"]) for r in rows
                 if r["left"] != r["right"]]
    assert one_sided == [("L3", 3)]


def test_audit_malformed_rows(audit):
    mal = [(r["algebra"], r["kind"], r["index"]) for r in audit
           if r["status"] == "malformed"]
    assert ("L1", "rota-baxter", 5) in mal
    assert ("L21", "rota-baxter", 5) in mal
    assert ("L5", "averaging", 2) in mal
    assert len(mal) == 9
    for r in audit:
        if r["status"] == "malformed":
            assert r["note"]


def test_witness_polynomials_vanish_nowhere_on_a_sample(cmap, family_index):
    # spot-check one failure: a scalar matrix c*Id is Reynolds only for
    # c in {0, 1}; the witness polynomial is -a11^2 + a11^3 style.
    fam = family_index[("L11", "reynolds", 5)]
    verdict = verify_family(cmap["L11"], fam)
    assert not verdict.holds
    poly = verdict.witness[4]
    assert poly.degree_in(poly.params()) >= 2


# ---------------------------------------------------------------------------
# dimension report

def test_dimension_report_nijenhuis(cmap, families, audit):
    rep = dimension_report(cmap, families, "nijenhuis", audit)
    assert rep["claimed_range"] == [5, 10]
    # only verified families count: L6's sole matrix has 7 parameters but
    # fails its check, so L6 is reported as uncovered instead
    assert "L6" not in rep["per_algebra"]
    assert "L6" in rep["algebras_without_verified_family"]
    assert rep["per_algebra"]["L2"]["max_dim"] == 7
    assert rep["per_algebra"]["L18"]["max_dim"] == 8
    lo, hi = rep["achieved_range"]
    assert lo >= 0 and hi >= lo
    for m in rep["mismatches"]:
        assert m["bound"] in ("min", "max")
        assert m["family"]


def test_dimension_report_uses_verified_families_only(cmap, families, audit):
    rep = dimension_report(cmap, families, "rota-baxter", audit)
    verified = {(r["algebra"], r["index"]) for r in audit
                if r["kind"] == "rota-baxter" and r["status"].startswith("holds")}
    for name, info in rep["per_algebra"].items():
        assert (name, info["family_index"]) in verified


def test_dimension_report_skips_the_any_weight_recheck(cmap, families,
                                                        audit, monkeypatch):
    calls = []
    original = operators.verify_family

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(operators, "verify_family", counted)
    rep = dimension_report(cmap, families, "rota-baxter")
    # one weight-0 check per well-formed rota-baxter family
    fams = [f for f in families if f.kind == "rota-baxter"]
    assert len(calls) == sum(not f.malformed for f in fams) == 101
    assert rep == dimension_report(cmap, families, "rota-baxter", audit)


def test_dimension_report_empty_without_verified_families(cmap):
    rep = dimension_report(cmap, [], "reynolds", audit_rows=[])
    assert rep["per_algebra"] == {}
    assert rep["achieved_range"] is None
    assert rep["mismatches"] == []
    assert len(rep["algebras_without_verified_family"]) == len(cmap)


def test_dimension_report_rejects_unknown_kind(cmap, families):
    with pytest.raises(ValueError):
        dimension_report(cmap, families, "rotabaxter")


def test_claimed_ranges_match_module_constants():
    assert CLAIMED_DIM_RANGE == {
        "rota-baxter": (3, 10), "nijenhuis": (5, 10),
        "reynolds": (2, 9), "averaging": (2, 9),
    }
