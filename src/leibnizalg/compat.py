"""Compatibility of two bracket structures on a common underlying space.

Two right Leibniz brackets on the same space are compatible when every
linear combination l1*[.,.]_1 + l2*[.,.]_2 is again right Leibniz.  That
holds iff both brackets satisfy the Leibniz identity and the mixed residual

  M(x,y,z) = [x,[y,z]_1]_2 + [x,[y,z]_2]_1 - [[x,y]_1,z]_2 - [[x,y]_2,z]_1
             + [[x,z]_1,y]_2 + [[x,z]_2,y]_1

vanishes.  The scan works in the shared fixed basis exactly as the tables
are stored; no basis change is searched for, so "incompatible" means
incompatible as presented.  Catalog tables sharing a parameter name are
treated as independently parameterized (one side is renamed first).

A scan binds each table at its sample values once and uses the bound
tables in every pair; each table keeps its own Leibniz verdict
(AlgebraTable.is_leibniz).  Each verdict is reached with the least exact
work that decides it: a pair is proved symbolically once, and only a pair
that fails is checked at its sample bindings; a pencil check first proves
the pencil with symbolic coefficients, which settles every sample at once,
and draws its seeded samples only when that fails; a residual stops at
its first nonzero vector (ResidualTensor).
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from .algebra import (
    AlgebraTable,
    CatalogError,
    ResidualTensor,
    SAMPLE_POOL,
    algebra_sort_key,
    bind_params,
    combined_bracket,
    data_dir,
    leibniz_residual,
    read_json_array,
    sample_bindings,
    signed_sum,
    witness_dict,
)
from .exact import RatExpr

SCAN_NOTE = ("pairs are compared in the shared fixed basis as stored; "
             "no basis change is attempted")


def mixed_residual(a: AlgebraTable, b: AlgebraTable) -> ResidualTensor:
    """The obstruction tensor whose vanishing makes the bracket pencil
    Leibniz for all coefficients (given that both brackets already are)."""
    if a.dim != b.dim:
        raise ValueError("tables have different dimensions")
    ca, cb = a.sparse_c, b.sparse_c

    def coords(i, j, k):
        return signed_sum(((True, b.e_bracket(i, ca[j][k])),
                           (True, a.e_bracket(i, cb[j][k])),
                           (False, b.bracket_e(ca[i][j], k)),
                           (False, a.bracket_e(cb[i][j], k)),
                           (True, b.bracket_e(ca[i][k], j)),
                           (True, a.bracket_e(cb[i][k], j))))

    return ResidualTensor.tabulate(a.dim, 3, coords)


def _disjoin_params(a: AlgebraTable, b: AlgebraTable):
    """Rename b's parameters that clash with a's, so the pair is checked
    with independent symbolic parameters.  The copy depends on a's
    parameter names only, so it is made once per set of names and kept on
    b, and with it its Leibniz verdict."""
    avoid = frozenset(a.param_names())
    clashes = avoid & set(b.param_names())
    if not clashes:
        return b, {}
    if avoid not in b._apart:
        rename = {}
        taken = set(avoid) | set(b.param_names())
        for name in sorted(clashes):
            fresh = name + "_b"
            while fresh in taken:
                fresh += "b"
            taken.add(fresh)
            rename[name] = fresh
        b._apart[avoid] = bind_params(
            b, {k: RatExpr.var(v) for k, v in rename.items()}), rename
    return b._apart[avoid]


def is_compatible(a: AlgebraTable, b: AlgebraTable) -> bool:
    """Both brackets Leibniz and the mixed residual zero, symbolically in
    any unbound parameters (clashing names count as distinct parameters)."""
    b2, _ = _disjoin_params(a, b)
    return (a.is_leibniz() and b2.is_leibniz()
            and mixed_residual(a, b2).is_zero)


def pair_witness(a: AlgebraTable, b: AlgebraTable):
    """First nonzero mixed-residual entry as (i, j, k, q, value), 1-based."""
    b2, _ = _disjoin_params(a, b)
    return mixed_residual(a, b2).first_failure()


def _generic_pencil_is_leibniz(a: AlgebraTable, b: AlgebraTable) -> bool:
    """Whether the pencil with fresh symbolic coefficients, names that
    clash with no parameter of a or b, is Leibniz identically."""
    taken = set(a.param_names()) | set(b.param_names())
    fresh = []
    for name in ("l1", "l2"):
        while name in taken:
            name += "_"
        taken.add(name)
        fresh.append(RatExpr.var(name))
    return leibniz_residual(combined_bracket(a, b, *fresh)).is_zero


def lambda_sample_check(a: AlgebraTable, b: AlgebraTable, *,
                        samples: int = 50, seed: int = 0) -> dict:
    """Random coefficient pencils of the two brackets rechecked exactly.

    Draws (l1, l2) rational pairs and verifies the combined bracket's
    Leibniz residual vanishes; parameters stay symbolic.  The pencil with
    symbolic l1 and l2 is checked first: when it is Leibniz, so is every
    sample, and no sample is drawn.
    """
    if samples <= 0:
        return {"samples": samples, "ok": True, "failures": []}
    b2, _ = _disjoin_params(a, b)
    failures = []
    if not _generic_pencil_is_leibniz(a, b2):
        rng = random.Random(seed)
        for t in range(samples):
            l1 = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            l2 = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            pencil = combined_bracket(a, b2, RatExpr.const(l1),
                                      RatExpr.const(l2))
            hit = leibniz_residual(pencil).first_failure()
            if hit is not None:
                failures.append({"l1": str(l1), "l2": str(l2),
                                 **witness_dict(hit)})
    return {"samples": samples, "ok": not failures, "failures": failures}


def load_claimed_pairs(path: Path | None = None):
    """The claimed compatible pairs shipped with the catalog data."""
    if path is None:
        path = data_dir() / "claimed_compatible_pairs.json"
    raw = read_json_array(path, "claimed pairs must be an array")
    pairs = []
    for t, item in enumerate(raw):
        if (not isinstance(item, list) or len(item) != 2
                or not all(isinstance(x, str) for x in item)):
            raise CatalogError(f"/{t}", "pair must be [name, name]")
        pairs.append((item[0], item[1]))
    return pairs


def _key(a: str, b: str):
    return tuple(sorted((a, b), key=algebra_sort_key))


@dataclass
class PairReport:
    names: list
    pairs_checked: list
    diagonal_compatible: list
    compatible: list
    failing: list                    # {"pair", "witness"}
    per_value_exceptions: list       # {"pair", "passing_bindings"}
    claimed: list
    claimed_but_failing: list
    passing_but_unclaimed: list
    unmatchable_claims: list
    lambda_checks: dict | None
    note: str = SCAN_NOTE

    def as_dict(self) -> dict:
        """Every field, copied; pairs stay tuples, which JSON writes as
        arrays."""
        return asdict(self)


def compat_scan(tables, *, claimed=None, lambda_samples: int = 0,
                seed: int = 0, pool=None) -> PairReport:
    """Evaluate every unordered pair of tables and diff against the claims.

    Every pair is checked symbolically first, and only the symbolic
    verdict counts as compatible; a symbolic pass holds at every
    admissible binding.  A failing pair with parameters is then checked at
    every admissible sample binding (values from pool, when given), and
    the bindings where it passes are listed as a per-value exception.
    With lambda_samples > 0, every compatible pair is additionally probed
    with that many random bracket pencils.

    Each table is bound at its sample bindings once, before the pair loop,
    and renamed apart from the parameter names of the tables it is paired
    with once per set of names (_disjoin_params); the checks of a pair, its
    witness and its pencils all use that one copy.  Leibniz verdicts are
    kept on the tables (AlgebraTable.is_leibniz).
    """
    tables = list(tables)
    names = [t.name for t in tables]
    diagonal = [t.name for t in tables if is_compatible(t, t)]
    pool = SAMPLE_POOL if pool is None else pool
    bound = [[(binding, bind_params(t, binding) if binding else t)
              for binding in sample_bindings(t, pool)] for t in tables]

    pairs_checked, compatible, failing, exceptions = [], [], [], []
    pencils = []                    # (a, b2) of each compatible pair
    for (a, bound_a), (b, bound_b) in combinations(zip(tables, bound), 2):
        pair = _key(a.name, b.name)
        pairs_checked.append(pair)
        b2, rename = _disjoin_params(a, b)
        if is_compatible(a, b2):
            compatible.append(pair)
            pencils.append((a, b2))
            continue
        passing = []
        if not (a.is_bound() and b.is_bound()):
            for ba, av in bound_a:
                for bb, bv in bound_b:
                    if is_compatible(av, bv):
                        binding = {**ba, **{rename.get(k, k): v
                                            for k, v in bb.items()}}
                        passing.append({k: str(v)
                                        for k, v in binding.items()})
        # no witness (None) when a Leibniz residual failed instead
        failing.append({"pair": list(pair),
                        "witness": witness_dict(pair_witness(a, b2))})
        if passing:
            exceptions.append({"pair": list(pair),
                               "passing_bindings": passing})

    claimed = load_claimed_pairs() if claimed is None else list(claimed)
    known = set(names)
    claimed_keys, unmatchable = [], []
    for a, b in claimed:
        if a in known and b in known:
            claimed_keys.append(_key(a, b))
        else:
            unmatchable.append((a, b))
    compatible_set = set(compatible)
    claimed_set = set(claimed_keys)
    claimed_but_failing = sorted(claimed_set - compatible_set)
    passing_but_unclaimed = sorted(compatible_set - claimed_set)

    lambda_checks = None
    if lambda_samples > 0:
        results = []
        for pair, (a, b2) in zip(compatible, pencils):
            out = lambda_sample_check(a, b2, samples=lambda_samples,
                                      seed=seed)
            if not out["ok"]:
                results.append({"pair": list(pair),
                                "failures": out["failures"]})
        lambda_checks = {"samples": lambda_samples,
                         "pairs_checked": len(compatible),
                         "ok": not results, "failures": results}

    return PairReport(
        names=names,
        pairs_checked=pairs_checked,
        diagonal_compatible=diagonal,
        compatible=compatible,
        failing=failing,
        per_value_exceptions=exceptions,
        claimed=claimed,
        claimed_but_failing=claimed_but_failing,
        passing_but_unclaimed=passing_but_unclaimed,
        unmatchable_claims=unmatchable,
        lambda_checks=lambda_checks,
    )
