"""The benchmark's calls into the package still resolve and still agree.

bench/tracing.py wraps functions and methods of leibnizalg by name, and
bench/workloads.py calls the library with fixed signatures.  A rename or a
signature change in the package would otherwise show only as a crash or as
failed items of a benchmark run (bench/run.py), so these tests load the
tracer and the workloads by path and check them against the package.
"""

import importlib.util
import json
import sys
from itertools import product
from pathlib import Path

import pytest

import leibnizalg
import leibnizalg.cli  # noqa: F401  (the tracer patches every module)
from leibnizalg.algebra import AlgebraTable, catalog_map
from leibnizalg.exact import RatExpr, parse_expr
from leibnizalg.operators import OperatorFamily, make_kind

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def workloads(monkeypatch):
    # workloads.py imports its helpers as the top-level module "common";
    # both stay registered only for the test
    for name in ("common", "workloads"):
        spec = importlib.util.spec_from_file_location(name,
                                                      BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
    return module


def _methods(tracing):
    for path, attr, _ in tracing.SPANNED_METHODS + tracing.COUNTED_METHODS:
        mod_name, cls_name = path.split(".")
        yield getattr(getattr(leibnizalg, mod_name), cls_name), attr


def _bindings(tracing):
    """Every global of the traced modules and every hooked method."""
    out = {(name, key): value for name in tracing.MODULES
           for key, value in vars(sys.modules[name]).items()}
    out.update(((cls, attr), vars(cls)[attr])
               for cls, attr in _methods(tracing))
    return out


def test_every_hook_resolves_in_the_package(tracing):
    assert all(name in sys.modules for name in tracing.MODULES)
    for mod_name, attr, _ in tracing.SPANNED:
        assert callable(getattr(getattr(leibnizalg, mod_name), attr, None)), \
            (mod_name, attr)
    for cls, attr in _methods(tracing):
        assert callable(vars(cls).get(attr)), (cls, attr)


def test_install_patches_every_hook_and_uninstall_restores_it(tracing):
    before = _bindings(tracing)
    tracer = tracing.Tracer()
    tracer.install(leibnizalg)
    try:
        during = _bindings(tracing)
        for mod_name, attr, _ in tracing.SPANNED:
            key = ("leibnizalg." + mod_name, attr)
            assert during[key] is not before[key], key
        for cls, attr in _methods(tracing):
            assert during[cls, attr] is not before[cls, attr], (cls, attr)
    finally:
        tracer.uninstall()
    after = _bindings(tracing)
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_traced_scan_is_counted_through_the_module_globals(tracing):
    fresh = catalog_map()           # no Leibniz verdicts kept on the tables
    tracer = tracing.Tracer()
    tracer.install(leibnizalg)
    try:
        leibnizalg.compat.compat_scan([fresh["L1"], fresh["L3"]],
                                      claimed=[])
    finally:
        tracer.uninstall()
    layers = tracer.per_layer(0.0)
    # two diagonal checks and one pair, all parameter-free
    assert layers["compat.is_compatible.calls"] == 3
    assert layers["compat.bindings_checked"] == 3
    assert layers["compat.mixed_residual.calls"] == 3
    # one Leibniz residual per table, seen by the tracer
    assert layers["algebra.leibniz_residual.calls"] == 2


@pytest.mark.parametrize("name", ["f2-dual-sweep", "f3-shard-sweep",
                                  "chart-coverage", "symbolic-audit"])
def test_workload_pass_agrees_with_the_reference(workloads, name):
    ref = json.loads((BENCH / "reference.json").read_text())
    _, setup, run_pass = workloads.WORKLOADS[name]
    items, _ = setup(leibnizalg, ref, 1)
    out = run_pass(leibnizalg, ref, items, 1)
    assert out.attempted > 0
    assert out.failures == []


@pytest.mark.parametrize("p", [2, 3])
def test_traced_sweeps_count_every_matrix(tracing, p):
    # [e1, e1] = e2 in dimension 2, swept whole by both paths at p <= 3,
    # where the mask kernels take value planes: every observer of the fp
    # layers runs on them, and the counter values give the matrices swept
    c = [[[RatExpr.const(int((i, j, k) == (0, 0, 1))) for k in range(2)]
          for j in range(2)] for i in range(2)]
    table = AlgebraTable("D2", 2, c)
    kind = make_kind("nijenhuis")
    tracer = tracing.Tracer()
    tracer.install(leibnizalg)
    try:
        found = [leibnizalg.fp.solution_indices(table, kind, p, path=path)
                 for path in ("compiled", "direct")]
    finally:
        tracer.uninstall()
    assert found[0].tolist() == found[1].tolist()
    layers = tracer.per_layer(0.0)
    assert layers["fp.matrices_swept"] == 2 * p ** 4
    assert layers["fp.solutions_found"] == 2 * found[0].size
    assert layers["fp.compile_system.calls"] == 1


def _counted_points(monkeypatch):
    """Patch fp._eval_chart to record every value it returns."""
    fp, seen = leibnizalg.fp, []
    real = fp._eval_chart

    def counted(form, values):
        m = real(form, values)
        seen.append(m)
        return m

    monkeypatch.setattr(fp, "_eval_chart", counted)
    return seen


def _search_chart():
    # x stands alone and is read off; y and z are searched, and the points
    # where x - y z + 1 vanishes are outside the chart
    rows = [["x", "y*z"], ["1/(x - y*z + 1)", "0"]]
    return OperatorFamily("T", "nijenhuis", 1,
                          [[parse_expr(e) for e in row] for row in rows],
                          ("x", "y", "z"), (), False)


@pytest.mark.parametrize("p", [2, 3])
def test_chart_checks_evaluate_each_point_once(monkeypatch, p):
    # the tracer's fp.eval_chart.calls counts chart points only while
    # every point is one call of the module global fp._eval_chart
    fam, fp = _search_chart(), leibnizalg.fp
    seen = _counted_points(monkeypatch)
    points = fp.family_solution_set(fam, p)
    assert len(seen) == p ** 3 and set(seen) - {None} == points
    # membership searches p^2 points, up to the first that is m
    for m in sorted(points) + [p ** 4 - 1]:
        seen.clear()
        found = fp.chart_membership(fam, m, p)
        assert found == (m in points)
        assert len(seen) == (seen.index(m) + 1 if found else p ** 2)
    # a round trip draws points and sends each admissible one to
    # membership's read-off and search, which evaluates its own
    real_member, drawn, inside = fp._chart_member, [], []

    def member(fam, form, m, budget):
        drawn.extend(seen)
        seen.clear()
        found = real_member(fam, form, m, budget)
        inside.append(seen[:])
        seen.clear()
        return found

    monkeypatch.setattr(fp, "_chart_member", member)
    seen.clear()
    out = fp.roundtrip_check(fam, p, samples=10)
    drawn.extend(seen)
    assert out["ok"] and out["checked"] == 10
    admissible = [m for m in drawn if m is not None]
    assert len(admissible) == 10 and set(admissible) <= points
    assert [calls[-1] for calls in inside] == admissible
    assert all(calls.index(m) == len(calls) - 1
               for calls, m in zip(inside, admissible))


def test_traced_chart_points_are_counted(tracing):
    tracer = tracing.Tracer()
    tracer.install(leibnizalg)
    try:
        leibnizalg.fp.family_solution_set(_search_chart(), 3)
    finally:
        tracer.uninstall()
    layers = tracer.per_layer(0.0)
    admissible = sum((x - y * z + 1) % 3 != 0
                     for x, y, z in product(range(3), repeat=3))
    assert layers["fp.eval_chart.calls"] == 27
    assert layers["fp.eval_chart.admissible_ratio"] == admissible / 27
