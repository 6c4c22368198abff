"""Command-line interface: exit codes, output discipline, determinism."""

import hashlib
import json
import shlex
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from leibnizalg import cli, fp
from leibnizalg.algebra import bind_params, data_dir, load_catalog
from leibnizalg.cli import main
from leibnizalg.exact import RatExpr
from leibnizalg.operators import make_kind


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# usage errors and help

def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0


def test_readme_commands_parse():
    # every command line of the README's command block, as documented
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [shlex.split(line, comments=True)
             for line in readme.read_text().splitlines()
             if line.startswith("leibnizalg ")]
    assert len(lines) >= 10
    parser = cli.build_parser()
    for argv in lines:
        assert parser.parse_args(argv[1:]).func, argv


def test_no_command_is_usage_error(capsys):
    code, out, err = run(capsys)
    assert code == 2


def test_unknown_command_is_usage_error(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 2
    assert "invalid choice" in err


def test_unknown_algebra_is_usage_error(capsys):
    code, _, err = run(capsys, "equations", "L99", "--op", "nijenhuis")
    assert code == 2
    assert "unknown algebra" in err


def test_bad_param_syntax_is_usage_error(capsys):
    code, _, err = run(capsys, "check-leibniz", "L4", "--param", "mu")
    assert code == 2
    assert "NAME=VALUE" in err


def test_inadmissible_param_value_is_usage_error(capsys):
    # L4 declares mu in {0,1}
    code, _, err = run(capsys, "lcs", "L4", "--param", "mu=7")
    assert code == 2
    assert "admissible" in err


def test_weight_on_non_rota_baxter_is_usage_error(capsys):
    code, _, err = run(capsys, "equations", "L1", "--op", "reynolds",
                       "--weight", "1")
    assert code == 2


def test_catalog_show_needs_name(capsys):
    code, _, err = run(capsys, "catalog", "show")
    assert code == 2


# ---------------------------------------------------------------------------
# catalog

def test_catalog_list_names_all_tables(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    names = out.splitlines()
    assert len(names) == 21
    assert names[0] == "L1" and names[-1] == "L21"


def test_catalog_show_prints_products(capsys):
    code, out, _ = run(capsys, "catalog", "show", "L4")
    assert code == 0
    assert "parameter mu in {0,1}" in out
    assert "[e1, e2] -> mu * e4" in out


@pytest.fixture
def catalog_loads(monkeypatch):
    """The arguments of every catalog load the CLI makes."""
    loads = []

    def counted(*args):
        loads.append(args)
        return load_catalog(*args)
    monkeypatch.setattr(cli, "load_catalog", counted)
    return loads


def test_catalog_show_loads_the_catalog_once(capsys, catalog_loads):
    code, out, _ = run(capsys, "catalog", "show", "L4")
    assert code == 0 and out.startswith("L4  (dim 4)")
    assert len(catalog_loads) == 1


def test_catalog_json_is_canonical(capsys):
    code, out, _ = run(capsys, "catalog", "show", "L4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert out == json.dumps(payload, sort_keys=True, indent=2,
                             ensure_ascii=True) + "\n"
    assert payload["dim"] == 4


# ---------------------------------------------------------------------------
# check-leibniz / lcs

def test_check_leibniz_shipped_table_passes(capsys):
    code, out, _ = run(capsys, "check-leibniz", "L4")
    assert code == 0
    assert "holds" in out


def test_check_leibniz_printed_variant_fails_at_recorded_triple(capsys):
    code, out, _ = run(capsys, "check-leibniz", "L4", "--as-printed",
                       "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["residual_zero"] is False
    w = payload["witness"]
    assert (w["i"], w["j"], w["k"]) == (1, 1, 2)


def test_as_printed_binds_params_on_the_printed_variant(capsys):
    # alpha is a parameter of L14's printed reading only
    code, out, _ = run(capsys, "check-leibniz", "L14", "--as-printed",
                       "--param", "alpha=0")
    assert code == 0
    assert "holds" in out
    code, _, err = run(capsys, "check-leibniz", "L4", "--as-printed",
                       "--param", "mu=7")
    assert code == 2
    assert "admissible" in err


def test_as_printed_without_recorded_variant_is_usage_error(capsys):
    code, _, err = run(capsys, "check-leibniz", "L1", "--as-printed")
    assert code == 2


def test_lcs_reports_full_flag(capsys):
    code, out, _ = run(capsys, "lcs", "L1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dims"] == [4, 3, 2, 1, 0]
    assert payload["nilpotent"] is True


def test_lcs_requires_bound_parameters(capsys):
    code, _, err = run(capsys, "lcs", "L4")
    assert code == 2
    assert "mu" in err


def test_lcs_accepts_param_binding(capsys):
    code, out, _ = run(capsys, "lcs", "L4", "--param", "mu=1")
    assert code == 0


# ---------------------------------------------------------------------------
# equations

def test_equations_shape(capsys):
    code, out, _ = run(capsys, "equations", "L1", "--op", "nijenhuis",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["unknowns"]) == 16
    assert len(payload["equations"]) == 64
    assert payload["max_degree"] == 2


def test_equations_averaging_has_conditions(capsys):
    code, out, _ = run(capsys, "equations", "L2", "--op", "averaging",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["equations"]) == 128
    sides = {e.get("condition") for e in payload["equations"]}
    assert sides == {"left", "right"}


def test_equations_symbolic_weight(capsys):
    code, out, _ = run(capsys, "equations", "L1", "--op", "rota-baxter",
                       "--weight", "w", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["weight"] == "w"


# ---------------------------------------------------------------------------
# verify

def test_verify_holding_family_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "--kind", "nijenhuis",
                       "--algebra", "L1", "--index", "2")
    assert code == 0
    assert "holds" in out


def test_verify_failing_family_exits_one_with_witness(capsys):
    code, out, _ = run(capsys, "verify", "--kind", "nijenhuis",
                       "--algebra", "L1", "--index", "1", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    row = payload["families"][0]
    assert row["status"] == "fails"
    assert row["witness"]["q"] == 4


def test_verify_explicit_family_file(capsys):
    path = data_dir() / "families" / "nijenhuis.json"
    code, out, _ = run(capsys, "verify", str(path), "--algebra", "L1",
                       "--index", "2")
    assert code == 0


def test_verify_no_match_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--kind", "nijenhuis",
                       "--algebra", "L1", "--index", "99")
    assert code == 2


def test_verify_symbolic_weight_toggle(capsys):
    # L3 rota-baxter #2 holds for every weight; with the recheck disabled
    # it is reported as plain "holds".
    code, out, _ = run(capsys, "verify", "--kind", "rota-baxter",
                       "--algebra", "L3", "--index", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["families"][0]["status"] == "holds-any-weight"
    code, out, _ = run(capsys, "verify", "--kind", "rota-baxter",
                       "--algebra", "L3", "--index", "2",
                       "--no-symbolic-weight", "--format", "json")
    assert code == 0
    assert json.loads(out)["families"][0]["status"] == "holds"


# ---------------------------------------------------------------------------
# dim-report

def test_dim_report_single_kind(capsys):
    code, out, _ = run(capsys, "dim-report", "--kind", "averaging",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["averaging"]["claimed_range"] == [2, 9]


def test_dim_report_all_kinds(capsys):
    code, out, _ = run(capsys, "dim-report", "--format", "json")
    assert code == 0
    assert set(json.loads(out)) == {"rota-baxter", "nijenhuis", "reynolds",
                                    "averaging"}


# ---------------------------------------------------------------------------
# enumerate / coverage

def test_enumerate_counts_and_caps(capsys):
    code, out, _ = run(capsys, "enumerate", "L1", "--op", "averaging",
                       "--field", "2", "--limit", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 210
    assert payload["total"] == 65536
    assert payload["shown"] == 2
    assert payload["solutions"][0]["index"] == 0


def test_enumerate_refuses_oversize_field(capsys):
    code, _, err = run(capsys, "enumerate", "L1", "--op", "averaging",
                       "--field", "3")
    assert code == 2
    assert "budget" in err


def test_enumerate_refuses_huge_prime_before_any_work(capsys, monkeypatch):
    p = 2 ** 61 - 1
    t0 = time.perf_counter()
    code, _, err = run(capsys, "enumerate", "L1", "--op", "reynolds",
                       "--field", str(p))
    assert code == 2
    assert "budget" in err
    assert time.perf_counter() - t0 < 1.0
    # within the budget, (p - 1)^2 is past int64, where the kernels hold
    # a product before reducing it
    monkeypatch.setattr(fp, "compile_system", _no_work(monkeypatch))
    code, _, err = run(capsys, "enumerate", "L1", "--op", "reynolds",
                       "--field", str(p), "--budget", str(p ** 16 + 1))
    assert code == 2
    assert "refused" in err and "int64" in err


def _no_work(monkeypatch):
    """Fail at once if a sweep, or a pool that would run one, starts."""
    def started(*args, **kwargs):
        raise AssertionError("the sweep or its pool started")
    monkeypatch.setattr(fp, "_digit_block", started)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", started)
    return started


@pytest.mark.parametrize("path,dtype", [("compiled", "int64"),
                                        ("direct", "int64")])
def test_enumerate_refuses_prime_past_kernel_width(capsys, monkeypatch,
                                                   path, dtype):
    _no_work(monkeypatch)
    p = 3037000507            # the least prime with (p - 1)^2 past int64
    code, _, err = run(capsys, "enumerate", "L1", "--op", "reynolds",
                       "--field", str(p), "--budget", str(p ** 16),
                       "--path", path)
    assert code == 2
    assert "refused" in err and dtype in err


def test_enumerate_refuses_counters_past_int64_before_any_work(capsys,
                                                              monkeypatch):
    # 1009^16 matrices are within this budget, and 1008^2 fits int64, but
    # the counter values past 2^63 do not
    _no_work(monkeypatch)
    code, out, err = run(capsys, "enumerate", "L1", "--op", "reynolds",
                         "--field", "1009", "--budget", str(1009 ** 16))
    assert code == 2 and out == ""
    assert "refused" in err and "counter values" in err


def test_sharded_enumerate_refuses_before_starting_workers(capsys,
                                                          monkeypatch):
    # both sweeps lie past DEFAULT_BUDGET, so on two CPUs they would run
    # on a pool, had they not been refused
    def pool_started(*args, **kwargs):
        raise AssertionError("the worker pool started")
    monkeypatch.setattr(cli, "ProcessPoolExecutor", pool_started)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    for extra in (["--field", "3"],
                  ["--field", "3037000507", "--budget",
                   str(3037000507 ** 16), "--path", "direct"]):
        code, _, err = run(capsys, "enumerate", "L1", "--op", "reynolds",
                           *extra)
        assert code == 2
        assert "refused" in err


def test_enumerate_rejects_composite_field(capsys):
    code, _, err = run(capsys, "enumerate", "L1", "--op", "nijenhuis",
                       "--field", "4")
    assert code == 2
    assert "not a prime" in err


def test_enumerate_requires_bound_parameters(capsys):
    code, _, err = run(capsys, "enumerate", "L4", "--op", "nijenhuis",
                       "--field", "2")
    assert code == 2


def _two_dim_catalog(tmp_path):
    """A --data-dir with T2, [e1, e1] = e2 and [e2, e1] = mu e2: in
    dimension 2 a sweep past DEFAULT_BUDGET (17^4 = 83521 matrices at
    p = 17) takes well under a second."""
    (tmp_path / "catalog.json").write_text(json.dumps(
        [{"name": "T2", "dim": 2,
          "params": [{"name": "mu", "admissible": "C"}],
          "entries": [[1, 1, 2, "1"], [2, 1, 2, "mu"]]}]))
    return str(tmp_path)


def test_enumerate_sharded_matches_single(capsys, monkeypatch, tmp_path):
    # past DEFAULT_BUDGET a real pool sweeps the shards: the workers
    # receive the bound table and kind, parameters included, and the
    # merged parts print as the in-process sweep does, byte for byte
    base = ["enumerate", "T2", "--op", "nijenhuis", "--param", "mu=3",
            "--field", "17", "--budget", str(17 ** 4), "--limit", "0",
            "--data-dir", _two_dim_catalog(tmp_path)]
    table = bind_params(load_catalog(tmp_path / "catalog.json")[0],
                        {"mu": RatExpr.const(3)})
    want = fp.solution_indices(table, make_kind("nijenhuis"), 17,
                               budget=17 ** 4)
    assert 1 < want.size < 17 ** 4
    for fmt in ("text", "json"):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
        single = run(capsys, *base, "--format", fmt)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        sharded = run(capsys, *base, "--format", fmt)
        assert single == sharded
        assert single[0] == 0
    payload = json.loads(sharded[1])
    assert [s["index"] for s in payload["solutions"]] == want.tolist()


def test_enumerate_sharded_matches_single_over_odd_primes(capsys, tmp_path):
    # every sweep here is within DEFAULT_BUDGET and runs in-process; its
    # output is the merge of the shards swept one by one
    data = _two_dim_catalog(tmp_path)
    table = bind_params(load_catalog(tmp_path / "catalog.json")[0],
                        {"mu": RatExpr.const(1)})
    for op, kind, field in (
            (["--op", "nijenhuis"], make_kind("nijenhuis"), 3),
            (["--op", "rota-baxter", "--weight", "1"],
             make_kind("rota-baxter", RatExpr.const(1)), 5)):
        for path in ("compiled", "direct"):
            argv = ["enumerate", "T2", *op, "--field", str(field),
                    "--param", "mu=1", "--path", path, "--limit", "0",
                    "--data-dir", data, "--format", "json"]
            code, out, _ = run(capsys, *argv)
            assert code == 0
            got = [s["index"] for s in json.loads(out)["solutions"]]
            parts = [fp.solution_indices(table, kind, field, path=path,
                                         shard=s) for s in range(field ** 2)]
            assert got == np.sort(np.concatenate(parts)).tolist()
            assert len(got) > 1


@pytest.mark.parametrize("argv", [
    ("enumerate", "L1", "--op", "nijenhuis", "--limit", "-1"),
    ("coverage", "L1", "--op", "nijenhuis", "--cap", "-1"),
    ("compat", "L1", "L3", "--lambda-samples", "-4"),
    ("compat-scan", "--lambda-samples", "-4"),
], ids=["limit", "cap", "compat-lambda-samples", "scan-lambda-samples"])
def test_negative_count_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "non-negative integer" in err


def test_pool_is_no_larger_than_the_shards_or_cpus(capsys, monkeypatch,
                                                  tmp_path):
    sizes, batches = [], []

    class InlinePool:
        """Records the requested size and the shards of each map call, and
        runs the jobs in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, shards):
            batches.append(list(shards))
            return map(fn, batches[-1])

    compiled = []
    compile_system = fp.compile_system

    def counted(*args):
        compiled.append(args)
        return compile_system(*args)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(fp, "compile_system", counted)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    # the full F_2 sweep of L1 is within DEFAULT_BUDGET: no pool
    run(capsys, "enumerate", "L1", "--op", "nijenhuis", "--limit", "0")
    assert sizes == [] and len(compiled) == 1
    # past it, min(p^n, CPUs) workers for the 289 shards at p = 17
    argv = ["enumerate", "T2", "--op", "nijenhuis", "--param", "mu=2",
            "--field", "17", "--budget", str(17 ** 4), "--limit", "0",
            "--data-dir", _two_dim_catalog(tmp_path), "--format", "json"]
    pooled = run(capsys, *argv)
    assert sizes == [4]
    assert len(compiled) == 2   # once per sweep, not once per shard
    # every shard once, in order, and at most four per worker in one call
    assert sum(batches, []) == list(range(289))
    assert max(len(b) for b in batches) == 16 and len(batches) == 19
    batches.clear()
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1000)
    assert run(capsys, *argv) == pooled
    assert sizes == [4, 289]
    assert batches == [list(range(289))]
    # and none on one CPU, or when the count is unknown
    for cpus in (1, None):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        assert run(capsys, *argv) == pooled
    assert sizes == [4, 289]
    assert pooled[0] == 0 and json.loads(pooled[1])["count"] > 1


def test_coverage_reports_charts(capsys):
    code, out, _ = run(capsys, "coverage", "L1", "--op", "nijenhuis",
                       "--field", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 128
    assert payload["covered"] == 64
    assert payload["chart_points_outside"] == 0
    assert payload["families_used"][0]["points"] == 64


def test_coverage_refuses_a_family_that_verify_refuses(capsys, tmp_path):
    # an identically zero constraint makes verify_family raise; coverage
    # exits 2 with that error as verify does, instead of dropping the family
    data = _two_dim_catalog(tmp_path)
    (tmp_path / "families").mkdir()
    (tmp_path / "families" / "nijenhuis.json").write_text(json.dumps(
        [{"algebra": "T2", "kind": "nijenhuis", "index": 1,
          "chart": [["k11", "0"], ["0", "k11"]], "free": ["k11"],
          "constraints": ["0"]}]))
    want = "identically zero constraint"
    code, out, err = run(capsys, "verify", "--kind", "nijenhuis",
                         "--data-dir", data)
    assert code == 2 and out == "" and want in err
    code, out, err = run(capsys, "coverage", "T2", "--op", "nijenhuis",
                         "--param", "mu=1", "--data-dir", data)
    assert code == 2 and out == "" and want in err


# ---------------------------------------------------------------------------
# compat

def test_compat_pair_exit_codes(capsys):
    code, out, _ = run(capsys, "compat", "L2", "L3")
    assert code == 0
    assert "compatible" in out
    code, out, _ = run(capsys, "compat", "L4", "L9", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["compatible"] is False
    assert payload["witness"]["value"] == "-1"


def test_compat_loads_the_catalog_once(capsys, catalog_loads):
    code, out, _ = run(capsys, "compat", "L2", "L3")
    assert code == 0 and "compatible" in out
    assert len(catalog_loads) == 1


def test_compat_lambda_samples(capsys):
    code, out, _ = run(capsys, "compat", "L2", "L3", "--lambda-samples", "3",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["lambda_checks"]["ok"] is True


# ---------------------------------------------------------------------------
# output files and data-dir

@pytest.fixture(scope="module")
def small_data_dir(tmp_path_factory):
    """A private data directory whose catalog holds only L1..L5."""
    src = data_dir()
    dst = tmp_path_factory.mktemp("data")
    shutil.copytree(src, dst, dirs_exist_ok=True)
    raw = json.loads((dst / "catalog.json").read_text())
    (dst / "catalog.json").write_text(json.dumps(raw[:5]))
    return dst


def test_output_file_is_written_atomically(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "catalog", "list", "--format", "json",
                       "--output", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert len(payload) == 21
    assert not list(tmp_path.glob("*.tmp"))


def test_output_to_missing_directory_exits_one(capsys, tmp_path):
    code, _, err = run(capsys, "catalog", "list",
                       "--output", str(tmp_path / "no" / "such" / "f.json"))
    assert code == 1


def test_output_onto_a_directory_exits_one(capsys, tmp_path):
    # an output that cannot be written keeps exit 1, while an unreadable
    # data file exits 2
    (tmp_path / "f.json").mkdir()
    code, out, err = run(capsys, "catalog", "list",
                         "--output", str(tmp_path / "f.json"))
    assert code == 1 and out == ""
    assert err.startswith("error: ")


def test_data_dir_flag_overrides_default(capsys, small_data_dir):
    code, out, _ = run(capsys, "catalog", "list",
                       "--data-dir", str(small_data_dir))
    assert code == 0
    assert out.splitlines() == ["L1", "L2", "L3", "L4", "L5"]


def test_data_dir_env_and_flag_precedence(capsys, small_data_dir,
                                          monkeypatch, tmp_path):
    monkeypatch.setenv("LEIBNIZ_DATA_DIR", str(small_data_dir))
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    assert len(out.splitlines()) == 5
    # an explicit flag beats the environment
    code, out, _ = run(capsys, "catalog", "list",
                       "--data-dir", str(Path(__file__).resolve().parents[1]
                                         / "src" / "leibnizalg" / "data"))
    assert code == 0
    assert len(out.splitlines()) == 21


def test_compat_scan_small_catalog(capsys, small_data_dir):
    code, out, _ = run(capsys, "compat-scan", "--lambda-samples", "2",
                       "--data-dir", str(small_data_dir), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["diagonal_compatible"] == ["L1", "L2", "L3", "L4", "L5"]
    assert len(payload["pairs_checked"]) == 10
    assert ["L2", "L3"] in payload["compatible"]
    # claims that mention tables outside this catalog are flagged, not lost
    assert ["L12", "L23"] in payload["unmatchable_claims"]
    assert payload["lambda_checks"]["ok"] is True


def test_compat_scan_params_pool(capsys, small_data_dir):
    code, out, _ = run(capsys, "compat-scan", "--params", "mu=0,1",
                       "--data-dir", str(small_data_dir), "--format", "json")
    assert code == 0


@pytest.mark.parametrize("pool,reason", [
    ("mu=i", "must be real"),
    ("mu=1+i", "must be real"),
    ("mu=0,2*i+5", "must be real"),
    ("nu=3", "no table has a parameter 'nu'"),
])
def test_compat_scan_params_refusals(capsys, small_data_dir, pool, reason):
    code, out, err = run(capsys, "compat-scan", "--params", pool,
                         "--data-dir", str(small_data_dir))
    assert code == 2
    assert out == ""
    assert reason in err


@pytest.mark.parametrize("name, argv", [
    ("catalog.json", ("catalog", "list")),
    ("errata.json", ("check-leibniz", "L4", "--as-printed")),
    ("families/nijenhuis.json", ("verify", "--kind", "nijenhuis")),
    ("families/nijenhuis.json", ("verify", "{file}")),
    ("claimed_compatible_pairs.json", ("compat-scan",)),
])
def test_truncated_data_file_exits_two(capsys, tmp_path, name, argv):
    data = tmp_path / "data"
    shutil.copytree(data_dir(), data)
    path = data / name
    text = path.read_text()
    path.write_text(text[:len(text) // 2])
    argv = [str(path) if a == "{file}" else a for a in argv]
    code, out, err = run(capsys, *argv, "--data-dir", str(data))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "not valid JSON" in err


@pytest.mark.parametrize("name, argv", [
    ("catalog.json", ("catalog", "list")),
    ("errata.json", ("check-leibniz", "L4", "--as-printed")),
    ("families/nijenhuis.json", ("verify", "--kind", "nijenhuis")),
    ("families/nijenhuis.json", ("verify", "{file}")),
    ("claimed_compatible_pairs.json", ("compat-scan",)),
])
@pytest.mark.parametrize("damage", ["missing", "directory"])
def test_unreadable_data_file_exits_two(capsys, tmp_path, name, argv,
                                        damage):
    # a data file that cannot be read is refused like an invalid one, not
    # reported as a failing verdict (exit 1)
    data = tmp_path / "data"
    shutil.copytree(data_dir(), data)
    path = data / name
    path.unlink()
    if damage == "directory":
        path.mkdir()
    argv = [str(path) if a == "{file}" else a for a in argv]
    code, out, err = run(capsys, *argv, "--data-dir", str(data))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "cannot read" in err


# ---------------------------------------------------------------------------
# determinism

def test_repeated_runs_are_byte_identical(capsys):
    first = run(capsys, "verify", "--kind", "reynolds", "--algebra", "L11",
                "--format", "json")
    second = run(capsys, "verify", "--kind", "reynolds", "--algebra", "L11",
                 "--format", "json")
    assert first == second


def test_text_and_json_agree_on_verdict(capsys):
    code_t, out_t, _ = run(capsys, "check-leibniz", "L2")
    code_j, out_j, _ = run(capsys, "check-leibniz", "L2", "--format", "json")
    assert code_t == code_j == 0
    assert json.loads(out_j)["residual_zero"] is True


#: sha256 of stdout and the exit code of canonical commands, recorded before
#: the exact core's Scalar parts became ints and its residual vectors sparse
#: (the coverage and enumerate rows: before each exact rule was left with
#: one copy); any change to the exact core must leave these bytes as they are
GOLDEN = [
    (("verify", "--format", "json", "--symbolic-weight"), 1,
     "261bc60ce84d68b73f707d586865faacbf628683c74203a0a0034d84aa6dec4a"),
    (("compat-scan", "--format", "json", "--lambda-samples", "5"), 0,
     "05125ed3605e8cf1d82469cac76f3871912fe6e21b5167f603745a424148cc88"),
    (("dim-report", "--format", "json"), 0,
     "3ed4f7ff12c6cf16419b0ac50a8b13a19cc676b283e1d71f5ddf50f52e5e24e9"),
    (("equations", "L9", "--op", "reynolds"), 0,
     "a821555cd5b00cf0e9c47c6dfdf5d1669306e9d166ce55da4bc1550d72b5c54c"),
    (("equations", "L20", "--op", "rota-baxter", "--weight", "1/2"), 0,
     "656152f66237ee545b1bc666f13146e26676bc3ba3d47bdf9ae5a8b018856f39"),
    (("coverage", "L1", "--op", "nijenhuis", "--format", "json"), 0,
     "05a261fb79529e0098c880aad5e05078443dcf2f8c3b3e4a93566a3af3cd8e88"),
    (("enumerate", "L17", "--op", "rota-baxter", "--limit", "0",
      "--format", "json"), 0,
     "da4d3f50bd3dd21b027624a5f82e13bc91314834fea029366716c9ea3856a539"),
    # recorded before the compiled sweep skipped dead prefixes; the direct
    # path, which walks every block, prints the same bytes
    (("enumerate", "L17", "--op", "rota-baxter", "--field", "3",
      "--budget", "43046721", "--limit", "0", "--path", "compiled",
      "--format", "json"), 0,
     "b82b20e1123c4b2dff30ba0a8e3282ef49d0a30bf60b235a792a1757b532bd68"),
    (("enumerate", "L17", "--op", "rota-baxter", "--field", "3",
      "--budget", "43046721", "--limit", "0", "--path", "direct",
      "--format", "json"), 0,
     "b82b20e1123c4b2dff30ba0a8e3282ef49d0a30bf60b235a792a1757b532bd68"),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN,
                         ids=[" ".join(argv) for argv, _, _ in GOLDEN])
def test_canonical_output_keeps_its_golden_bytes(capsys, argv, code, digest):
    got, out, _ = run(capsys, *argv)
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
