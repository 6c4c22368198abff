"""Command-line interface: exit codes, output discipline, determinism."""

import json
import os
import shutil
import time
from pathlib import Path

import pytest

from leibnizalg import cli, fp
from leibnizalg.algebra import data_dir
from leibnizalg.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# usage errors and help

def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0


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


def test_enumerate_refuses_huge_prime_before_any_work(capsys):
    t0 = time.perf_counter()
    code, _, err = run(capsys, "enumerate", "L1", "--op", "reynolds",
                       "--field", str(2 ** 61 - 1))
    assert code == 2
    assert "budget" in err
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("path,dtype", [("compiled", "int32"),
                                        ("direct", "int16")])
def test_enumerate_refuses_prime_past_kernel_width(capsys, monkeypatch,
                                                   path, dtype):
    def sweep_started(*args):
        raise AssertionError("the sweep started")
    monkeypatch.setattr(fp, "_digit_block", sweep_started)
    code, _, err = run(capsys, "enumerate", "L1", "--op", "reynolds",
                       "--field", "1009", "--budget", str(1009 ** 16),
                       "--path", path)
    assert code == 2
    assert "refused" in err and dtype in err


def test_sharded_enumerate_refuses_before_starting_workers(capsys,
                                                          monkeypatch):
    def pool_started(*args, **kwargs):
        raise AssertionError("the worker pool started")
    monkeypatch.setattr(cli, "ProcessPoolExecutor", pool_started)
    for extra in (["--field", "3"],
                  ["--field", "17", "--budget", str(17 ** 16),
                   "--path", "direct"]):
        code, _, err = run(capsys, "enumerate", "L1", "--op", "reynolds",
                           "--shards", "2", *extra)
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


def test_enumerate_sharded_matches_single(capsys):
    # the workers receive the bound table and kind, parameters included
    for argv in (["L1", "--op", "nijenhuis"],
                 ["L4", "--op", "averaging", "--param", "mu=1"]):
        argv = ["enumerate", *argv, "--limit", "0", "--format", "json"]
        single = run(capsys, *argv, "--shards", "1")
        sharded = run(capsys, *argv, "--shards", "2")
        assert single[0] == sharded[0] == 0
        assert single[1] == sharded[1]


def test_enumerate_sharded_matches_single_over_odd_primes(capsys, tmp_path):
    # a two-dimensional table keeps p^(n*n) small enough to sweep at p > 2
    (tmp_path / "catalog.json").write_text(json.dumps(
        [{"name": "T2", "dim": 2, "entries": [[1, 1, 2, "1"]]}]))
    for op in (["--op", "nijenhuis", "--field", "3"],
               ["--op", "rota-baxter", "--weight", "1", "--field", "5"]):
        for path in ("compiled", "direct"):
            argv = ["enumerate", "T2", *op, "--path", path, "--limit", "0",
                    "--data-dir", str(tmp_path), "--format", "json"]
            single = run(capsys, *argv, "--shards", "1")
            sharded = run(capsys, *argv, "--shards", "2")
            assert single[0] == sharded[0] == 0
            assert single[1] == sharded[1]
            assert json.loads(single[1])["count"] > 1


def test_shards_below_one_is_usage_error(capsys):
    for shards in ("0", "-3"):
        code, _, err = run(capsys, "enumerate", "L1", "--op", "nijenhuis",
                           "--shards", shards)
        assert code == 2
        assert "--shards" in err


def test_pool_is_no_larger_than_the_shards_or_cpus(capsys, monkeypatch):
    sizes = []

    class InlinePool:
        """Records the requested size and runs the jobs in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    compiled = []
    compile_system = fp.compile_system

    def counted(*args):
        compiled.append(args)
        return compile_system(*args)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(fp, "compile_system", counted)
    argv = ["enumerate", "L1", "--op", "nijenhuis", "--limit", "0",
            "--format", "json"]
    single = run(capsys, *argv, "--shards", "1")
    assert sizes == [] and len(compiled) == 1
    huge = run(capsys, *argv, "--shards", "100000")
    assert sizes == [min(16, os.cpu_count() or 1)]
    assert len(compiled) == 2   # once per sweep, not once per shard
    assert huge == single


def test_coverage_reports_charts(capsys):
    code, out, _ = run(capsys, "coverage", "L1", "--op", "nijenhuis",
                       "--field", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 128
    assert payload["covered"] == 64
    assert payload["chart_points_outside"] == 0
    assert payload["families_used"][0]["points"] == 64


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
