"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest perfbench

They run every workload at its smallest size, and feed the output checks
deliberately corrupted answers to show that the checks reject them.
"""

import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import run
import tracer
from workloads import WORKLOADS, Workload, make_batch

sys.path.insert(0, run.SRC)

from fanoconic import cli  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

# Every workload at its smallest size.
SMALLEST = {
    "verify-default": Workload("verify-default", "verify", perturb=False, samples=1),
    "verify-perturb": Workload("verify-perturb", "verify", perturb=True, samples=1),
    "class-queries": Workload("class-queries", "queries", cert_ms=(2,),
                              grid_per_m=2, big_a=(40,)),
}


def answer(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@pytest.fixture(autouse=True)
def few_setups(monkeypatch):
    monkeypatch.setattr(run, "MIN_SETUPS", 1)


# -- every workload end to end, at its smallest size -------------------------


@pytest.mark.parametrize("name", sorted(SMALLEST))
def test_workload_runs_and_passes_its_checks(name):
    result, _ = run.measure(SMALLEST[name], seed=5, seconds=0, trace=False)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 2
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == wanted
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", ["verify-default", "class-queries"])
def test_traced_run_prints_every_layer_metric(name):
    result, _ = run.measure(SMALLEST[name], seed=5, seconds=0, trace=True)
    assert result["correct"] is True and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    self_times = sum(v for k, v in metrics.items()
                     if k.endswith("self_s") or k in ("cli.render_s", "cli.build_parser_s",
                                                      "trace.unattributed_s"))
    assert self_times <= metrics["trace.batch_s"] + 1e-6
    assert metrics["trace.batch_s"] <= metrics["trace.traced_wall_s"]
    assert all(isinstance(v, int) for k, v in metrics.items() if k.endswith(".calls"))
    if name == "verify-default":
        assert metrics["polynomial.eval.calls"] > 0
        assert metrics["verifier.line_probe.nodes"] == metrics["linalg.det3.calls"]
        assert metrics["coxring.base_locus.calls"] == 0
    else:
        assert metrics["coxring.base_locus.calls"] > 0
        assert metrics["polynomial.eval.calls"] == 0


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "class-queries",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def test_inputs_depend_only_on_the_seed():
    for workload in WORKLOADS.values():
        assert make_batch(workload, 3) == make_batch(workload, 3)
        assert make_batch(workload, 3) != make_batch(workload, 4)


# -- the verify checks reject corrupted reports -------------------------------

VERIFY_ARGV = ["verify", "--m", "2", "--seed", "11", "--samples", "2",
               "--coeff-range", "100", "--format", "json"]


@pytest.fixture(scope="module")
def report():
    code, stdout = answer(VERIFY_ARGV)
    assert code == 0
    return json.loads(stdout)


def verify_problems(doc):
    return checks.check_verify(VERIFY_ARGV, 0, json.dumps(doc), checks.program_sections)


def test_real_report_passes(report):
    assert verify_problems(report) == []


def corrupt_v_fiber(doc):
    doc["v_fibers"]["samples"][0]["fiber"] = "LINE_PAIR"


def corrupt_generic_fiber(doc):
    # consistent counts, so only the independent re-diagnosis can notice
    g = doc["generic_fibers"]
    g["samples"][0].update(fiber="LINE_PAIR", node_smooth=True)
    g["smooth_conic"] -= 1
    g["line_pair"] += 1
    g["line_pair_smooth"] += 1


def corrupt_sigma_flag(doc):
    doc["v_fibers"]["samples"][1]["sigma_nonzero"] = False


def corrupt_fiber_line_degree(doc):
    doc["fiber_lines"]["samples"][0]["degree"] = 5


def corrupt_chart_line(doc):
    doc["chart_lines"]["samples"][1]["squarefree"] = False


def corrupt_boundary_identity(doc):
    doc["boundary_identity"] = "FAIL"


def corrupt_lam_terms(doc):
    doc["section_terms"]["lam2"] -= 1


def corrupt_double_line_count(doc):
    doc["v_fibers"]["double_line"] -= 1


def corrupt_unpaired_node(doc):
    g = doc["generic_fibers"]
    g["smooth_conic"] -= 1
    g["line_pair"] += 1


@pytest.mark.parametrize("corrupt", [
    corrupt_v_fiber, corrupt_generic_fiber, corrupt_sigma_flag,
    corrupt_fiber_line_degree, corrupt_chart_line, corrupt_boundary_identity,
    corrupt_lam_terms, corrupt_double_line_count, corrupt_unpaired_node,
])
def test_corrupted_report_is_rejected(report, corrupt):
    doc = copy.deepcopy(report)
    corrupt(doc)
    assert verify_problems(doc)


def test_failed_or_garbled_verify_is_rejected(report):
    assert checks.check_verify(VERIFY_ARGV, 1, json.dumps(report), checks.program_sections)
    assert checks.check_verify(VERIFY_ARGV, 0, "{", checks.program_sections)


# -- the class-query checks reject wrong answers -------------------------------


def test_real_query_answers_pass():
    for argv in make_batch(SMALLEST["class-queries"], 8):
        assert checks.check_query(argv, *answer(argv)) == []


@pytest.mark.parametrize("argv, edit", [
    (["baselocus", "--m", "2", "--class=3D-5H", "--format", "json"],
     lambda d: d.update(strata=["EMPTY"])),
    (["baselocus", "--m", "3", "--class=2D+1H", "--format", "json"],
     lambda d: d.update(strata=["V"])),
    (["baselocus", "--m", "5", "--class=1D-11H", "--format", "json"],
     lambda d: d.update(strata=["V"])),
    (["h0", "--m", "2", "--class=2D-2H", "--format", "json"],
     lambda d: d.update(h0=d["h0"] + 1)),
    (["classify", "--m", "2", "--class=1D-1H", "--format", "json"],
     lambda d: d.update(nef=True)),
    (["classify", "--m", "3", "--class=-1D+4H", "--format", "json"],
     lambda d: d.update(effective=True)),
    (["certificate", "--m", "3", "--format", "json"],
     lambda d: d["classes"].update(Delta="6D-8H")),
    (["certificate", "--m", "2", "--format", "json"],
     lambda d: d["dims"].update(dim_X=8)),
    (["certificate", "--m", "2", "--format", "json"],
     lambda d: d["classes_on_Z"].update(antiK_Z_minus_X="1ξ+0D+0H")),
    (["certificate", "--m", "4", "--format", "json"],
     lambda d: d["checks"][0].update({"pass": False})),
])
def test_wrong_query_answer_is_rejected(argv, edit):
    code, stdout = answer(argv)
    assert checks.check_query(argv, code, stdout) == []
    doc = json.loads(stdout)
    edit(doc)
    assert checks.check_query(argv, code, json.dumps(doc))


def test_query_exit_code_is_checked():
    argv = ["h0", "--m", "2", "--class=1D+0H", "--format", "json"]
    assert checks.check_query(argv, 2, "")


def test_independent_counts_agree():
    for m in (2, 3):
        for a in range(0, 3):
            for b in range(-2 * m * a - 1, 3):
                assert checks.h0_double_sum(m, a, b) == checks.monomial_count(m, a, b)


def test_changed_rerun_counts_as_failed():
    argv = ["h0", "--m", "2", "--class=1D+0H", "--format", "json"]
    ledger = run.Ledger(SMALLEST["class-queries"], [argv])
    good = answer(argv)
    ledger.record([good])
    assert (ledger.attempted, ledger.failed) == (1, 0)
    ledger.record([(0, good[1].replace("\n}", ",\n\"extra\": 1\n}"))])
    assert (ledger.attempted, ledger.failed) == (2, 1)


# -- tracing ------------------------------------------------------------------


def test_self_time_subtracts_direct_children():
    spans = [
        (2, 1, "verifier.discriminant_on_line", 1.0, 3.0, 1),
        (3, 2, "linalg.det3", 1.5, 2.0, None),
        (4, 2, "polynomial.eval", 2.0, 2.5, 10),
        (1, 0, tracer.ROOT, 0.0, 4.0, None),
    ]
    metrics = tracer.layer_metrics(spans)
    assert metrics["verifier.discriminant_on_line.self_s"] == pytest.approx(1.0)
    assert metrics["polynomial.eval.terms"] == 10
    assert metrics["verifier.line_probe.nodes"] == 1
    assert metrics["trace.unattributed_s"] == pytest.approx(2.0)
    assert metrics["trace.self_sum_s"] == pytest.approx(4.0)


def test_install_and_restore_leave_the_package_unchanged():
    from fanoconic import polynomial, verifier

    before = (verifier.discriminant_on_line, polynomial.Poly.eval, cli.json)
    t = tracer.Tracer()
    t.install()
    try:
        assert verifier.discriminant_on_line is not before[0]
        code, _ = answer(["h0", "--m", "2", "--class=1D+0H", "--format", "json"])
        assert code == 0
    finally:
        t.restore()
    assert (verifier.discriminant_on_line, polynomial.Poly.eval, cli.json) == before
    names = {s[2] for s in t.spans}
    assert {"coxring.count_sections", "cli.render"} <= names
