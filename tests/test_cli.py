"""Command-line behavior: exit codes, document shapes, determinism."""

import json
import os
import resource
import subprocess
import sys
import time

import pytest

import fanoconic
from fanoconic.cli import MAX_COEFF_RANGE, MAX_SAMPLES, build_parser, main
from fanoconic.conicbundle import build_certificate
from fanoconic.cones import classify
from fanoconic.coxring import base_locus
from fanoconic.picard import ConstructionParams, DivisorClassY, parse_divisor_class
from fanoconic.verifier import run_instance

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fanoconic.__file__)))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _cap_memory():
    # 1 GiB of address space: an unguarded draw fails fast instead of
    # exhausting the machine
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_cli_process(*argv, python_flags=(), timeout=60):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "fanoconic.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
        preexec_fn=_cap_memory)


# -- exit codes -------------------------------------------------------------


def test_certificate_exits_zero(capsys):
    code, out, err = run_cli(capsys, "certificate", "--m", "2")
    assert code == 0
    assert "valid: True" in out
    assert err == ""


def test_rejects_m_below_two(capsys):
    code, out, err = run_cli(capsys, "certificate", "--m", "1")
    assert code == 2
    assert "error:" in err


def test_rejects_garbage_class(capsys):
    code, out, err = run_cli(capsys, "baselocus", "--m", "2", "--class", "2X+1")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("cls_", ["2D3H", "DD", "HD", "D H", "3H2D"])
def test_rejects_terms_not_joined_by_a_sign(capsys, cls_):
    code, out, err = run_cli(capsys, "baselocus", "--m", "2", "--class", cls_)
    assert (code, out) == (2, "")
    assert err == f"error: cannot parse divisor class {cls_!r}\n"


@pytest.mark.parametrize("cls_", ["1 2D", "D+1 2H", "١٢D", "D+٣H"])
def test_rejects_split_and_non_ascii_numbers(capsys, cls_):
    code, out, err = run_cli(capsys, "baselocus", "--m", "2", "--class", cls_)
    assert (code, out) == (2, "")
    assert err == f"error: cannot parse divisor class {cls_!r}\n"


@pytest.mark.parametrize("cls_, shown", [
    ("D+D-H", "2D-1H"), (" 3 D + 2 H ", "3D+2H"), ("2D−4H", "2D-4H"),
])
def test_accepts_terms_joined_by_a_sign(capsys, cls_, shown):
    code, out, err = run_cli(capsys, "baselocus", "--m", "2", "--class", cls_,
                             "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["class"] == shown


def test_rejects_missing_subcommand(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_rejects_unknown_subcommand(capsys):
    assert main(["frobnicate", "--m", "2"]) == 2
    capsys.readouterr()


def test_rejects_bad_sample_count(capsys):
    code, out, err = run_cli(capsys, "verify", "--m", "2", "--samples", "0")
    assert code == 2
    assert "samples" in err


def test_rejects_sample_count_above_the_cap(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--m", "2",
                             "--samples", str(MAX_SAMPLES + 1))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error: --samples must be at most 10000\n"


def test_rejects_bad_coeff_range(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--m", "2", "--samples", "1", "--coeff-range", "0"
    )
    assert code == 2


def test_rejects_coeff_range_above_the_cap(capsys):
    # 10**9 is drawn; one more is refused before anything is drawn
    code, out, err = run_cli(capsys, "verify", "--m", "2", "--samples", "1",
                             "--coeff-range", str(MAX_COEFF_RANGE))
    assert code in (0, 1) and out
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--m", "2", "--samples", "1",
                             "--coeff-range", str(MAX_COEFF_RANGE + 1))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error: --coeff-range must be at most 1000000000\n"


def test_m_is_checked_before_the_class_and_the_options(capsys):
    for argv in (("baselocus", "--m", "1", "--class", "2X+1"),
                 ("verify", "--m", "1", "--samples", "0")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert "m must be at least 2" in err


HUGE_M = 10**22


@pytest.mark.parametrize("command", [
    ("certificate",), ("cones",), ("verify", "--samples", "1"),
    ("baselocus", "--class", "3D-4H"), ("classify", "--class", "3D-4H"),
    ("h0", "--class", "3D-4H"),
])
def test_every_command_answers_or_refuses_at_huge_m(command):
    proc = run_cli_process(*command, "--m", str(HUGE_M), timeout=30)
    assert proc.returncode in (0, 2)
    assert "Traceback" not in proc.stderr


def test_certificate_at_huge_m_passes_every_check(capsys):
    # three Cox degrees cut the chambers, so no list of 3m + 4 degrees is built
    code, out, _ = run_cli(capsys, "certificate", "--m", str(HUGE_M), "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert [c["pass"] for c in doc["checks"]] == [True] * 29
    assert doc["cones"]["walls"] == [[0, 1], [1, 0], [1, -2 * HUGE_M]]


@pytest.mark.parametrize("argv", [("--m", "4"), ("--m", "3", "--perturb"),
                                  ("--m", "100000")])
def test_rejects_oversize_section_draw(argv):
    proc = run_cli_process("verify", *argv, timeout=30)
    assert proc.returncode == 2
    assert "above the limit" in proc.stderr
    assert proc.stdout == ""


def test_oversize_refusal_does_not_count_every_section(capsys):
    # the exact count at m = 100000 has hundreds of thousands of digits
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--m", "100000", "--samples", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "above the limit" in err
    assert out == ""


def test_h0_refuses_a_count_too_long_to_print(capsys):
    # the exact count has hundreds of thousands of digits, beyond what
    # str() may print; its largest binomial alone passes that, so the
    # count gives up at once
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "h0", "--m", "100000", "--class", "2D")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert f"more than {sys.get_int_max_str_digits()} digits" in err
    assert out == ""


def test_h0_of_a_large_class_answers_at_once(capsys):
    # the binomial sum over all 10^7 + 1 y-splits gives this count too,
    # in about ten seconds
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "h0", "--m", "2", "--class", "10000000D")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out.endswith(
        "h0(10000000D+0H) = 71111190349242793659726985385428674028576078571535000001\n")


@pytest.mark.parametrize("digits, code", [(0, 0), (20, 0), (19, 2)])
def test_h0_prints_every_count_within_the_digit_limit(capsys, monkeypatch, digits, code):
    # h0(300D-1H) at m = 2 has 20 digits
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: digits)
    got, out, _ = run_cli(capsys, "h0", "--m", "2", "--class", "300D-1H")
    assert got == code
    assert ("= 48140984526105405700" in out) == (code == 0)


# -- documents --------------------------------------------------------------


def test_certificate_json(capsys):
    code, out, _ = run_cli(capsys, "certificate", "--m", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["m"] == 4
    assert doc["dims"]["dim_X"] == 15
    assert doc["valid"] is True
    assert len(doc["checks"]) == 29


def test_h0_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "h0", "--m", "2", "--class", "D")
    assert code == 0
    assert "h0(1D+0H) = 421" in out
    code, out, _ = run_cli(
        capsys, "h0", "--m", "2", "--class", "D", "--format", "json"
    )
    assert json.loads(out) == {"m": 2, "class": "1D+0H", "h0": 421}


def test_h0_accepts_loose_class_spelling(capsys):
    code, out, _ = run_cli(capsys, "h0", "--m", "2", "--class", "2D−4H")
    assert code == 0
    assert "h0(2D-4H) = 632" in out


def test_baselocus_document(capsys):
    code, out, _ = run_cli(
        capsys, "baselocus", "--m", "2", "--class", "2D-8H", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["strata"] == ["V"]
    assert doc["raw_primes"] == [["y1", "y2"]]
    code, out, _ = run_cli(capsys, "baselocus", "--m", "2", "--class", "2D-8H")
    assert "strata: V" in out
    assert "minimal primes: y1,y2" in out


def test_classify_document(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--m", "2", "--class", "3D-1H", "--format", "json"
    )
    doc = json.loads(out)
    assert doc == {
        "m": 2,
        "class": "3D-1H",
        "effective": True,
        "big": True,
        "movable": True,
        "nef": False,
        "ample": False,
    }
    code, out, _ = run_cli(capsys, "classify", "--m", "2", "--class", "3D-1H")
    assert "3D-1H: effective, big, movable, not nef, not ample" in out


def test_cones_document(capsys):
    code, out, _ = run_cli(capsys, "cones", "--m", "2", "--format", "json")
    doc = json.loads(out)
    assert doc["nef_rays"] == [[1, 0], [0, 1]]
    assert doc["effective_rays"] == [[1, -4], [0, 1]]
    assert doc["walls"] == [[0, 1], [1, 0], [1, -4]]
    assert doc["interior_walls"] == [[1, 0]]
    assert doc["interior_wall_classes"] == ["1D+0H"]
    assert [c["label"] for c in doc["chambers"]] == ["NEF_Y", "FLIP_CHAMBER"]
    code, out, _ = run_cli(capsys, "cones", "--m", "2")
    assert "interior walls: 1D+0H" in out
    assert "chamber NEF_Y: rays (1,0), (0,1)" in out


def test_verify_small_run(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--m", "2", "--samples", "2", "--seed", "7",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["seed"] == 7
    assert doc["v_fibers"]["double_line"] == 2


def test_verify_text_run(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--m", "2", "--samples", "2", "--seed", "7"
    )
    assert code == 0
    assert "V fibers: 2/2 double lines" in out
    assert "boundary identity dF|_W: PASS" in out
    assert "passed: True" in out


# -- the library answer is the printed document ----------------------------


@pytest.mark.parametrize("argv, answer", [
    (("certificate", "--m", "2"), lambda: build_certificate(ConstructionParams(2))),
    (("certificate", "--m", "5"), lambda: build_certificate(ConstructionParams(5))),
    (("verify", "--m", "2", "--samples", "2", "--seed", "7"),
     lambda: run_instance(ConstructionParams(2), seed=7, n_samples=2)),
    (("verify", "--m", "2", "--samples", "1", "--seed", "3", "--coeff-range", "5",
      "--perturb"),
     lambda: run_instance(ConstructionParams(2), seed=3, n_samples=1,
                          coeff_range=5, perturb=True)),
])
def test_document_is_the_library_answer(capsys, argv, answer):
    _, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert json.loads(out) == answer()


@pytest.mark.parametrize("command, query", [
    ("baselocus", base_locus), ("classify", classify),
])
@pytest.mark.parametrize("m, cls_", [
    (2, "2D-8H"), (2, "3D-1H"), (3, "1D+0H"), (3, "-1D+2H"), (2, "0D+0H"),
])
def test_class_query_document_is_the_library_answer(capsys, command, query, m, cls_):
    _, out, _ = run_cli(capsys, command, "--m", str(m), f"--class={cls_}",
                        "--format", "json")
    params = ConstructionParams(m)
    assert json.loads(out) == {"m": m, **query(parse_divisor_class(cls_), params)}


def test_answers_are_built_afresh():
    # a caller may change what it gets; the next answer must not see it
    params = ConstructionParams(2)
    cls_ = DivisorClassY(2, -8)
    for answer in (lambda: build_certificate(params),
                   lambda: run_instance(params, seed=7, n_samples=1),
                   lambda: base_locus(cls_, params),
                   lambda: classify(cls_, params)):
        first, expected = answer(), json.dumps(answer())
        _scribble(first)
        assert json.dumps(answer()) == expected


def _scribble(doc):
    # change every dict and list in place, nested ones included
    items = list(doc.values()) if isinstance(doc, dict) else list(doc)
    for item in items:
        if isinstance(item, (dict, list)):
            _scribble(item)
    if isinstance(doc, dict):
        doc["scribbled"] = True
    else:
        doc.append("scribbled")


# -- determinism ------------------------------------------------------------


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_certificate_output_is_reproducible(capsys, fmt):
    _, first, _ = run_cli(capsys, "certificate", "--m", "3", "--format", fmt)
    _, second, _ = run_cli(capsys, "certificate", "--m", "3", "--format", fmt)
    assert first == second


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_output_is_reproducible(capsys, fmt):
    argv = ("verify", "--m", "2", "--samples", "2", "--seed", "5",
            "--format", fmt)
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


# every subcommand, a usage error argparse reports, one the command reports,
# and --help
ONE_PROCESS_ARGVS = (
    ("certificate", "--m", "2"),
    ("verify", "--m", "2", "--samples", "1", "--seed", "3", "--format", "json"),
    ("baselocus", "--m", "2", "--class", "3D-4H"),
    ("classify", "--m", "3", "--class", "2D-9H", "--format", "json"),
    ("h0", "--m", "2", "--class", "3D-4H"),
    ("cones", "--m", "2", "--format", "json"),
    ("h0", "--m", "2"),
    ("verify", "--m", "2", "--samples", "0"),
    ("baselocus", "--help"),
)


def test_second_call_in_one_process_answers_the_same(capsys):
    # the parser is built once per process, so no call may leave state in it
    rounds = [[run_cli(capsys, *argv) for argv in ONE_PROCESS_ARGVS
               for _ in range(2)] for _ in range(2)]
    assert rounds[0] == rounds[1]
    answers = rounds[0]
    assert answers[0::2] == answers[1::2]
    assert [code for code, _, _ in answers[0::2]] == [0, 0, 0, 0, 0, 0, 2, 2, 0]
    assert build_parser() is build_parser()


@pytest.mark.parametrize("argv", [
    ("verify", "--m", "2", "--samples", "2", "--seed", "7", "--format", "json"),
    ("verify", "--m", "2", "--samples", "2", "--seed", "7", "--perturb", "--format", "json"),
    ("certificate", "--m", "2", "--format", "json"),
], ids=["verify", "verify-perturb", "certificate"])
def test_output_survives_optimized_mode(argv):
    # python -O strips assert statements; no invariant may hang on one
    plain = run_cli_process(*argv)
    optimized = run_cli_process(*argv, python_flags=("-O",))
    assert plain.returncode == optimized.returncode == 0
    assert optimized.stdout == plain.stdout
