"""End-to-end checks of the command line entry point."""

import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import fqinv
from fqinv import cli
from fqinv.algebra import TensorElement, from_json, to_json
from fqinv.dickson import dickson_c, dickson_e, mui_q
from fqinv.field import make_field
from fqinv.fixedpoint import (
    DegreeRow,
    VerificationReport,
    hilbert_coeff,
    module_description,
    wilkerson_check,
)
from fqinv.groups import act, gens_standard

from conftest import F3


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dickson_top_invariant(capsys):
    code, out, _ = run(capsys, "dickson", "--n", "2", "--p", "3")
    assert code == 0
    assert from_json(out) == TensorElement.from_polynomial(dickson_e(F3, 2))


def test_dickson_bottom_coefficient_is_square(capsys):
    code, out, _ = run(capsys, "dickson", "--n", "2", "--p", "3",
                       "--index", "0")
    assert code == 0
    e2 = TensorElement.from_polynomial(dickson_e(F3, 2))
    assert from_json(out) == e2 * e2


def test_verify_named_case(capsys):
    code, out, _ = run(capsys, "verify", "--case", "f4_3",
                       "--max-degree", "30")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert len(data["rows"]) == 31


def test_order_with_cross_check(capsys):
    code, out, _ = run(capsys, "order", "--case", "e6_4", "--bfs")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 151632
    assert data["formula_order"] == 151632 and data["match"] is True


def test_order_formula_only(capsys):
    code, out, _ = run(capsys, "order", "--case", "sl(3,3)")
    assert code == 0
    assert json.loads(out) == {
        "case": "sl(3,3)", "order": 5616, "method": "formula"}


def test_mui_determinant_form(capsys):
    code, out, _ = run(capsys, "mui", "--n", "2", "--p", "3", "--I", "0,1")
    assert code == 0
    assert from_json(out) == mui_q(F3, (0, 1), 2)


def test_mui_bracket_needs_rank(capsys):
    code, _, err = run(capsys, "mui", "--n", "2", "--p", "3", "--I", "0",
                       "--det-form")
    assert code == 2
    assert "usage" in err


def test_opoly_matches_library(capsys):
    code, out, _ = run(capsys, "opoly", "--n", "3", "--p", "3", "--i", "1")
    assert code == 0
    from fqinv.dickson import o_poly
    assert from_json(out) == TensorElement.from_polynomial(o_poly(F3, 3, 1))


def test_fixed_dim_command(capsys):
    code, out, _ = run(capsys, "fixed-dim", "--case", "sl(2,3)", "--d", "8")
    assert code == 0
    assert json.loads(out) == {"case": "sl(2,3)", "d": 8, "dim": 1}


def test_act_applies_generator(tmp_path, capsys):
    u = TensorElement.from_polynomial(dickson_c(F3, 2, 1))
    src = tmp_path / "in.json"
    src.write_text(to_json(u), encoding="utf-8")
    code, out, _ = run(capsys, "act", "--case", "gl(2,3)",
                       "--input", str(src), "--generator", "2")
    assert code == 0
    g = gens_standard("gl", 2, F3).generators[2]
    assert from_json(out) == act(g, u)


def test_act_rejects_wrong_field(tmp_path, capsys):
    u = TensorElement.from_polynomial(dickson_e(make_field(5), 2))
    src = tmp_path / "in.json"
    src.write_text(to_json(u), encoding="utf-8")
    code, _, err = run(capsys, "act", "--case", "sl(2,3)",
                       "--input", str(src), "--generator", "0")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("key, value", [
    ("c", 1.5), ("exp", 1.7), ("ext", 1.9), ("c", "2"), ("exp", True)])
def test_act_rejects_non_integer_values(tmp_path, capsys, key, value):
    data = json.loads(to_json(TensorElement.dx(F3, 2, (1,))))
    data["terms"][0][key][0] = value
    src = tmp_path / "in.json"
    src.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "act", "--case", "sl(2,3)",
                         "--input", str(src), "--generator", "0")
    # a bare exception would escape main() here instead of exiting 2
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("content", [b"[" * 100000, b"\xff\xfe{}"],
                         ids=["nested-too-deep", "not-utf8"])
def test_act_rejects_undecodable_input(tmp_path, capsys, content):
    src = tmp_path / "in.json"
    src.write_bytes(content)
    code, out, err = run(capsys, "act", "--case", "e7_4",
                         "--input", str(src), "--generator", "0")
    # a RecursionError or UnicodeDecodeError would escape main() with a
    # traceback and exit 1, the mismatch code
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_act_rejects_bad_generator_index(tmp_path, capsys):
    src = tmp_path / "in.json"
    src.write_text(to_json(TensorElement.dx(F3, 2, (1,))), encoding="utf-8")
    code, _, err = run(capsys, "act", "--case", "sl(2,3)",
                       "--input", str(src), "--generator", "7")
    assert code == 2 and "error" in err


def test_usage_errors_exit_two(capsys):
    for argv in (
        ["dickson", "--n", "2", "--p", "4"],
        ["dickson", "--n", "2", "--p", "3", "--index", "5"],
        ["verify", "--case", "so(2,3)", "--max-degree", "4"],
        ["dickson", "--n", "2"],
        ["wrong-command"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err, argv


@pytest.mark.parametrize("argv", [
    ["dickson", "--n", "0", "--p", "3"],
    ["dickson", "--n", "2", "--p", "3", "--e", "4"],
    ["dickson", "--n", "1", "--p", "3", "--e", "2", "--modulus", "1,1"],
    ["fixed-dim", "--case", "sl(2,3)", "--degree", "-1"],
    ["verify", "--case", "sl(2,3)", "--max-degree", "-1"],
    # the witness refuses q^(n-1) = 729 factors before the solver runs
    ["verify", "--case", "parabolic(7,3)", "--max-degree", "0"],
    # degree 7 passes the basis cap; refused before any degree is solved
    ["verify", "--case", "sl(20,3)"],
    # 2^30 module basis degrees are refused before they are listed
    ["verify", "--case", "sl(30,3)", "--max-degree", "2"],
    ["mui", "--n", "3", "--p", "3", "--I", "1,0"],
    ["mui", "--n", "3", "--p", "3", "--I", "0", "--det-form", "--r", "1"],
    ["order", "--case", "e7_4", "--bfs", "--cap", "-5"],
    ["order", "--case", "e7_4", "--bfs", "--cap", "0"],
], ids=" ".join)
def test_bad_arguments_exit_two_with_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "exceeded" not in err


# SHA-256 of `fqinv opoly --n 4 --p 5 --i 1` as the tuple-keyed
# multiplication printed it, before packed monomials
OPOLY_4_5_SHA256 = \
    "75fd6945ebe74cec0f9f27e8a1d701a3a5a1ab86f58711b003d1c32729095198"


def run_module(module, *argv, preexec_fn=None, **env):
    """The finished `python -m module argv` in a fresh interpreter that
    imports this checkout's fqinv, with env added to the environment;
    preexec_fn runs in the child before it starts."""
    src = str(Path(fqinv.__file__).resolve().parent.parent)
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", module, *argv],
                          capture_output=True, env=env, timeout=300,
                          preexec_fn=preexec_fn)


def _one_gigabyte_of_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_fixed_dim_at_a_high_degree_fits_one_gigabyte():
    # the solver substitutes K0's support only; building every degree-299
    # monomial's action ran out of a 4 GB limit here
    proc = run_module("fqinv", "fixed-dim", "--case", "gl(3,7)", "--degree",
                      "598", preexec_fn=_one_gigabyte_of_address_space,
                      OPENBLAS_NUM_THREADS="1")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["dim"] == hilbert_coeff(
        module_description("gl(3,7)"), 598)


def stdout_under_hash_seeds(*argv, blas_threads=()):
    """stdout of the command in fresh interpreters under PYTHONHASHSEED
    0, 1 and 2, then under each OPENBLAS_NUM_THREADS in blas_threads;
    asserts they are all byte-identical."""
    envs = [{"PYTHONHASHSEED": hash_seed} for hash_seed in ("0", "1", "2")]
    envs += [{"OPENBLAS_NUM_THREADS": threads} for threads in blas_threads]
    outputs = []
    for env in envs:
        proc = run_module("fqinv.cli", *argv, **env)
        assert proc.returncode == 0, (env, proc.stderr)
        outputs.append(proc.stdout)
    assert outputs.count(outputs[0]) == len(outputs)
    return outputs[0]


def test_python_dash_m_fqinv_runs_the_cli(capsys):
    argv = ("order", "--case", "f4_3", "--bfs")
    proc = run_module("fqinv", *argv)
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert proc.stdout.decode() == out
    assert json.loads(out)["match"] is True


def test_opoly_output_ignores_the_hash_seed():
    # the 125-factor product runs the multiplication kernel end to end
    out = stdout_under_hash_seeds("opoly", "--n", "4", "--p", "5", "--i", "1")
    assert hashlib.sha256(out).hexdigest() == OPOLY_4_5_SHA256


# SHA-256 of each command's stdout as the tuple-keyed substitution and
# multiplication printed it.  The solver's float64 products must be exact
# whatever order OpenBLAS sums them in, so the solver's entries also run
# with one and with two BLAS threads.
@pytest.mark.parametrize("argv, sha256, blas_threads", [
    # fixed dimensions to degree 30 plus invariance of the sl basis, which
    # runs the substitution kernel through tensor_act
    (("verify", "--case", "sl(3,3)"),
     "fdde7ba3d8c2130432aee6e5241423db7fa3d626a5ac5a6a9d36b6c500380c2c",
     ("1", "2")),
    (("mui", "--n", "4", "--p", "3", "--I", "0,2"),
     "d9c0074b51bdbf4e185fd177511513f74997aca929e6c6e14d1407af354b833f",
     ()),
    # the solver's orbit kernel of two monomial generators, cut down by
    # transvections through block action columns; pinned to the output of
    # the solver that intersected one generator at a time
    (("fixed-dim", "--case", "e7_4", "--degree", "36"),
     "0a44341eb99c2515b048669e1b1e66437c6c0e9af6df2d051ecf7c110bf34a27",
     ("1", "2")),
    (("verify", "--case", "e7_4", "--max-degree", "20"),
     "6c38ac7a4adf74cf9baa3f068ece49220304b1bf8025d0dd73b957109ff340f4",
     ("1", "2")),
], ids=["verify", "mui", "fixed-dim-e7_4", "verify-e7_4"])
def test_output_ignores_the_hash_seed(argv, sha256, blas_threads):
    out = stdout_under_hash_seeds(*argv, blas_threads=blas_threads)
    assert hashlib.sha256(out).hexdigest() == sha256


BENCH_DIGESTS = Path(__file__).resolve().parent.parent / "perfbench" / \
    "digests.json"


# The benchmark's `series` jobs that no test above pins.  The benchmark
# records the SHA-256 of each job's output, the compact key-sorted JSON of
# its exit code and stdout, and fails a run whose output differs.
@pytest.mark.parametrize("argv", [
    ("verify", "--case", "e6_4", "--max-degree", "20"),
    ("verify", "--case", "e7_4", "--max-degree", "20"),
    ("verify", "--case", "e8_p5_3", "--max-degree", "30"),
    ("order", "--case", "e7_4", "--bfs"),
    ("order", "--case", "e8_p5_3", "--bfs"),
], ids=lambda argv: " ".join(argv[:3]))
def test_benchmark_outputs_match_their_recorded_digests(capsys, argv):
    code, out, _ = run(capsys, *argv)
    text = json.dumps({"rc": code, "stdout": out}, sort_keys=True,
                      separators=(",", ":"))
    want = json.loads(BENCH_DIGESTS.read_text())["cli: " + " ".join(argv)]
    assert hashlib.sha256(text.encode()).hexdigest() == want


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "dickson" in out and "verify" in out


def test_output_is_byte_deterministic(capsys):
    _, first, _ = run(capsys, "mui", "--n", "3", "--p", "3", "--I", "0,2")
    _, second, _ = run(capsys, "mui", "--n", "3", "--p", "3", "--I", "0,2")
    assert first == second
    parsed = json.loads(first)
    assert json.dumps(parsed, separators=(",", ":")) + "\n" == first


def test_out_flag_writes_file(tmp_path, capsys):
    dest = tmp_path / "result.json"
    code, out, _ = run(capsys, "dickson", "--n", "1", "--p", "5",
                       "--out", str(dest))
    assert code == 0 and out == ""
    assert from_json(dest.read_text(encoding="utf-8")) == \
        TensorElement.from_polynomial(dickson_e(make_field(5), 1))


def test_pretty_renderings(capsys):
    code, out, _ = run(capsys, "dickson", "--n", "2", "--p", "3", "--pretty")
    assert code == 0
    assert out.strip() == "x1^3*x2 + 2*x1*x2^3"
    code, out, _ = run(capsys, "verify", "--case", "sl(2,3)",
                       "--max-degree", "6", "--pretty")
    assert code == 0
    assert "result: PASS" in out and "degree" in out


def test_pretty_uses_t_names_for_named_cases(tmp_path, capsys):
    src = tmp_path / "in.json"
    src.write_text(to_json(TensorElement.dx(F3, 3, (1,))), encoding="utf-8")
    code, out, _ = run(capsys, "act", "--case", "f4_3", "--input", str(src),
                       "--generator", "0", "--pretty")
    assert code == 0
    assert "t1" in out or "dt1" in out
    code, out, _ = run(capsys, "act", "--case", "sl(3,3)", "--input", str(src),
                       "--generator", "0", "--pretty")
    assert code == 0
    assert "dx1" in out and "t" not in out


def test_verify_mismatch_exits_one(capsys, monkeypatch):
    rep = VerificationReport(
        case="sl(2,3)",
        rows=(DegreeRow(0, 1, 2),),
        invariance=(),
        wilkerson=wilkerson_check("sl(2,3)"),
    )
    monkeypatch.setattr(cli, "verify_module", lambda *a, **k: rep)
    code, out, _ = run(capsys, "verify", "--case", "sl(2,3)",
                       "--max-degree", "0")
    assert code == 1
    assert json.loads(out)["ok"] is False
    code, out, _ = run(capsys, "verify", "--case", "sl(2,3)",
                       "--max-degree", "0", "--pretty")
    assert code == 1
    assert "MISMATCH" in out and "result: FAIL" in out


def test_extension_field_flags(capsys):
    code, out, _ = run(capsys, "dickson", "--n", "1", "--p", "3", "--e", "2",
                       "--modulus", "1,0,1")
    assert code == 0
    f9 = make_field(3, 2, [1, 0, 1])
    assert from_json(out) == TensorElement.from_polynomial(dickson_e(f9, 1))
