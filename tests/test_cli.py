import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from axcat import (
    SpecConfig,
    build_events,
    check_isolation,
    corpus_dir,
    load_model,
    parse_program,
    propagate_values,
    unroll,
)
from axcat.cli import RunSpec, main, run, run_corpus
from axcat.engine import candidate_consistent, violating_load
from axcat.events import secret_sentinel

SRC = Path(__file__).resolve().parent.parent / "src"


def corpus_file(name):
    return str(corpus_dir() / f"{name}.litmus")


def test_run_safe_exit_code(capsys):
    code, record = run(RunSpec(program=corpus_file("pht-01"), model="inorder",
                               mode="traditional"))
    assert code == 0
    assert record["outcome"] == "safe"
    assert capsys.readouterr().out.startswith("SAFE")


def test_run_unsafe_exit_code_and_artifacts(tmp_path, capsys):
    spec = RunSpec(
        program=corpus_file("pht-01"), model="inorder", mode="speculative", w=8,
        dot=str(tmp_path / "w.dot"), smt=str(tmp_path / "q.smt2"),
        json_out=str(tmp_path / "v.json"),
    )
    code, record = run(spec)
    assert code == 1
    assert record["outcome"] == "unsafe"
    dot = (tmp_path / "w.dot").read_text()
    assert "e_s: secret" in dot
    smt = (tmp_path / "q.smt2").read_text()
    assert smt.startswith("; software-isolation query")
    blob = json.loads((tmp_path / "v.json").read_text())
    assert blob["outcome"] == "unsafe"
    assert blob["w_prime"] == 2
    assert {"program", "model", "mode", "k", "w", "candidates", "filtered",
            "elapsed_ms"} <= set(blob)
    # the witness rebuilt from its choice vector passes the filter pipeline
    # and reads the secret
    choices = blob["witness"]
    program = parse_program(Path(spec.program).read_text())
    model = load_model("inorder")
    cfg = SpecConfig(mode="speculative", window=8, buffer=2)
    x = build_events(unroll(program, spec.k),
                     {(t, label): taken for t, label, taken in choices["outcomes"]},
                     {(t, label): ok for t, label, ok in choices["predictions"]})
    x.rf_choice = {int(load): src for load, src in choices["rf"].items()}
    x.co_order = tuple(choices["co"])
    x.inputs = {int(a): v for a, v in choices["inputs"].items()}
    init = {a: 0 for a in program.declared_addresses()}
    init[program.secret_addr] = secret_sentinel(spec.bits)
    propagate_values(x, {**init, **x.inputs}, spec.bits)
    assert candidate_consistent(x, model, cfg) == (True, None)
    assert violating_load(x) is not None
    assert x.choices == check_isolation(program, model, cfg, spec.k, spec.bits).witness.choices


def test_run_unknown_exit_code():
    code, record = run(RunSpec(program=corpus_file("pht-05-fence"),
                               model="inorder", mode="speculative"))
    assert code == 2
    assert record["outcome"] == "unknown"


def test_mcu_verdict_through_cli():
    assert run(RunSpec(program=corpus_file("mcu-01"), model="tso",
                       mode="traditional"))[0] == 0
    assert run(RunSpec(program=corpus_file("mcu-01"), model="tso-mcu",
                       mode="traditional"))[0] == 1


def test_emit_smt_engine(tmp_path, capsys):
    out = tmp_path / "q.smt2"
    code, record = run(RunSpec(program=corpus_file("stl-01"), model="stl",
                               mode="traditional", engine="emit-smt",
                               smt=str(out), json_out=str(tmp_path / "v.json")))
    assert code == 0
    assert record["outcome"] == "emitted"
    assert "(check-sat)" in out.read_text()
    assert json.loads((tmp_path / "v.json").read_text()) == record


def test_usage_and_parse_errors(tmp_path, capsys):
    code, record = run(RunSpec(program=str(tmp_path / "missing.litmus")))
    assert code == 3
    bad = tmp_path / "bad.litmus"
    bad.write_text("layout X@0 secret@1\nthread 0:\n1: jmp 9\n")
    assert run(RunSpec(program=str(bad)))[0] == 3
    assert main(["--program", str(bad)]) == 3
    assert main([]) == 3  # --program is required
    capsys.readouterr()
    deep = tmp_path / "deep.litmus"
    deep.write_text("layout X@0 secret@1\n1: r1 <- " + "(" * 400 + "1" + ")" * 400 + "\n")
    assert main(["--program", str(deep)]) == 3
    assert "line 2: nested too deeply" in capsys.readouterr().err
    deep.write_text("layout X@0 secret@1\n1: r1 <- r0" + " + 1" * 1200 + "\n")
    assert main(["--program", str(deep)]) == 3
    assert "line 2: nested too deeply" in capsys.readouterr().err
    model = tmp_path / "deep.cat"
    model.write_text("acyclic " + "(" * 400 + "po" + ")" * 400 + "\n")
    assert main(["--program", corpus_file("pht-01"), "--model", str(model)]) == 3
    assert "line 1: nested too deeply" in capsys.readouterr().err
    model.write_text("acyclic po" + "^-1" * 500 + "\n")
    assert main(["--program", corpus_file("pht-01"), "--model", str(model)]) == 3
    assert "line 1: nested too deeply" in capsys.readouterr().err


def test_domain_error_exit_code(capsys):
    code, _ = run(RunSpec(program=corpus_file("pht-01"), bits=2))
    assert code == 3
    assert "domain" in capsys.readouterr().err


@pytest.mark.parametrize("engine", ["enumerate", "emit-smt"])
@pytest.mark.parametrize(
    "option,message",
    [
        (["-w", "0"], "speculation window must be >= 1"),
        (["--buffer", "0"], "store buffer size must be >= 1"),
        (["--bits", "1"], "domain of 1 bits cannot address 7"),
        (["--bits", "-1"], "domain width must be >= 0 bits, got -1"),
    ],
)
def test_bad_option_exit_code(capsys, engine, option, message):
    argv = ["--program", corpus_file("pht-01"), "--engine", engine, *option]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and message in lines[0]


def test_cli_matches_library_verdicts(capsys):
    for name, model_name, mode in [
        ("pht-01", "inorder", "speculative"),
        ("stl-02", "stl", "traditional"),
        ("psf-01", "psf", "speculative"),
    ]:
        program = parse_program((corpus_dir() / f"{name}.litmus").read_text())
        model = load_model(model_name)
        cfg = SpecConfig(mode=mode, window=8, buffer=2,
                         psf="srf" in model.base_names())
        direct = check_isolation(program, model, cfg, 2, 3).outcome
        code, record = run(RunSpec(program=corpus_file(name), model=model_name,
                                   mode=mode))
        assert record["outcome"] == direct
        capsys.readouterr()


def test_custom_model_path(tmp_path, capsys):
    custom = tmp_path / "my-inorder.cat"
    custom.write_text("com = co | rf | (rf^-1;co)\nacyclic com | po\n")
    code, record = run(RunSpec(program=corpus_file("pht-01"), model=str(custom),
                               mode="traditional"))
    assert code == 0 and record["model"] == "my-inorder"
    capsys.readouterr()


def test_model_the_export_cannot_translate_is_a_usage_error(tmp_path, capsys):
    model = tmp_path / "recdiff.cat"
    model.write_text("a = po | (a;po \\ rf^+)\nacyclic a\n")
    argv = ["--program", corpus_file("pht-01"), "--model", str(model),
            "--mode", "traditional", "--engine", "emit-smt"]
    assert main(argv) == 3
    assert "closure operators inside a recursive definition" in capsys.readouterr().err


def test_failed_export_prints_no_verdict(tmp_path, capsys):
    """With --smt on the enumerate engine the export is built before the
    verdict line is printed, so an export error leaves stdout empty."""
    model = tmp_path / "recdiff.cat"
    model.write_text("a = po | (a;po \\ rf^+)\nacyclic a\n")
    argv = ["--program", corpus_file("pht-01"), "--model", str(model),
            "--mode", "traditional", "--smt", str(tmp_path / "q.smt2"),
            "--json", str(tmp_path / "q.json")]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:")
    assert not (tmp_path / "q.smt2").exists() and not (tmp_path / "q.json").exists()


def test_huge_store_buffer_bound_is_fast(capsys):
    # win = [W];po;([W];po)^{<=w'-1};[R] takes O(log w') compositions
    verdicts = []
    for buffer in (100_000_000, 8):
        started = time.perf_counter()
        code, record = run(RunSpec(program=corpus_file("stl-02"), model="stl",
                                   mode="traditional", buffer=buffer))
        assert time.perf_counter() - started < 5
        verdicts.append((code, record["outcome"]))
    assert verdicts[0] == verdicts[1]
    capsys.readouterr()


def test_huge_store_buffer_bound_exports_fast(tmp_path):
    # the SMT export builds ([W];po)^{<=w'-1} by repeated squaring too
    out = tmp_path / "q.smt2"
    done = subprocess.run(
        [sys.executable, "-m", "axcat", "--program", corpus_file("stl-02"),
         "--model", "stl", "--mode", "traditional", "--buffer", "100000000",
         "--engine", "emit-smt", "--smt", str(out)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=10,
    )
    assert done.returncode == 0, done.stderr
    assert out.read_text().splitlines()[-2:] == ["(check-sat)", "(exit)"]


def test_huge_literal_bound_in_custom_model(tmp_path, capsys):
    custom = tmp_path / "deep.cat"
    custom.write_text("com = co | rf | (rf^-1;co)\n"
                      "far = po^{<=100000000}\n"
                      "acyclic com | po | far\n")
    started = time.perf_counter()
    code, record = run(RunSpec(program=corpus_file("pht-01"), model=str(custom),
                               mode="traditional"))
    assert time.perf_counter() - started < 5
    assert code == 0 and record["outcome"] == "safe"
    capsys.readouterr()


def test_corpus_runner_bundled(capsys):
    code, rows = run_corpus(corpus_dir())
    assert code == 0
    assert all(r["ok"] for r in rows)
    assert {r["variant"] for r in rows} == {"none", "fence"}
    out = capsys.readouterr().out
    assert "pass" in out and "FAIL" not in out


def test_corpus_runner_order_independent(tmp_path, capsys):
    # the table is sorted: reversing each file's expectation lines leaves
    # it unchanged
    forward, backward = tmp_path / "forward", tmp_path / "backward"
    forward.mkdir()
    backward.mkdir()
    for name in ("pht-01", "stl-02", "mcu-01"):
        lines = (corpus_dir() / f"{name}.litmus").read_text().splitlines()
        body = [line for line in lines if not line.startswith("expect ")]
        expects = [line for line in lines if line.startswith("expect ")]
        assert len(expects) > 1
        (forward / f"{name}.litmus").write_text("\n".join(body + expects) + "\n")
        (backward / f"{name}.litmus").write_text("\n".join(body + expects[::-1]) + "\n")
    _, rows_forward = run_corpus(forward)
    _, rows_backward = run_corpus(backward)
    assert rows_forward == rows_backward and len(rows_forward) == 6
    capsys.readouterr()


def test_corpus_flipped_expectation_fails(tmp_path, capsys):
    sub = tmp_path / "corpus"
    sub.mkdir()
    text = (corpus_dir() / "pht-01.litmus").read_text()
    (sub / "pht-01.litmus").write_text(
        text.replace("expect safe model=inorder mode=traditional",
                     "expect unsafe model=inorder mode=traditional")
    )
    code, rows = run_corpus(sub)
    assert code == 1
    assert sum(not r["ok"] for r in rows) == 1
    assert "FAIL" in capsys.readouterr().out


def test_corpus_empty_directory(tmp_path, capsys):
    (tmp_path / "notes.txt").write_text("no litmus here\n")
    code, rows = run_corpus(tmp_path)
    assert code == 3 and rows == []
    captured = capsys.readouterr()
    assert captured.err == f"error: no .litmus file in {tmp_path}\n"
    assert "expectations hold" not in captured.out


def test_corpus_missing_directory(tmp_path, capsys):
    missing = tmp_path / "missing"
    assert main(["corpus", str(missing)]) == 3
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: no .litmus file in {missing}"]
    assert captured.out == ""


def test_corpus_missing_trailer(tmp_path, capsys):
    (tmp_path / "x.litmus").write_text("layout X@0 secret@1\nthread 0:\n1: skip\n")
    code, rows = run_corpus(tmp_path)
    assert code == 3
    assert "missing expectation" in capsys.readouterr().err


@pytest.mark.parametrize("files", [1, 2])
@pytest.mark.parametrize(
    "option,message",
    [
        ("model=nosuch", "unknown model 'nosuch'"),
        ("model=inorder bits=1", "domain of 1 bits"),
        ("model=inorder w=0", "speculation window must be >= 1"),
    ],
)
def test_corpus_bad_expectation(tmp_path, capsys, files, option, message):
    # with two files, a good one is checked before the bad one
    if files == 2:
        shutil.copy(corpus_dir() / "mcu-01.litmus", tmp_path)
    text = (corpus_dir() / "pht-01.litmus").read_text()
    (tmp_path / "pht-01.litmus").write_text(
        text.replace("expect safe model=inorder", f"expect safe {option}")
    )
    assert main(["corpus", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: pht-01.litmus: ") and message in lines[0]
    assert captured.out == ""


def test_corpus_parse_error_names_the_file(tmp_path, capsys):
    shutil.copy(corpus_dir() / "mcu-01.litmus", tmp_path)
    (tmp_path / "bad.litmus").write_text(
        "layout X@0 secret@1\nthread 0:\n1: skip\n2: bogus\nexpect safe model=inorder\n"
    )
    assert main(["corpus", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: bad.litmus: line 4: cannot parse statement 'bogus'"
    ]
    assert captured.out == ""


def test_corpus_help_exits_zero(capsys):
    assert main(["corpus", "--help"]) == 0
    assert main(["--help"]) == 0
    assert "usage: axcat corpus" in capsys.readouterr().out.splitlines()[0]


def test_main_corpus_subcommand(capsys):
    assert main(["corpus", str(corpus_dir())]) == 0
    capsys.readouterr()
