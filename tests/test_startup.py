"""What a fresh interpreter loads: a verdict run imports neither the solver
export (`axcat.smt`) nor the DOT writer (`axcat.dot`); the package resolves
them, and the CLI imports them, on first use."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from axcat import check_isolation, corpus_dir, emit_smt, emit_witness_dot, parse_program
from axcat.cli import RunSpec, _model_and_config

SRC = Path(__file__).resolve().parent.parent / "src"
PHT01 = str(corpus_dir() / "pht-01.litmus")


def fresh(code: str, *args: str):
    """Run `code` in a new `python -S` interpreter with `src` on the path."""
    done = subprocess.run(
        [sys.executable, "-S", "-c", textwrap.dedent(code), *args],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_a_verdict_run_loads_neither_the_export_nor_the_dot_writer():
    fresh("""
        import sys
        import axcat
        from axcat import cli

        model = axcat.load_model("inorder")
        program = axcat.parse_program(open(sys.argv[1]).read())
        cfg = axcat.SpecConfig(mode="speculative")
        assert axcat.check_isolation(program, model, cfg, 2, 3).outcome == "unsafe"
        assert cli.main(["--program", sys.argv[1], "--mode", "speculative"]) == 1
        assert {"axcat.smt", "axcat.dot"}.isdisjoint(sys.modules)
    """, PHT01)


def test_the_export_and_the_dot_writer_resolve_on_first_use():
    fresh("""
        import axcat

        assert axcat.emit_smt is axcat.smt.emit_smt
        assert axcat.emit_witness_dot is axcat.dot.emit_witness_dot
        assert vars(axcat)["emit_smt"] is axcat.smt.emit_smt  # stored, not resolved again
        try:
            axcat.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc)
        else:
            raise AssertionError("axcat.no_such_name resolved")
    """)


def test_star_import_binds_every_public_name():
    fresh("""
        import axcat

        names = {}
        exec("from axcat import *", names)
        missing = [n for n in axcat.__all__ if n not in names]
        assert not missing, missing
        assert names["emit_smt"] is axcat.smt.emit_smt
    """)


@pytest.mark.parametrize("option, code", [
    (["--engine", "emit-smt", "--smt", "out.smt2"], 0),
    (["--dot", "w.dot"], 1),
])
def test_cli_files_from_a_fresh_interpreter_match_the_library(tmp_path, option, code):
    # the CLI imports the export and the DOT writer locally: a cold process
    # reaches those imports even when this one has loaded both already
    out = tmp_path / option[-1]
    done = subprocess.run(
        [sys.executable, "-m", "axcat", "--program", PHT01, "--mode", "speculative",
         *option[:-1], str(out)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == code, done.stderr
    spec = RunSpec(program=PHT01, mode="speculative")
    program = parse_program(Path(PHT01).read_text())
    model, cfg = _model_and_config(spec, {})
    if out.suffix == ".smt2":
        expected = emit_smt(program, model, cfg, spec.k, spec.bits, "pht-01")
    else:
        expected = emit_witness_dot(check_isolation(program, model, cfg, spec.k,
                                                    spec.bits).witness)
    assert out.read_bytes() == expected.encode()
