"""Command-line driver: single isolation checks and the corpus runner.

    axcat --program fig2.litmus --model inorder --mode traditional
    axcat --program fig2.litmus --model inorder --mode speculative -w 8 \\
          --dot witness.dot --json verdict.json
    axcat --program fig2.litmus --model stl --engine emit-smt --smt out.smt2
    axcat corpus path/to/litmus/dir

Exit codes: 0 safe, 1 unsafe, 2 unknown, 3 and up usage or input errors.
AXCAT_JOBS caps the corpus runner's worker processes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .catlang import CatError
from .dot import emit_witness_dot
from .engine import EngineError, check_isolation
from .masm import ParseError, parse_program
from .resources import BUNDLED_MODELS, corpus_dir, load_model
from .smt import emit_smt
from .speculation import SpecConfig

USAGE_ERROR = 3
OUTCOME_CODE = {"safe": 0, "unsafe": 1, "unknown": 2}


@dataclass
class RunSpec:
    program: str
    model: str = "inorder"
    mode: str = "speculative"
    k: int = 2
    w: int = 8
    buffer: int = 2
    bits: int = 3
    engine: str = "enumerate"
    dot: str | None = None
    smt: str | None = None
    json_out: str | None = None


def _config(spec: RunSpec, model) -> SpecConfig:
    return SpecConfig(
        mode=spec.mode,
        window=spec.w,
        buffer=spec.buffer,
        psf="srf" in model.base_names(),
    )


def run(spec: RunSpec):
    """Execute one RunSpec; returns (exit code, verdict record)."""
    try:
        program = parse_program(Path(spec.program).read_text())
        model = load_model(spec.model)
    except (OSError, ParseError, CatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR, {"error": str(exc)}

    record = {
        "program": Path(spec.program).name,
        "model": model.name,
        "mode": spec.mode,
        "k": spec.k,
        "w": spec.w,
        "w_prime": spec.buffer,
    }
    try:
        cfg = _config(spec, model)
        if spec.engine == "emit-smt":
            text = emit_smt(program, model, cfg, spec.k, spec.bits,
                            Path(spec.program).stem)
            if spec.smt:
                Path(spec.smt).write_text(text)
            else:
                sys.stdout.write(text)
            record["outcome"] = "emitted"
            return 0, record

        started = time.perf_counter()
        verdict = check_isolation(program, model, cfg, spec.k, spec.bits)
        elapsed_ms = round((time.perf_counter() - started) * 1000.0, 3)
        record.update(
            outcome=verdict.outcome,
            candidates=verdict.generated,
            elapsed_ms=elapsed_ms,
        )
        print(
            f"{verdict.outcome.upper()} program={record['program']} "
            f"model={model.name} mode={spec.mode} candidates={verdict.generated} "
            f"filtered={verdict.filtered} elapsed_ms={elapsed_ms}"
        )
        if spec.dot and verdict.witness is not None:
            Path(spec.dot).write_text(emit_witness_dot(verdict.witness))
        if spec.smt:
            Path(spec.smt).write_text(
                emit_smt(program, model, cfg, spec.k, spec.bits,
                         Path(spec.program).stem)
            )
        if spec.json_out:
            Path(spec.json_out).write_text(json.dumps(record, indent=2) + "\n")
        return OUTCOME_CODE[verdict.outcome], record
    except (EngineError, CatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR, {"error": str(exc)}


# ---------------------------------------------------------------------------
# Corpus runner


def _expectation_jobs(directory: Path):
    paths = sorted(directory.glob("*.litmus"))
    if not paths:
        raise FileNotFoundError(f"no .litmus file in {directory}")
    jobs = []
    for path in paths:
        program = parse_program(path.read_text())
        if not program.expectations:
            raise ParseError(f"{path.name}: missing expectation trailer")
        for idx in range(len(program.expectations)):
            jobs.append((str(path), idx))
    return jobs


def _run_expectation(job):
    """Check one expectation; returns its table row, or an error row."""
    path_str, idx = job
    path = Path(path_str)
    try:
        program = parse_program(path.read_text())
        exp = program.expectations[idx]
        spec = RunSpec(path_str, exp.model, exp.mode or "speculative",
                       **dict(exp.overrides))
        model = load_model(spec.model)
        verdict = check_isolation(program, model, _config(spec, model),
                                  spec.k, spec.bits)
    except (OSError, CatError, EngineError, ValueError) as exc:
        return {"error": f"{path.name}: {exc}"}
    stem = path.stem
    variant = "fence" if stem.endswith("-fence") else "none"
    test = stem[: -len("-fence")] if variant == "fence" else stem
    return {
        "test": test,
        "variant": variant,
        "model": exp.model,
        "mode": spec.mode,
        "expected": exp.outcome,
        "got": verdict.outcome,
        "ok": verdict.outcome == exp.outcome,
    }


def run_corpus(directory, jobs: int | None = None):
    """Run every expectation in a litmus directory.

    Returns (exit code, rows); rows are sorted by test name so the table
    is independent of discovery and completion order.
    """
    directory = Path(directory)
    try:
        work = _expectation_jobs(directory)
    except (OSError, ParseError, CatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR, []

    if jobs is None:
        setting = os.environ.get("AXCAT_JOBS", "0")
        try:
            jobs = int(setting) or (os.cpu_count() or 1)
        except ValueError:
            print(f"error: AXCAT_JOBS must be an integer, not {setting!r}", file=sys.stderr)
            return USAGE_ERROR, []
    jobs = max(1, min(jobs, len(work) or 1))

    if jobs == 1:
        rows = [_run_expectation(job) for job in work]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_run_expectation, work))
    errors = [r["error"] for r in rows if "error" in r]
    if errors:
        print(f"error: {errors[0]}", file=sys.stderr)
        return USAGE_ERROR, []
    rows.sort(key=lambda r: (r["test"], r["variant"], r["model"], r["mode"]))

    header = f"{'test':<10} {'variant':<8} {'model':<8} {'mode':<12} "
    header += f"{'expected':<9} {'got':<9} result"
    print(header)
    print("-" * len(header))
    for r in rows:
        print(
            f"{r['test']:<10} {r['variant']:<8} {r['model']:<8} {r['mode']:<12} "
            f"{r['expected']:<9} {r['got']:<9} {'pass' if r['ok'] else 'FAIL'}"
        )
    failed = [r for r in rows if not r["ok"]]
    print(f"{len(rows) - len(failed)}/{len(rows)} expectations hold")
    return (1 if failed else 0), rows


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="axcat",
        description="Decide software isolation for litmus programs under "
                    "pluggable axiomatic speculation models.",
    )
    parser.add_argument("--program", required=True, help="litmus file to check")
    parser.add_argument(
        "--model", default="inorder",
        help=f"bundled model ({', '.join(BUNDLED_MODELS)}) or a .cat path",
    )
    parser.add_argument("--mode", choices=("traditional", "speculative"),
                        default="speculative")
    parser.add_argument("-k", type=int, default=2, help="loop unrolling bound")
    parser.add_argument("-w", type=int, default=8, help="branch speculation window")
    parser.add_argument("--buffer", type=int, default=2, help="store buffer size w'")
    parser.add_argument("--bits", type=int, default=3, help="value domain width")
    parser.add_argument("--engine", choices=("enumerate", "emit-smt"),
                        default="enumerate")
    parser.add_argument("--dot", metavar="PATH", help="write the witness graph")
    parser.add_argument("--smt", metavar="PATH", help="write the solver file")
    parser.add_argument("--json", metavar="PATH", dest="json_out",
                        help="write the verdict record")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "corpus":
        corpus_parser = argparse.ArgumentParser(prog="axcat corpus")
        corpus_parser.add_argument("directory", nargs="?",
                                   default=str(corpus_dir()))
        try:
            args = corpus_parser.parse_args(argv[1:])
        except SystemExit:
            return USAGE_ERROR
        code, _ = run_corpus(args.directory)
        return code

    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0,) else 0
    code, _ = run(RunSpec(**vars(args)))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
