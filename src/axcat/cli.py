"""Command-line driver: single isolation checks and the corpus runner.

    axcat --program fig2.litmus --model inorder --mode traditional
    axcat --program fig2.litmus --model inorder --mode speculative -w 8 \\
          --dot witness.dot --json verdict.json
    axcat --program fig2.litmus --model stl --engine emit-smt --smt out.smt2
    axcat corpus path/to/litmus/dir

Exit codes: 0 safe, 1 unsafe, 2 unknown, 3 and up usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .engine import check_isolation
from .masm import ParseError, parse_program
from .resources import BUNDLED_MODELS, corpus_dir, load_model
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


def _model_and_config(spec: RunSpec, models: dict):
    """The spec's model, loaded once per `models` cache, and its SpecConfig;
    predictive store forwarding is on exactly when the model reads srf."""
    if spec.model not in models:
        models[spec.model] = load_model(spec.model)
    model = models[spec.model]
    cfg = SpecConfig(mode=spec.mode, window=spec.w, buffer=spec.buffer,
                     psf="srf" in model.base_names())
    return model, cfg


def run(spec: RunSpec):
    """Execute one RunSpec; returns (exit code, verdict record)."""
    try:
        program = parse_program(Path(spec.program).read_text())
        model, cfg = _model_and_config(spec, {})
        record = {
            "program": Path(spec.program).name,
            "model": model.name,
            "mode": spec.mode,
            "k": spec.k,
            "w": spec.w,
            "w_prime": spec.buffer,
        }
        if spec.engine == "emit-smt" or spec.smt:
            from .smt import emit_smt  # a verdict run never loads the export

            # exported before any verdict: a failed export prints none
            text = emit_smt(program, model, cfg, spec.k, spec.bits,
                            Path(spec.program).stem)
            if spec.smt:
                Path(spec.smt).write_text(text)
        if spec.engine == "emit-smt":
            if not spec.smt:
                sys.stdout.write(text)
            record["outcome"] = "emitted"
            code = 0
        else:
            started = time.perf_counter()
            verdict = check_isolation(program, model, cfg, spec.k, spec.bits)
            elapsed_ms = round((time.perf_counter() - started) * 1000.0, 3)
            record.update(
                outcome=verdict.outcome,
                candidates=verdict.generated,
                filtered=verdict.filtered,
                elapsed_ms=elapsed_ms,
            )
            if verdict.witness is not None:
                # its choice vector; JSON keys are text, so a branch's
                # outcome and prediction are [thread, label, value] triples
                c = verdict.witness.choices
                record["witness"] = {
                    "outcomes": [[*key, v] for key, v in c["outcomes"].items()],
                    "predictions": [[*key, v] for key, v in c["cp"].items()],
                    "rf": c["rf"], "co": list(c["co"]), "inputs": c["inputs"],
                }
            print(
                f"{verdict.outcome.upper()} program={record['program']} "
                f"model={model.name} mode={spec.mode} candidates={verdict.generated} "
                f"filtered={verdict.filtered} elapsed_ms={elapsed_ms}"
            )
            if spec.dot and verdict.witness is not None:
                from .dot import emit_witness_dot

                Path(spec.dot).write_text(emit_witness_dot(verdict.witness))
            code = OUTCOME_CODE[verdict.outcome]
        if spec.json_out:
            Path(spec.json_out).write_text(json.dumps(record, indent=2) + "\n")
        return code, record
    except (OSError, ValueError, MemoryError) as exc:
        reason = "out of memory" if isinstance(exc, MemoryError) else str(exc)
        print(f"error: {reason}", file=sys.stderr)
        return USAGE_ERROR, {"error": reason}


# ---------------------------------------------------------------------------
# Corpus runner


def run_corpus(directory):
    """Run every expectation in a litmus directory.

    Returns (exit code, rows); rows are sorted by test, so the table does
    not depend on the order of files or expectation lines.  Every file is
    parsed before the first check runs, and an error names its file.
    """
    directory = Path(directory)
    paths = sorted(directory.glob("*.litmus"))
    if not paths:
        print(f"error: no .litmus file in {directory}", file=sys.stderr)
        return USAGE_ERROR, []
    rows, models = [], {}
    try:
        programs = []
        for path in paths:
            program = parse_program(path.read_text())
            if not program.expectations:
                raise ParseError("missing expectation trailer")
            programs.append((path, program))
        for path, program in programs:
            stem = path.stem
            variant = "fence" if stem.endswith("-fence") else "none"
            for exp in program.expectations:
                spec = RunSpec(str(path), exp.model, exp.mode or RunSpec.mode,
                               **dict(exp.overrides))
                model, cfg = _model_and_config(spec, models)
                got = check_isolation(program, model, cfg, spec.k, spec.bits).outcome
                rows.append({
                    "test": stem.removesuffix("-fence"),
                    "variant": variant,
                    "model": exp.model,
                    "mode": spec.mode,
                    "expected": exp.outcome,
                    "got": got,
                    "ok": got == exp.outcome,
                })
    except (OSError, ValueError, MemoryError) as exc:
        reason = "out of memory" if isinstance(exc, MemoryError) else str(exc)
        print(f"error: {path.name}: {reason}", file=sys.stderr)
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
        "--model", default=RunSpec.model,
        help=f"bundled model ({', '.join(BUNDLED_MODELS)}) or a .cat path",
    )
    parser.add_argument("--mode", choices=("traditional", "speculative"),
                        default=RunSpec.mode)
    parser.add_argument("-k", type=int, default=RunSpec.k, help="loop unrolling bound")
    parser.add_argument("-w", type=int, default=RunSpec.w,
                        help="branch speculation window")
    parser.add_argument("--buffer", type=int, default=RunSpec.buffer,
                        help="store buffer size w'")
    parser.add_argument("--bits", type=int, default=RunSpec.bits, help="value domain width")
    parser.add_argument("--engine", choices=("enumerate", "emit-smt"),
                        default=RunSpec.engine)
    parser.add_argument("--dot", metavar="PATH", help="write the witness graph")
    parser.add_argument("--smt", metavar="PATH", help="write the solver file")
    parser.add_argument("--json", metavar="PATH", dest="json_out",
                        help="write the verdict record")
    return parser


def _corpus_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="axcat corpus")
    parser.add_argument("directory", nargs="?", default=str(corpus_dir()))
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    corpus = argv[:1] == ["corpus"]
    parser = _corpus_parser() if corpus else _build_parser()
    try:
        args = parser.parse_args(argv[1:] if corpus else argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else USAGE_ERROR
    if corpus:
        return run_corpus(args.directory)[0]
    return run(RunSpec(**vars(args)))[0]


if __name__ == "__main__":
    raise SystemExit(main())
