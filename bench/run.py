"""axcat benchmark: whole-run and per-layer numbers for three workloads.

    python3 bench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

Workloads (see bench/README.md for why each was chosen):

    corpus      the bundled corpus expectations, checked against their
                `expect` trailers
    litmus-co   seeded two-thread coherence and message-passing programs
                under inorder, stl, tso and tso-mcu, checked against the
                brute-force oracle in tests/reference.py
    smt-export  emit_smt for every corpus expectation, checked for
                well-formed and deterministic output

Each run sets up several times (fresh import of `axcat`, model and
program parsing, unrolling), then runs whole passes over the workload in
a seeded order for at least `--seconds` and until enough per-check
samples exist for a p90. Every timed metric is normalised to the
machine's speed as measured by a reference workload (calibrate.py).
Everything runs in this one process. With `--trace 1` untraced and
traced passes alternate and the per-layer metrics are reported instead.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import re
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import calibrate  # bench/ is on sys.path as the script's directory
import litmus_co
from tracer import REJECTION_METRICS, Tracer, rejection_metric

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"

WORKLOADS = ("corpus", "litmus-co", "smt-export")
SETUP_REPEATS = 31
MIN_SAMPLES = 110  # so that p90 has at least 10 samples beyond it

END_TO_END = {
    "setup_s": "s",
    "checks_per_s": "1/s",
    "check_ms_p50": "ms",
    "check_ms_p90": "ms",
    "safe_s": "s",
    "unsafe_s": "s",
    "peak_rss_mb": "MB",
}

_TIMED = ("calls", "s")
_FILTERED = ("calls", "s", "rejected")
SPAN_FIELDS = {
    "events.build_events": _TIMED,
    "events.propagate_values": _FILTERED,
    "engine.check_isolation": ("calls", "s", "self_s"),
    "events.base_relations": _TIMED,
    "catlang.evaluate": _TIMED,
    "catlang.check_assertions": _FILTERED,
    "speculation.check_traditional_cf": _FILTERED,
    "speculation.check_speculative_cf": _FILTERED,
    "speculation.check_window": _FILTERED,
    "speculation.check_fences": _FILTERED,
    "catlang.check_srf_fence": _FILTERED,
    "smt.emit_smt": ("calls", "s", "bytes"),
}
SETUP_SPAN_FIELDS = {
    "masm.parse_program": ("s",),
    "masm.unroll": ("calls", "s"),
    "catlang.parse_cat": ("s",),
}
FIELD_UNITS = {"calls": "count", "s": "s", "self_s": "s", "rejected": "count",
               "bytes": "B"}
DERIVED = {
    "events.values_ok_ratio": "ratio",
    "engine.candidates": "count",
    "engine.control_vectors": "count",
    "engine.survivors": "count",
    "engine.survivor_ratio": "ratio",
    "trace.overhead_s": "s",
}


def per_layer_units() -> dict:
    units = {}
    for fields_by_span in (SPAN_FIELDS, SETUP_SPAN_FIELDS):
        for span, fields in fields_by_span.items():
            for f in fields:
                units[f"{span}.{f}"] = FIELD_UNITS[f]
    units.update(DERIVED)
    units.update({name: "count" for name in REJECTION_METRICS})
    return units


# ---------------------------------------------------------------------------
# Set-up


@dataclass
class Check:
    name: str
    program: object
    model: object
    cfg: object
    k: int
    bits: int
    expected: str  # known verdict; for exports, the expectation's verdict


def fresh_import():
    """Import `axcat` from this checkout's sources as a new process would.

    The oracle module binds to axcat's classes, so it is dropped too.
    """
    for name in list(sys.modules):
        if name in ("axcat", "reference") or name.startswith("axcat."):
            del sys.modules[name]
    return importlib.import_module("axcat")


def corpus_checks(ax) -> list[Check]:
    checks, models = [], {}
    for path in sorted(ax.corpus_dir().glob("*.litmus")):
        program = ax.parse_program(path.read_text())
        for exp in program.expectations:
            over = dict(exp.overrides)
            if exp.model not in models:
                models[exp.model] = ax.load_model(exp.model)
            model = models[exp.model]
            cfg = ax.SpecConfig(
                mode=exp.mode or "speculative",
                window=over.get("w", 8),
                buffer=over.get("buffer", 2),
                psf="srf" in model.base_names(),
            )
            k = over.get("k", 2)
            ax.unroll(program, k)
            checks.append(Check(f"{path.stem}/{exp.model}/{cfg.mode}", program,
                                model, cfg, k, over.get("bits", 3), exp.outcome))
    return checks


def litmus_checks(ax, sources) -> list[Check]:
    models = {name: ax.load_model(name) for name in litmus_co.MODELS}
    cfg = ax.SpecConfig(mode="traditional")
    checks = []
    for name, source in sources:
        program = ax.parse_program(source)
        ax.unroll(program, litmus_co.K)
        for model_name, model in models.items():
            checks.append(Check(f"{name}/{model_name}", program, model, cfg,
                                litmus_co.K, litmus_co.BITS, ""))
    return checks


def oracle_verdicts(ax, checks):
    """Known answers for litmus-co from the independent brute-force oracle."""
    sys.path.insert(0, str(TESTS))
    try:
        reference = importlib.import_module("reference")
    finally:
        sys.path.remove(str(TESTS))
    for c in checks:
        c.expected = reference.brute_force_isolation(
            ax.unroll(c.program, c.k), c.model, c.cfg.mode, c.cfg.window,
            c.cfg.buffer, c.bits, psf=c.cfg.psf,
        )


def build_checks(ax, sources) -> list[Check]:
    return litmus_checks(ax, sources) if sources else corpus_checks(ax)


def set_up(sources):
    """Set up SETUP_REPEATS times; returns (axcat, checks, setup seconds).

    `sources` is the litmus-co pool, or None for the corpus workloads. The
    setup times are normalised to the reference speed (see calibrate.py).
    """
    times, refs = [], []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        ax = fresh_import()
        checks = build_checks(ax, sources)
        times.append(time.perf_counter() - started)
        refs.append(calibrate.time_reference())
    if sources:
        oracle_verdicts(ax, checks)
    return ax, checks, calibrate.normalise(times, refs)


# ---------------------------------------------------------------------------
# Checking outputs


def replay_failure(ax, c: Check, x) -> str | None:
    """Rebuild an UNSAFE witness from its choice vector and re-filter it."""
    if x is None:
        return "unsafe verdict without a witness"
    program = ax.unroll(c.program, c.k)
    y = ax.build_events(program, x.choices["outcomes"], x.choices["cp"],
                        speculative=c.cfg.mode == "speculative", psf=c.cfg.psf)
    y.rf_choice = dict(x.choices["rf"])
    y.co_order = tuple(x.choices["co"])
    init = {a: 0 for a in c.program.declared_addresses()}
    init[c.program.secret_addr] = 1 << c.bits
    init.update(x.choices["inputs"])
    ax.propagate_values(y, init, c.bits)
    ok, reason = ax.engine.candidate_consistent(y, c.model, c.cfg)
    if not ok:
        return f"witness fails replay: {reason}"
    if ax.engine.violating_load(y) is None:
        return "witness reads no secret"
    return None


_SMT_COMMANDS = ("set-logic", "declare-const", "declare-fun", "define-fun",
                 "assert", "check-sat", "exit")
_SMT_WORDS = {"and", "or", "not", "distinct", "ite", "true", "false", "Bool",
              "BitVec", "QF_BV"}


def smt_failure(text: str) -> str | None:
    """Structural check of one emitted SMT-LIB2 script: balanced, only
    known commands, set-logic first, check-sat and exit last, and every
    symbol declared."""
    body = "\n".join(line.split(";", 1)[0] for line in text.splitlines())
    tokens = re.findall(r"[()]|[^\s()]+", body)
    depth, heads, declared, used = 0, [], set(), set()
    for i, tok in enumerate(tokens):
        if tok == "(":
            if depth == 0:
                heads.append(tokens[i + 1] if i + 1 < len(tokens) else "")
                if heads[-1].startswith(("declare-", "define-")):
                    declared.add(tokens[i + 2])
            depth += 1
        elif tok == ")":
            depth -= 1
            if depth < 0:
                return "unbalanced ')'"
        elif depth == 0:
            return f"atom {tok!r} outside a command"
        elif re.fullmatch(r"[A-Za-z][A-Za-z0-9_'.-]*", tok) and not tok.startswith("bv"):
            used.add(tok)
    if depth:
        return "unbalanced '('"
    unknown = set(heads) - set(_SMT_COMMANDS)
    if unknown:
        return f"unknown commands {sorted(unknown)}"
    if heads[:1] != ["set-logic"] or heads[-2:] != ["check-sat", "exit"]:
        return "script does not start with set-logic and end with check-sat, exit"
    undeclared = used - declared - _SMT_WORDS - set(_SMT_COMMANDS)
    if undeclared:
        return f"undeclared symbols {sorted(undeclared)[:3]}"
    return None


# ---------------------------------------------------------------------------
# Passes


@dataclass
class PassResult:
    samples: dict  # check index -> seconds to verdict or export
    verdicts: dict  # check name -> outcome (verdict workloads only)
    # (check index, seconds, reference seconds measured right after it)
    timeline: list = field(default_factory=list)
    generated: int = 0
    attempted: int = 0
    failed: int = 0

    @property
    def busy(self) -> float:
        return sum(self.samples.values())


class Runner:
    def __init__(self, ax, checks, export: bool, tracer: Tracer | None = None):
        self.ax, self.checks, self.export = ax, checks, export
        self.tracer = tracer
        self.smt_reference: dict[int, str] = {}
        self.failures: list[str] = []

    def _fail(self, c: Check, why: str):
        self.failures.append(f"{c.name}: {why}")

    def _verify(self, i: int, c: Check, out) -> bool:
        if self.export:
            ref = self.smt_reference.setdefault(i, out)
            why = smt_failure(out) if ref is out else (
                None if out == ref else "nondeterministic SMT output")
        elif out.outcome != c.expected:
            why = f"verdict {out.outcome}, expected {c.expected}"
        else:
            why = replay_failure(self.ax, c, out.witness) if out.outcome == "unsafe" else None
        if why:
            self._fail(c, why)
        return why is None

    def run_pass(self, order) -> PassResult:
        ax = self.ax
        res = PassResult({}, {})
        for i in order:
            c = self.checks[i]
            res.attempted += 1
            started = time.perf_counter()
            try:
                if self.export:
                    out = ax.emit_smt(c.program, c.model, c.cfg, c.k, c.bits,
                                      c.name.split("/")[0])
                else:
                    out = ax.check_isolation(c.program, c.model, c.cfg, c.k, c.bits)
                elapsed = time.perf_counter() - started
            except Exception:  # a crash is a failed check; keep measuring
                self._fail(c, traceback.format_exc(limit=3))
                res.failed += 1
                continue
            res.samples[i] = elapsed
            if self.tracer:
                self.tracer.paused = True
            try:
                if not self._verify(i, c, out):
                    res.failed += 1
            except Exception:
                self._fail(c, "verification raised: " + traceback.format_exc(limit=3))
                res.failed += 1
            finally:
                if self.tracer:
                    self.tracer.paused = False
            if not self.export:
                res.verdicts[c.name] = out.outcome
                res.generated += out.generated
            res.timeline.append((i, elapsed, calibrate.time_reference()))
        return res


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Runs


def run(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (result dict, info dict)."""
    sources = litmus_co.generate(seed) if workload == "litmus-co" else None
    ax, checks, setup_times = set_up(sources)
    export = workload == "smt-export"
    rng = random.Random(seed)

    def order():
        idx = list(range(len(checks)))
        rng.shuffle(idx)
        return idx

    setup_tracer = None
    if trace:
        setup_tracer = Tracer(ax)
        with setup_tracer:
            build_checks(ax, sources)

    tracer = Tracer(ax) if trace else None
    runner = Runner(ax, checks, export, tracer)
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        untraced.append(runner.run_pass(order()))
        if trace:
            with tracer:
                traced.append(runner.run_pass(order()))
        samples = sum(len(p.samples) for p in untraced)
        if time.perf_counter() >= deadline and (trace or samples >= MIN_SAMPLES):
            break
    passes = untraced + traced

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for line in runner.failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)

    if trace:
        metrics = layer_metrics(tracer, setup_tracer, traced, untraced)
        units = per_layer_units()
    else:
        timeline = [step for p in untraced for step in p.timeline]
        if not timeline:
            raise SystemExit("error: every check raised; nothing was measured")
        samples = calibrate.normalise([t for _, t, _ in timeline],
                                      [r for _, _, r in timeline])
        # each check's median over the passes, so one slow pass moves no sum
        typical = {}
        for (i, _, _), t in zip(timeline, samples):
            typical.setdefault(i, []).append(t)
        typical = {i: statistics.median(ts) for i, ts in typical.items()}
        unsafe = sum(t for i, t in typical.items() if checks[i].expected == "unsafe")
        metrics = {
            "setup_s": statistics.median(setup_times),
            "checks_per_s": len(typical) / sum(typical.values()),
            "check_ms_p50": 1000.0 * statistics.median(samples),
            "check_ms_p90": 1000.0 * statistics.quantiles(
                samples, n=10, method="inclusive")[8],
            "safe_s": sum(typical.values()) - unsafe,
            "unsafe_s": unsafe,
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END
    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "checks_per_pass": len(checks),
        "measured_passes": len(untraced),
        "traced_passes": len(traced),
        "samples": sum(len(p.samples) for p in untraced),
        "failed_share": failed / attempted,
    }
    if not trace:
        # the unnormalised figures, for comparison across machines
        info["reference_ms"] = 1000.0 * statistics.median(r for _, _, r in timeline)
        info["wall_checks_per_s"] = len(timeline) / sum(t for _, t, _ in timeline)
    if export:
        info["smt_kb_per_pass"] = sum(len(t) for t in runner.smt_reference.values()) / 1000.0
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return result, info


def layer_metrics(tracer: Tracer, setup_tracer: Tracer, traced, untraced) -> dict:
    n = len(traced)
    out = {}
    for span_name, fields in SPAN_FIELDS.items():
        span = tracer.span(span_name)
        for f in fields:
            out[f"{span_name}.{f}"] = getattr(span, f) / n
    for span_name, fields in SETUP_SPAN_FIELDS.items():
        span = setup_tracer.span(span_name)
        for f in fields:
            out[f"{span_name}.{f}"] = getattr(span, f)
    prop = tracer.span("events.propagate_values")
    candidates = sum(p.generated for p in traced) / n
    survivors = tracer.survivors / n
    out["events.values_ok_ratio"] = (
        (prop.calls - prop.rejected) / prop.calls if prop.calls else 0.0)
    out["engine.candidates"] = candidates
    out["engine.control_vectors"] = tracer.span("events.build_events").calls / n - candidates
    out["engine.survivors"] = survivors
    out["engine.survivor_ratio"] = survivors / candidates if candidates else 0.0
    for name in REJECTION_METRICS:
        out[name] = 0.0
    for key, count in tracer.rejections.items():
        name = rejection_metric(key)
        out[name] = out.get(name, 0.0) + count / n
    out["trace.overhead_s"] = (statistics.median(p.busy for p in traced)
                               - statistics.median(p.busy for p in untraced))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "axcat" / "__init__.py").is_file():
        print(f"error: no axcat sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "litmus-co" and not (TESTS / "reference.py").is_file():
        print(f"error: no oracle at {TESTS / 'reference.py'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(info))
    for name, m in result["metrics"].items():
        print(f"{name:<48} {m['value']:>14.6f} {m['unit']}")
    print(f"{'failed_share':<48} {info['failed_share']:>14.6f} ratio")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
