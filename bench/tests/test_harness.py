"""Tests of the benchmark itself: generator, tracer, output checks."""

import re

import calibrate
import litmus_co
import pytest
import run
from tracer import Tracer, rejection_key


@pytest.fixture(scope="module")
def ax():
    return run.fresh_import()


def test_generator_is_deterministic_per_seed():
    assert litmus_co.generate(7) == litmus_co.generate(7)
    assert litmus_co.generate(7) != litmus_co.generate(8)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_programs_fit_the_workload(ax, seed):
    pool = litmus_co.generate(seed)
    assert len(pool) == len(litmus_co.SLOTS) * litmus_co.COPIES
    for name, source in pool:
        program = ax.parse_program(source)
        stmts = [i.stmt for thread in program.threads for i in thread]
        loads = sum(type(s).__name__ == "Load" for s in stmts)
        stores = sum(type(s).__name__ == "Store" for s in stmts)
        assert len(program.threads) == 2, name
        assert 2 <= loads <= 4 and 2 <= stores <= 4, name
        assert 1 <= len(program.declared_addresses()) - 1 <= 2, name


def test_tracer_restores_every_wrapped_function(ax):
    tracer = Tracer(ax)
    before = [(module, attr, getattr(module, attr))
              for module, attr, _, _ in tracer._layers]
    with pytest.raises(RuntimeError):
        with tracer:
            for module, attr, original in before:
                assert getattr(module, attr) is not original, attr
            raise RuntimeError("leave the traced block early")
    for module, attr, original in before:
        assert getattr(module, attr) is original, attr


def _cheap_checks(ax):
    checks = [c for c in run.corpus_checks(ax)
              if not c.name.startswith(("stl-01", "stl-03"))]
    pool = litmus_co.generate(3)[:4]
    litmus = run.litmus_checks(ax, pool)
    run.oracle_verdicts(ax, litmus)
    return checks + litmus


def test_traced_and_untraced_runs_give_identical_verdicts(ax):
    checks = _cheap_checks(ax)
    order = list(range(len(checks)))
    plain = run.Runner(ax, checks, export=False).run_pass(order)
    tracer = Tracer(ax)
    traced_runner = run.Runner(ax, checks, export=False, tracer=tracer)
    with tracer:
        traced = traced_runner.run_pass(order)
    assert plain.failed == traced.failed == 0
    assert plain.verdicts == traced.verdicts
    assert set(plain.verdicts.values()) == {"safe", "unsafe", "unknown"}
    assert tracer.span("engine.check_isolation").calls == len(checks)
    assert not any(key.endswith("other") for key in tracer.rejections)


def test_wrong_known_answer_counts_as_failure(ax):
    checks = _cheap_checks(ax)[:3]
    for c in checks:
        c.expected = "unsafe" if c.expected != "unsafe" else "safe"
    result = run.Runner(ax, checks, export=False).run_pass(range(len(checks)))
    assert result.failed == len(checks)


@pytest.mark.parametrize("reason,key", [
    ("values: reads-from (e10, e12) joins different addresses", "values:rf-addr"),
    ("values: unresolved value at e7 (cyclic dataflow)", "values:cyclic-value"),
    ("values: load e5 reads undeclared address 9", "values:load-undeclared"),
    ("values: something new at e3", "values:other"),
    ("control flow", "control-flow"),
    ("srf across fence", "srf-across-fence"),
    ("assertion acyclic com | (po & loc)", "assertion:acyclic-com-po-loc"),
    ("assertion acyclic foo", "assertion:other"),
])
def test_rejection_reasons_are_normalised(reason, key):
    assert rejection_key(reason) == key


def test_smt_check_accepts_emissions_and_rejects_damage(ax):
    c = run.corpus_checks(ax)[0]
    text = ax.emit_smt(c.program, c.model, c.cfg, c.k, c.bits, "t")
    assert run.smt_failure(text) is None
    assert run.smt_failure(text.replace("(check-sat)\n", "")) is not None
    assert run.smt_failure(text + ")") is not None
    assert run.smt_failure(text[: len(text) // 2]) is not None
    first = re.search(r"\(declare-const (\S+)", text).group(0)
    assert run.smt_failure(text.replace(first, "(declare-const renamed", 1)) is not None


def test_normalise_rescales_by_the_local_reference_speed():
    ms = calibrate.REFERENCE_S
    # the machine halves its speed halfway through: the same check, twice as slow
    times = [0.004] * 20 + [0.008] * 20
    refs = [ms] * 20 + [2 * ms] * 20
    norm = calibrate.normalise(times, refs)
    assert norm[:10] == norm[-10:] == [0.004] * 10
    with pytest.raises(ValueError):
        calibrate.normalise(times, refs[:-1])


def test_reference_workload_is_fixed():
    assert calibrate.reference() == calibrate.reference() > 0
    assert calibrate.time_reference() > 0
