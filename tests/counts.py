"""Print the search counts that the CI workflow reports per pass.

The reads-from vectors that `engine._rf_vectors` brings to the goal test
in one corpus pass, one litmus-co pass (seed 1) and one check of each
scaling shape of test_scaling.py, with the lanes valued at the search's
leaf there and those that `engine.value_rejection` drops, and in the
first two passes the rf lane checks that `engine._decide` decides; one check of
test_lanes.py's two-input program at 3 bits, with its searches, and of
each of its split-guard programs at 3 bits, with the one-lane evaluations
of their split guards; and, for the speculative branch family of eight copies,
fenced and not, the thread walks that `engine._walks` yields, the
skeletons built, the candidates offered and the verdict.  It only
prints; run it from the repository root:

    PYTHONPATH=src:tests:bench python tests/counts.py
"""

from axcat import SpecConfig, check_isolation, engine, load_model, parse_program
from axcat.events import Evaluator
from test_directed import branch_family
from test_lanes import SPLIT, TWO_INPUTS
from test_scaling import CFG, SHAPES, family
from test_smt import corpus_cases

import litmus_co

reached, searches, leaf, rf_checks = [], [], [], []
rf_vectors, value_rejection, decide = engine._rf_vectors, engine.value_rejection, engine._decide


def counted(skeleton, dataflow, may_read, full):
    searches.append(skeleton)
    for item in rf_vectors(skeleton, dataflow, may_read, full):
        reached.append(item[0])
        yield item


def valued(*args):
    leaf.append(value_rejection(*args))
    return leaf[-1]


def deciding(dataflow, checks, *args):
    rf_checks.extend(c for c in checks if c[1] == engine._RF)
    return decide(dataflow, checks, *args)


def print_leaf(name):
    dropped = sum(reason is not None for reason in leaf)
    print(name, "lanes valued at the leaf:", len(leaf), "dropped:", dropped)
    leaf.clear()


engine._rf_vectors, engine.value_rejection, engine._decide = counted, valued, deciding
for _, p, m, c, k, b, _ in corpus_cases():
    check_isolation(p, m, c, k, b)
print("corpus rf vectors at the goal test:", len(reached))
print_leaf("corpus")
print("corpus rf lane checks decided:", len(rf_checks))
reached.clear()
rf_checks.clear()
models = [load_model(name) for name in litmus_co.MODELS]
for _, source in litmus_co.generate(1):
    p = parse_program(source)
    for m in models:
        check_isolation(p, m, SpecConfig(mode="traditional"), litmus_co.K, litmus_co.BITS)
print("litmus-co rf vectors at the goal test:", len(reached))
print_leaf("litmus-co")
print("litmus-co rf lane checks decided:", len(rf_checks))
for shape, consistent in SHAPES.items():
    reached.clear()
    check_isolation(parse_program(family(*shape)), load_model("inorder"), CFG, 2, 3)
    print("scaling", shape, "rf vectors at the goal test:", len(reached),
          "consistent pairs:", consistent)
    print_leaf(f"scaling {shape}")
reached.clear()
searches.clear()
check_isolation(parse_program(TWO_INPUTS), load_model("inorder"),
                SpecConfig(mode="traditional"), 1, 3)
print("two inputs at 3 bits: rf searches:", len(searches),
      "rf vectors at the goal test:", len(reached))
alone = []
one_lane = Evaluator._alone
Evaluator._alone = lambda self, lane: alone.append(lane) or one_lane(self, lane)
for name, (source, _) in sorted(SPLIT.items()):
    reached.clear()
    alone.clear()
    check_isolation(parse_program(source), load_model("inorder"),
                    SpecConfig(mode="traditional"), 1, 3)
    print("split", name, "at 3 bits: rf vectors at the goal test:", len(reached),
          "one-lane evaluations:", len(alone))
walks, built = [], []
walk, build = engine._walks, engine.build_events


def counted_walks(*args):
    for item in walk(*args):
        walks.append(item)
        yield item


engine._walks = counted_walks
engine.build_events = lambda *args, **kw: built.append(args) or build(*args, **kw)
for fence in (True, False):
    walks.clear()
    built.clear()
    v = check_isolation(parse_program(branch_family(8, fence)), load_model("inorder"),
                        SpecConfig(mode="speculative", window=8), 2, 3)
    print("branch family of 8,", "fenced" if fence else "unfenced", "at 3 bits: walks:",
          len(walks), "skeletons built:", len(built), "generated:", v.generated,
          "verdict:", v.outcome)
