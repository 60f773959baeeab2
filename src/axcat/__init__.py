"""Software-isolation checking for litmus-scale assembly under pluggable
axiomatic memory models, covering control-flow speculation, store-to-load
and predictive store forwarding, and memory-ordering machine clears."""

import importlib

from .catlang import CatModel, check_assertions, check_srf_fence, evaluate, parse_cat
from .engine import Verdict, check_isolation, enumerate_candidates
from .events import (
    CandidateExecution,
    Event,
    Relation,
    base_relations,
    build_events,
    propagate_values,
)
from .masm import ParseError, Program, parse_program, pred, unroll
from .resources import BUNDLED_MODELS, corpus_dir, load_model, models_dir
from .speculation import (
    SpecConfig,
    check_fences,
    check_speculative_cf,
    check_traditional_cf,
    check_window,
)

__all__ = [
    "BUNDLED_MODELS",
    "CandidateExecution",
    "CatModel",
    "Event",
    "ParseError",
    "Program",
    "Relation",
    "SpecConfig",
    "Verdict",
    "corpus_dir",
    "load_model",
    "models_dir",
    "base_relations",
    "build_events",
    "check_assertions",
    "check_fences",
    "check_isolation",
    "check_speculative_cf",
    "check_srf_fence",
    "check_traditional_cf",
    "check_window",
    "emit_smt",
    "emit_witness_dot",
    "enumerate_candidates",
    "evaluate",
    "parse_cat",
    "parse_program",
    "pred",
    "propagate_values",
    "unroll",
]

__version__ = "0.1.0"

# the solver export and the DOT writer, which no verdict run calls, are
# imported on first use (PEP 562): each name to the submodule it comes from
_ON_FIRST_USE = {"emit_smt": "smt", "emit_witness_dot": "dot", "smt": "smt", "dot": "dot"}


def __getattr__(name):
    if name not in _ON_FIRST_USE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    sub = _ON_FIRST_USE[name]
    module = importlib.import_module("." + sub, __name__)
    value = module if name == sub else getattr(module, name)
    globals()[name] = value
    return value
