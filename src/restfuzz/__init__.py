"""Stateful REST API fuzzing framework with a deterministic mock target.

The package splits along the fuzzing pipeline: :mod:`restfuzz.grammar`
compiles an API description into request templates that name the types
they produce and consume, :mod:`restfuzz.sequences` selects and extends
sequence templates, :mod:`restfuzz.rendering` turns them into concrete
requests, :mod:`restfuzz.collection` accumulates the datasets that feed
:mod:`restfuzz.recommender` (a GRU/attention next-pair model) and the
checkers in :mod:`restfuzz.checkers`.  :mod:`restfuzz.orchestrator` runs
the loop; :mod:`restfuzz.mock_service` is the desk-scale target with
seeded bugs.
"""

from .collection import CollectionStore, ParamValuePair
from .grammar import (
    CompiledGrammar,
    DefaultNotInDictionary,
    MalformedSpec,
    ParamSpec,
    RequestTemplate,
    UnresolvableConsumer,
    parse_spec,
    parse_spec_file,
)
from .orchestrator import MODES, FuzzConfig, Fuzzer, fuzz_loop
from .recommender import ModelConfig, Recommender
from .rendering import ReadyRequest, RenderMode
from .reporting import RunMetrics, pass_rate
from .responses import ResponseClass, ResponseRecord
from .sequences import SequenceTemplate, extend, select_seed, selection_weights

__version__ = "0.1.0"

__all__ = [
    "CollectionStore",
    "CompiledGrammar",
    "DefaultNotInDictionary",
    "FuzzConfig",
    "Fuzzer",
    "MODES",
    "MalformedSpec",
    "ModelConfig",
    "ParamSpec",
    "ParamValuePair",
    "ReadyRequest",
    "Recommender",
    "RenderMode",
    "RequestTemplate",
    "ResponseClass",
    "ResponseRecord",
    "RunMetrics",
    "SequenceTemplate",
    "UnresolvableConsumer",
    "extend",
    "fuzz_loop",
    "parse_spec",
    "parse_spec_file",
    "pass_rate",
    "select_seed",
    "selection_weights",
]
