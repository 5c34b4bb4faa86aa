"""Stateful REST API fuzzing framework with a deterministic mock target.

The package splits along the fuzzing pipeline: :mod:`restfuzz.grammar`
compiles an API description into request templates that name the types
they produce and consume, :mod:`restfuzz.sequences` selects and extends
sequence templates, :mod:`restfuzz.rendering` turns them into concrete
requests, :mod:`restfuzz.collection` accumulates the datasets that feed
:mod:`restfuzz.recommender` (a GRU/attention next-pair model) and the
checkers in :mod:`restfuzz.checkers`.  :mod:`restfuzz.orchestrator` runs
the loop; :mod:`restfuzz.mock_service` is the desk-scale target with
seeded bugs.  Import names from their modules: the package itself loads
nothing, so ``restfuzz serve`` needs only the standard library.
"""

__version__ = "0.1.0"
