"""Static instruction-cache analysis (abstract interpretation).

This package re-implements the cache analysis the paper builds on
(Theiling/Ferdinand-style abstract interpretation, used by Heptane):

* **Must** analysis — upper bounds on LRU ages; a reference whose block
  is guaranteed cached is *always-hit*;
* **May** analysis — lower bounds on LRU ages; a reference whose block
  cannot be cached is *always-miss*;
* **Persistence** — per-loop conflict counting; a reference whose
  conflict set fits in the set's (possibly degraded) associativity is
  *first-miss* in the outermost loop where it fits.

All analyses are parameterised by the per-set associativity, which is
how faulty ways enter the picture: a set with ``f`` faulty blocks is a
set analysed at associativity ``W - f``.
"""

from repro.analysis.chmc import Chmc, Classification, GLOBAL_SCOPE
from repro.analysis.references import Reference, block_references
from repro.analysis.must import MustAnalysis
from repro.analysis.may import MayAnalysis
from repro.analysis.persistence import PersistenceAnalysis
from repro.analysis.classify import (AnalysisStats, CacheAnalysis,
                                     ClassificationTable)
from repro.analysis.store import ClassificationStore
from repro.analysis.vectorized import StackedAgeVectorEngine

__all__ = [
    "Chmc",
    "Classification",
    "GLOBAL_SCOPE",
    "Reference",
    "block_references",
    "MustAnalysis",
    "MayAnalysis",
    "PersistenceAnalysis",
    "AnalysisStats",
    "CacheAnalysis",
    "ClassificationTable",
    "ClassificationStore",
    "StackedAgeVectorEngine",
]
