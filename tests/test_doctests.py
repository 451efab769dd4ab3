"""Run the doctest examples embedded in the public API docstrings."""

import doctest

import pytest

import repro
import repro.core.planner
import repro.engine.engine
import repro.core.base
import repro.core.lexicographic
import repro.core.ucq
import repro.core.acyclic
import repro.core.minweight
import repro.data.index
import repro.data.relation
import repro.data.database
import repro.query.parser
import repro.query.query
import repro.query.hypergraph
import repro.query.properties
import repro.algorithms.semijoin
import repro.storage.columnstore
import repro.storage.dictionary
import repro.storage.paths
import repro.testing.faultinject

MODULES = [
    repro,
    repro.core.planner,
    repro.engine.engine,
    repro.core.base,
    repro.core.lexicographic,
    repro.core.ucq,
    repro.core.acyclic,
    repro.core.minweight,
    repro.data.index,
    repro.data.relation,
    repro.data.database,
    repro.query.parser,
    repro.query.query,
    repro.query.hypergraph,
    repro.query.properties,
    repro.algorithms.semijoin,
    repro.storage.columnstore,
    repro.storage.dictionary,
    repro.storage.paths,
    repro.testing.faultinject,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0
    assert result.attempted > 0, f"{module.__name__} has no doctest examples"
