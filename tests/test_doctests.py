"""Run the library's docstring examples as tests.

Public-facing docstrings carry runnable examples; if they rot, users
get broken documentation.  Every module with doctests is enumerated
here — a new doctest-bearing module must be added to the list.
"""

import doctest
import importlib

import pytest

# importlib.import_module is required: package __init__ files re-export
# functions like `anatomize` that shadow the submodule attribute of the
# same name on the parent package.
MODULE_NAMES = [
    "repro",
    "repro.core.anatomize",
    "repro.core.arrays",
    "repro.core.incremental",
    "repro.core.privacy",
    "repro.dataset.census",
    "repro.dataset.schema",
    "repro.dataset.table",
    "repro.generalization.mondrian",
    "repro.obs.audit",
    "repro.obs.logging",
    "repro.query.predicates",
    "repro.storage.engine",
]

MODULES = [importlib.import_module(name) for name in MODULE_NAMES]


@pytest.mark.parametrize("module", MODULES,
                         ids=[m.__name__ for m in MODULES])
def test_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, \
        f"{results.failed} doctest failure(s) in {module.__name__}"


def test_doctests_actually_present():
    """The list above must cover modules that really have examples —
    guard against silently losing them all."""
    total = sum(
        len(doctest.DocTestFinder().find(m, m.__name__))
        for m in MODULES)
    with_examples = sum(
        1
        for m in MODULES
        for t in doctest.DocTestFinder().find(m, m.__name__)
        if t.examples)
    assert total > 0
    assert with_examples >= 8
