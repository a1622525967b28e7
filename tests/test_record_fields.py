"""Every record type stores each ``__init__`` argument in the field of the
same name, positionally and by keyword.  The arguments are pairwise-distinct
objects, so a store that swaps two values fails here even where the two
would compare equal."""

import importlib
import inspect
import pkgutil

import pytest

import cosec
from cosec.annotate import AnnotatedCotree, NodeAnnotations
from cosec.cotree import Cotree, Graph, _Record
from cosec.generators import GkSpec, RandomSpec
from cosec.oracles import OracleBudget
from cosec.verify import Mismatch, OriginalLemmaFinding, VerificationReport

# one row per record type: the arguments its __init__ checks, with valid and
# pairwise-distinct values; every other argument is a fresh object()
CHECKED = {
    Cotree: {},
    Graph: {},
    NodeAnnotations: {},
    AnnotatedCotree: {},
    OracleBudget: {"max_vertices_domination": 12, "max_vertices_secure": 9},
    GkSpec: {"k": 3},
    RandomSpec: {"leaf_count": 10, "max_arity": 5},
    Mismatch: {},
    OriginalLemmaFinding: {},
    VerificationReport: {},
}


def _arguments(cls) -> dict:
    checked = CHECKED[cls]
    return {name: checked.get(name, object()) for name in inspect.signature(cls).parameters}


@pytest.mark.parametrize("cls", CHECKED, ids=lambda cls: cls.__name__)
def test_every_argument_is_stored_in_the_field_of_its_name(cls):
    args = _arguments(cls)
    assert tuple(args) == cls._fields
    assert len({id(value) for value in args.values()}) == len(args)
    for record in (cls(*args.values()), cls(**args)):
        for name, value in args.items():
            assert getattr(record, name) is value, name


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_the_cases_cover_every_record_type_in_the_package():
    for module in pkgutil.iter_modules(cosec.__path__):
        if module.name != "__main__":  # it runs the CLI on import
            importlib.import_module(f"cosec.{module.name}")
    defined = {cls for cls in _subclasses(_Record) if cls.__module__.startswith("cosec.")}
    assert defined == set(CHECKED)
