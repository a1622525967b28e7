"""cosec — cotree toolkit for secure-domination bookkeeping on cographs.

The package revolves around one comparison: a linear-time bottom-up pass
(:func:`annotate`) computes, for every node of a normalized cotree, the facts
needed to decide whether a join-rooted cograph admits a two-vertex secure
configuration — including an intentionally flawed published rule
(``p_original``) and its correction (``p_corrected``) — and exponential
definitional oracles (:mod:`cosec.oracles`) provide the ground truth both are
judged against.  :mod:`cosec.generators` produces the counterexample family
``g_k`` that separates the two rules, plus exhaustive and random corpora;
:mod:`cosec.verify` runs the cross-checks at corpus scale.
"""

from importlib import import_module as _import_module

from .annotate import (
    AnnotatedCotree,
    NodeAnnotations,
    annotate,
    property_p_corrected,
    property_p_original,
)
from .cotree import (
    JOIN,
    LEAF,
    UNION,
    Cotree,
    Graph,
    complement,
    from_nested,
    is_normalized,
    join,
    lca_kind,
    leaf,
    materialize,
    normalize,
    parse_cotree,
    subtree,
    to_dot,
    to_json,
    to_text,
    union,
)
from .errors import (
    BudgetExceededError,
    CotreeParseError,
    NotAJoinError,
    NotNormalizedError,
    UnknownLeafError,
)

# The corpus, oracle and verify names load with their module on first use,
# so a command that needs none of them never compiles those modules.
# ``annotate`` stays eager: importing the submodule ``cosec.annotate`` sets
# the package attribute to the module, and only the import above binds the
# function back over it.
_DEFERRED = {
    name: home
    for home, names in (
        ("generators", "GkSpec RandomSpec enumerate_cotrees g_k random_corpus random_cotree"),
        (
            "oracles",
            "DEFAULT_BUDGET OracleBudget domination_number is_clique is_complete"
            " is_dominating is_secure_dominating label_r_definitional"
            " label_r_structural property_p_definitional secure_domination_number",
        ),
        ("verify", "VerificationReport verify_corpora"),
    )
    for name in names.split()
}


def _deferred_getattr(namespace: dict, homes: dict[str, str]):
    """A module ``__getattr__`` (PEP 562) over ``namespace``: a name in
    ``homes`` is read from ``cosec.<home>`` on first use and cached in
    ``namespace``, so later reads are plain attribute lookups."""
    module = namespace["__name__"]

    def __getattr__(name: str):
        home = homes.get(name)
        if home is None:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        value = namespace[name] = getattr(_import_module(f"{__name__}.{home}"), name)
        return value

    return __getattr__


__getattr__ = _deferred_getattr(globals(), _DEFERRED)


def __dir__() -> list[str]:
    return sorted({*globals(), *_DEFERRED})


__version__ = "0.1.0"

__all__ = [
    "AnnotatedCotree",
    "BudgetExceededError",
    "Cotree",
    "CotreeParseError",
    "DEFAULT_BUDGET",
    "GkSpec",
    "Graph",
    "JOIN",
    "LEAF",
    "NodeAnnotations",
    "NotAJoinError",
    "NotNormalizedError",
    "OracleBudget",
    "RandomSpec",
    "UNION",
    "UnknownLeafError",
    "VerificationReport",
    "annotate",
    "complement",
    "domination_number",
    "enumerate_cotrees",
    "from_nested",
    "g_k",
    "is_clique",
    "is_complete",
    "is_dominating",
    "is_normalized",
    "is_secure_dominating",
    "join",
    "label_r_definitional",
    "label_r_structural",
    "lca_kind",
    "leaf",
    "materialize",
    "normalize",
    "parse_cotree",
    "property_p_corrected",
    "property_p_definitional",
    "property_p_original",
    "random_corpus",
    "random_cotree",
    "secure_domination_number",
    "subtree",
    "to_dot",
    "to_json",
    "to_text",
    "union",
    "verify_corpora",
]
