"""Search, classification, bounds and certificate traces for harmonious,
unitary harmonious, amicable and anarchy integer tuples, with exact arithmetic
end to end."""

from harmonia.arith import (
    Factorization,
    factorize,
    sigma_of,
    sigma_star_of,
)
from harmonia.bounds import BoundReport, tower, verify_bounds
from harmonia.classify import TupleRecord, classify, classify_all
from harmonia.induction import run_induction, theorem_trace
from harmonia.search import (
    CheckpointMismatch,
    SearchConfig,
    count_table,
    search_anarchy_pairs,
    search_pairs,
    search_triples,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CheckpointMismatch",
    "Factorization",
    "SearchConfig",
    "TupleRecord",
    "classify",
    "classify_all",
    "count_table",
    "factorize",
    "run_induction",
    "search_anarchy_pairs",
    "search_pairs",
    "search_triples",
    "sigma_of",
    "sigma_star_of",
    "theorem_trace",
    "tower",
    "verify_bounds",
    "__version__",
]
