"""foursq: triples a, b, c > 1 with ab+1, ac+1, bc+1 and abc+1 all squares.

Construct members of the two closed-form families, certify arbitrary triples
exactly, machine-check the algebra behind the main family, and run an
exhaustive sieved census up to a bound (compiled kernel when built, pure
Python otherwise).
"""

from .certify import (Certificate, DomainError, VerifyOutcome, isqrt,
                      perfect_square_root, verify_four)
from .family import (ConstructionError, NotDiophantinePair, TripleCandidate,
                     degenerate_family, make_companion, make_main,
                     recurrence_r, regular_complete)
from .search import (SearchResult, SearchStats, brute_oracle, find_pairs,
                     kernel_loaded, search_triples)
from .sequences import (ConicPoint, PellNumber, binet_exact, conic_point,
                        pell_P, seq_A, seq_R)
from .symbolic import BiPoly, prove_identities, reduce

__version__ = "0.1.0"

__all__ = [
    "Certificate", "DomainError", "VerifyOutcome", "isqrt",
    "perfect_square_root", "verify_four",
    "ConstructionError", "NotDiophantinePair", "TripleCandidate",
    "degenerate_family", "make_companion", "make_main",
    "recurrence_r", "regular_complete",
    "SearchResult", "SearchStats", "brute_oracle", "find_pairs",
    "kernel_loaded", "search_triples",
    "ConicPoint", "PellNumber", "binet_exact", "conic_point",
    "pell_P", "seq_A", "seq_R",
    "BiPoly", "prove_identities", "reduce",
    "__version__",
]
