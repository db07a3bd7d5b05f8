"""Signed-word calculus: unordered presentation classes, pairing trees,
abelian shadows, and an exact-geometry oracle on punctured planes."""

from .abelian import RelationLattice, abelianize, multiset_quotient
from .errors import (
    DomainError,
    FlagcalcError,
    ParseError,
    RerouteError,
    ResourceLimitError,
    UnknownGeneratorError,
)
from .plane import (
    FlaggedLoop,
    Point,
    PuncturedPlane,
    connected_sum,
    crossing_word,
    normalize_flag,
    sample_loops,
    winding_number,
    winding_profile,
)
from .suites import verify_group_law
from .trees import (
    Leaf,
    Node,
    PairingTree,
    RootedPresentation,
    eval_tree,
    flip,
    move_closure,
    parse_tree,
    word_to_tree,
)
from .words import (
    MINUS,
    PLUS,
    GeneratorSet,
    PresentationClass,
    Sign,
    SignedWord,
    class_of,
    pair,
    parse_word,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "FlagcalcError",
    "FlaggedLoop",
    "GeneratorSet",
    "Leaf",
    "MINUS",
    "Node",
    "PLUS",
    "PairingTree",
    "ParseError",
    "Point",
    "PresentationClass",
    "PuncturedPlane",
    "RelationLattice",
    "RerouteError",
    "ResourceLimitError",
    "RootedPresentation",
    "Sign",
    "SignedWord",
    "UnknownGeneratorError",
    "abelianize",
    "class_of",
    "connected_sum",
    "crossing_word",
    "eval_tree",
    "flip",
    "move_closure",
    "multiset_quotient",
    "normalize_flag",
    "pair",
    "parse_tree",
    "parse_word",
    "sample_loops",
    "verify_group_law",
    "winding_number",
    "winding_profile",
    "word_to_tree",
]
