"""Context-free grammar substrate: symbols, productions, I/O, transforms."""

from .cnf import CnfGrammar, is_cnf, to_cnf
from .delta import (
    DeltaKind,
    GrammarDelta,
    add_production,
    classify,
    remove_production,
    replace_rhs,
)
from .fingerprint import (
    grammar_fingerprint,
    production_fingerprint,
    production_fingerprints,
    text_fingerprint,
)
from .lint import LintWarning, lint, lint_report
from .builder import GrammarBuilder, grammar_from_rules
from .errors import (
    GrammarError,
    GrammarSyntaxError,
    GrammarValidationError,
    ProductionError,
    SymbolError,
)
from .grammar import Assoc, Grammar, Precedence
from .production import Production
from .reader import load_grammar, load_grammar_file
from .symbols import EOF_NAME, EPSILON_NAME, Symbol, SymbolTable
from .transforms import reduce_grammar, remove_epsilon_rules
from .writer import write_arrow, write_yacc

__all__ = [
    "Assoc",
    "DeltaKind",
    "EOF_NAME",
    "EPSILON_NAME",
    "Grammar",
    "GrammarBuilder",
    "GrammarDelta",
    "CnfGrammar",
    "LintWarning",
    "lint",
    "lint_report",
    "is_cnf",
    "to_cnf",
    "GrammarError",
    "GrammarSyntaxError",
    "GrammarValidationError",
    "Precedence",
    "Production",
    "ProductionError",
    "Symbol",
    "SymbolError",
    "SymbolTable",
    "add_production",
    "classify",
    "grammar_fingerprint",
    "grammar_from_rules",
    "load_grammar",
    "load_grammar_file",
    "production_fingerprint",
    "production_fingerprints",
    "remove_production",
    "reduce_grammar",
    "remove_epsilon_rules",
    "replace_rhs",
    "text_fingerprint",
    "write_arrow",
    "write_yacc",
]
