"""Parse tables, conflicts, precedence resolution, and classification."""

from .build import BUILDERS, build_clr_table, build_lalr_table, build_lr0_table
from .build import build_slr_table, build_table
from .cache import TableCache, default_cache_dir
from .serialize import (
    TableCacheError,
    load_table,
    save_table,
    table_from_dict,
    table_to_dict,
)
from .binfmt import (
    BINARY_FORMAT_VERSION,
    BINARY_SUFFIX,
    load_binary_table,
    save_binary_table,
    table_from_bytes,
    table_to_bytes,
)
from .displace import DisplacedTable, displace, displacement_ratio
from .nondet import NondeterministicTable, nondet_view
from .specialize import SpecializedTable, specialize, specialized_view
from .explain import ConflictExample, explain_conflict, explain_table_conflicts
from .codegen import STYLES, generate_parser_module, write_parser_module
from .compress import CompressedTable, compress, compression_ratio
from .classify import Classification, GrammarClass, class_at_most, classify
from .conflicts import Conflict, resolve_shift_reduce
from .table import ACCEPT, Accept, Action, ParseTable, Reduce, Shift

__all__ = [
    "ACCEPT",
    "Accept",
    "Action",
    "BINARY_FORMAT_VERSION",
    "BINARY_SUFFIX",
    "BUILDERS",
    "Classification",
    "CompressedTable",
    "ConflictExample",
    "DisplacedTable",
    "explain_conflict",
    "explain_table_conflicts",
    "STYLES",
    "TableCache",
    "TableCacheError",
    "default_cache_dir",
    "displace",
    "displacement_ratio",
    "load_binary_table",
    "load_table",
    "save_binary_table",
    "save_table",
    "table_from_bytes",
    "table_from_dict",
    "table_to_bytes",
    "table_to_dict",
    "generate_parser_module",
    "write_parser_module",
    "compress",
    "compression_ratio",
    "Conflict",
    "GrammarClass",
    "NondeterministicTable",
    "nondet_view",
    "ParseTable",
    "Reduce",
    "Shift",
    "SpecializedTable",
    "specialize",
    "specialized_view",
    "build_clr_table",
    "build_lalr_table",
    "build_lr0_table",
    "build_slr_table",
    "build_table",
    "class_at_most",
    "classify",
    "resolve_shift_reduce",
]
