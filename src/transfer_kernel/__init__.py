"""Proof transfer between related data types, checked by a small kernel.

The package has three layers: a dependent-type-theory kernel that acts as
the trusted checker (`kernel`, the one trusted module, which imports only
the standard library), a vernacular script language with parser,
elaborator and printer (`surface`), and two proof-transfer engines driven
by user-declared tables (`tables`, `transfer_v1`, `transfer_v2`) that share
untrusted term helpers (`terms`), one failure type and one trace type
(`outcome`), all tied together by a batch CLI (`cli`, also run by `python
-m transfer_kernel`).
"""

from .kernel import (
    PROP, SET, TYPE,
    App, Const, GlobalEnv, Lam, LocalContext, Pi, Sort, Term, Var,
    app, arrow, check_proof, check_proof_report, convertible, infer_type,
    normalize, prelude_env, shift, substitute, whnf,
)
from .surface import (
    ElabError, ParseError, elaborate, parse_and_elaborate,
    parse_script, parse_term, print_term,
)
from .tables import (
    DeclTables, DuplicateEntry, RelationEntryV2, ShapeError, SurjectionEntry,
    TableError, TransferEntryV1, declare_relation_v2, declare_surjection,
    declare_transfer_v1, lookup_surjection, lookup_transfer_v1, prefill_core,
    surjection_to_relational,
)
from .outcome import DerivationTrace, TraceStep, TransferFailure
from .transfer_v1 import build_rewrite, exact_modulo
from .transfer_v2 import transfer_modulo
from .cli import RunOptions, SessionState, execute_script, report, run_script

__all__ = [
    "PROP", "SET", "TYPE",
    "App", "Const", "GlobalEnv", "Lam", "LocalContext", "Pi", "Sort", "Term",
    "Var", "app", "arrow", "check_proof", "check_proof_report", "convertible",
    "infer_type", "normalize", "prelude_env", "shift", "substitute", "whnf",
    "ElabError", "ParseError", "elaborate", "parse_and_elaborate",
    "parse_script", "parse_term", "print_term",
    "DeclTables", "DuplicateEntry", "RelationEntryV2", "ShapeError",
    "SurjectionEntry", "TableError", "TransferEntryV1", "declare_relation_v2",
    "declare_surjection", "declare_transfer_v1", "lookup_surjection",
    "lookup_transfer_v1", "prefill_core", "surjection_to_relational",
    "DerivationTrace", "TraceStep", "TransferFailure",
    "build_rewrite", "exact_modulo", "transfer_modulo",
    "RunOptions", "SessionState", "execute_script", "report", "run_script",
]
