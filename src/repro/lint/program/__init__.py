"""Whole-program static analysis over the ``repro`` tree.

This subpackage is the second tier of the lint engine: where
:mod:`repro.lint.rules` checks one file at a time against a shared AST,
the program tier reduces every module to a :class:`ModuleSummary`
(defs, classes, attribute writes, dispatch tables),
links the summaries into a :class:`ProgramIndex` and resolved
:class:`CallGraph`, and runs analyses whose subject is the *protocol* —
facts no single file can witness:

* ``journal-first`` — durable state mutates only under journal cover;
* ``async-safety``  — no blocking call reachable from daemon coroutines;
* ``exception-wire``— every typed handler error has a rebuild mapping.

Entry point: :func:`run_program` (or ``python -m repro lint --program``).
"""

from .analyses import ProgramContext, ProgramRule, all_program_rules
from .callgraph import CallGraph, ProgramIndex, ResolvedCall
from .extract import summarize_source
from .runner import ProgramRun, module_name, run_program, select_program_rules
from .summary import (
    CallSite,
    ClassSummary,
    DispatchEntry,
    FunctionSummary,
    ModuleSummary,
    MutationSite,
    RaiseSite,
)

__all__ = [
    "CallGraph",
    "CallSite",
    "ClassSummary",
    "DispatchEntry",
    "FunctionSummary",
    "ModuleSummary",
    "MutationSite",
    "ProgramContext",
    "ProgramIndex",
    "ProgramRule",
    "ProgramRun",
    "RaiseSite",
    "ResolvedCall",
    "all_program_rules",
    "module_name",
    "run_program",
    "select_program_rules",
    "summarize_source",
]
