"""MiniC: a small C-like language compiled to SR32.

MiniC exists so the benchmark suite can be written at a realistic altitude:
function calls and returns, function-pointer dispatch tables (indirect
calls), dense ``switch`` statements (jump-table indirect jumps), recursion,
arrays and ``load``/``store`` intrinsics for heap data structures.  Its
code generator is what gives the guest programs the indirect-branch
profiles the paper's evaluation depends on.

Pipeline: :mod:`lexer` → :mod:`parser` → :mod:`sema` → :mod:`codegen`,
driven by :func:`repro.lang.compiler.compile_source`.
"""

from repro.lang.compiler import compile_source, compile_to_program
from repro.lang.errors import LangError, LexError, ParseError, SemaError

__all__ = [
    "LangError",
    "LexError",
    "ParseError",
    "SemaError",
    "compile_source",
    "compile_to_program",
]
