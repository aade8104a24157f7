"""MiniC compilation driver."""

from __future__ import annotations

from repro.isa.assembler import assemble
from repro.isa.program import Program
from repro.lang.codegen import generate
from repro.lang.parser import parse
from repro.lang.sema import analyze


def compile_source(source: str) -> str:
    """Compile MiniC source to SR32 assembly text."""
    unit = parse(source)
    return generate(unit, analyze(unit))


def compile_to_program(source: str) -> Program:
    """Compile MiniC source all the way to a loadable guest program."""
    return assemble(compile_source(source))
