"""Fragments: translated basic blocks in the fragment cache."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.isa.instruction import Instruction
from repro.isa.opcodes import InstrClass

#: Fragment-cache addresses live in their own region so host predictors key
#: on translated-code addresses, never on guest addresses.
FRAGMENT_CACHE_BASE = 0xF000_0000

#: Return landing pads (fast-return scheme) live above the fragment cache.
RETURN_PAD_BASE = 0xFE00_0000


class ExitKind(enum.Enum):
    """How a fragment transfers control when it falls off the end."""

    # members are singletons: hash by identity in C, not by Enum's
    # Python-level hash(name) (docs/performance.md, "Host hot path")
    __hash__ = object.__hash__

    COND = "cond"      # conditional branch: taken + fallthrough successors
    JUMP = "jump"      # unconditional direct jump
    CALL = "call"      # direct call (direct successor + return address)
    IJUMP = "ijump"    # indirect jump — dispatch through an IB mechanism
    ICALL = "icall"    # indirect call
    RET = "ret"        # return
    HALT = "halt"      # program end
    FALL = "fall"      # fragment-length limit hit: plain fallthrough


_EXIT_FOR_CLASS = {
    InstrClass.BRANCH: ExitKind.COND,
    InstrClass.JUMP: ExitKind.JUMP,
    InstrClass.CALL: ExitKind.CALL,
    InstrClass.IJUMP: ExitKind.IJUMP,
    InstrClass.ICALL: ExitKind.ICALL,
    InstrClass.RET: ExitKind.RET,
    InstrClass.HALT: ExitKind.HALT,
}


def exit_kind_for(iclass: InstrClass) -> ExitKind:
    """Exit kind implied by a terminating instruction class."""
    return _EXIT_FOR_CLASS[iclass]


@dataclass(slots=True)
class Fragment:
    """One translated basic block.

    Attributes:
        guest_pc: guest address of the first instruction.
        fc_addr: address of the translated copy in the fragment cache.
        instrs: ``(guest_pc, instruction)`` pairs, terminator included
            (except for ``FALL`` fragments, which have no terminator).
        exit_kind: how control leaves the fragment.
        links: direct-exit link slots (``"T"``/``"F"``/``"J"``) patched to
            successor fragments once those are translated.
        valid: cleared when the fragment cache is flushed or evicts the
            fragment (selective invalidation).
        plan: compiled :class:`repro.machine.engine.Superblock` (block
            function + block cost vector), built once at translation when the
            threaded engine is active; ``None`` under the oracle engine
            and after demotion or eviction.
        demoted: permanently pinned to the oracle execution engine after
            a plan-coherence failure (the graceful-degradation path; see
            docs/robustness.md).  Never set without fault injection.
        region: tier-2 promotion state (engine ``tier2`` only): ``None``
            until the fragment is probed for promotion, a compiled
            :class:`repro.machine.tier2.Region` headed by this
            fragment once promoted, or ``False`` when the fragment is
            permanently region-ineligible.  Profile state, not
            architecture — results are identical with or without it.
        exit_site: fragment-cache address of the terminating host branch
            (the last instruction's): the address host predictors see
            for the fragment's final control transfer.  The translator
            sets it with ``fc_addr``.
    """

    guest_pc: int
    fc_addr: int
    instrs: list[tuple[int, Instruction]]
    exit_kind: ExitKind
    links: dict[str, "Fragment"] = field(default_factory=dict)
    valid: bool = True
    executions: int = 0
    plan: object | None = None
    demoted: bool = False
    region: object | None = None
    exit_site: int = 0

    @property
    def size_bytes(self) -> int:
        """Estimated fragment-cache footprint (body + exit stubs)."""
        stub = 16 if self.exit_kind is ExitKind.COND else 8
        return 4 * len(self.instrs) + stub

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Fragment(guest={self.guest_pc:#x}, fc={self.fc_addr:#x}, "
            f"n={len(self.instrs)}, exit={self.exit_kind.value})"
        )
