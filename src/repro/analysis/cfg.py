"""Control-flow graph over CIL method bodies.

The CFG is the substrate every pass consumes: basic blocks, normal
and **exception** edges, dominators and reachability.  Block
boundaries follow the classic leader rule —
entry, branch targets, fall-through points after conditional branches,
and protected-region handler entries all start blocks; ``ret``,
``throw`` and unconditional branches end them.

Exception edges model ECMA-335 II.19 unwinding: every block that
overlaps a protected region gets an edge to that region's handler
block, because any instruction inside the ``try`` may transfer there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.cli.cil import Op
from repro.cli.metadata import MethodDef

__all__ = ["BasicBlock", "Edge", "CFG", "build_cfg"]

_BRANCHES = (Op.BR, Op.BRTRUE, Op.BRFALSE)
_TERMINATORS = (Op.BR, Op.RET, Op.THROW)


@dataclass(frozen=True)
class Edge:
    """A directed CFG edge.  ``kind`` is ``"fall"`` (straight-line or
    not-taken conditional), ``"branch"`` (taken branch) or
    ``"exception"`` (potential unwind into a handler)."""

    src: int
    dst: int
    kind: str


@dataclass
class BasicBlock:
    """A maximal straight-line run ``body[start:end]``."""

    index: int
    start: int
    end: int
    successors: List[Edge] = field(default_factory=list)
    predecessors: List[Edge] = field(default_factory=list)
    is_handler_entry: bool = False

    @property
    def pcs(self) -> range:
        return range(self.start, self.end)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BasicBlock B{self.index} [{self.start},{self.end})>"


class CFG:
    """Basic blocks + edges + dominators for one method."""

    def __init__(self, method: MethodDef, blocks: List[BasicBlock]) -> None:
        self.method = method
        self.blocks = blocks
        self._block_of_pc: Dict[int, int] = {}
        for b in blocks:
            for pc in b.pcs:
                self._block_of_pc[pc] = b.index
        self.reachable: FrozenSet[int] = self._compute_reachable()
        self.dominators: Dict[int, FrozenSet[int]] = self._compute_dominators()

    # -- queries ---------------------------------------------------------------

    def block_at(self, pc: int) -> BasicBlock:
        return self.blocks[self._block_of_pc[pc]]

    def reachable_pcs(self) -> Set[int]:
        """Instruction indices inside reachable blocks."""
        out: Set[int] = set()
        for bi in self.reachable:
            out.update(self.blocks[bi].pcs)
        return out

    def dominates(self, a: int, b: int) -> bool:
        """Does block ``a`` dominate block ``b``?  Unreachable blocks
        dominate nothing and are dominated by everything (vacuous)."""
        return a in self.dominators.get(b, frozenset())

    @property
    def edges(self) -> List[Edge]:
        return [e for b in self.blocks for e in b.successors]

    # -- construction helpers --------------------------------------------------

    def _compute_reachable(self) -> FrozenSet[int]:
        seen: Set[int] = set()
        work = [0] if self.blocks else []
        while work:
            bi = work.pop()
            if bi in seen:
                continue
            seen.add(bi)
            for e in self.blocks[bi].successors:
                if e.dst not in seen:
                    work.append(e.dst)
        return frozenset(seen)

    def _compute_dominators(self) -> Dict[int, FrozenSet[int]]:
        """Iterative dataflow dominators over the reachable subgraph."""
        reach = self.reachable
        doms: Dict[int, Set[int]] = {}
        if not self.blocks:
            return {}
        doms[0] = {0}
        others = sorted(reach - {0})
        for bi in others:
            doms[bi] = set(reach)
        changed = True
        while changed:
            changed = False
            for bi in others:
                preds = [
                    e.src for e in self.blocks[bi].predecessors if e.src in reach
                ]
                if preds:
                    new = set.intersection(*(doms[p] for p in preds))
                else:  # only entry has no preds among reachable blocks
                    new = set()
                new = new | {bi}
                if new != doms[bi]:
                    doms[bi] = new
                    changed = True
        return {bi: frozenset(s) for bi, s in doms.items()}

    def format(self) -> str:
        """Deterministic text rendering (used by ``disasm --cfg``)."""
        lines = [f"cfg {self.method.full_name}: {len(self.blocks)} block(s)"]
        for b in self.blocks:
            flags = []
            if b.index not in self.reachable:
                flags.append("unreachable")
            if b.is_handler_entry:
                flags.append("handler")
            suffix = f"  [{', '.join(flags)}]" if flags else ""
            lines.append(f"  B{b.index} [{b.start},{b.end}){suffix}")
            for e in sorted(b.successors, key=lambda e: (e.dst, e.kind)):
                lines.append(f"    -> B{e.dst} ({e.kind})")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CFG {self.method.full_name} blocks={len(self.blocks)} "
            f"reachable={len(self.reachable)}>"
        )


def build_cfg(method: MethodDef) -> CFG:
    """Build the CFG for a (label-resolved) method body."""
    body = method.body
    n = len(body)
    leaders: Set[int] = {0} if n else set()
    for h in method.handlers:
        if 0 <= h.handler_start < n:
            leaders.add(h.handler_start)
        if 0 <= h.try_start < n:
            leaders.add(h.try_start)
        if 0 <= h.try_end < n:
            leaders.add(h.try_end)
    for pc, ins in enumerate(body):
        if ins.op in _BRANCHES and isinstance(ins.operand, int):
            if 0 <= ins.operand < n:
                leaders.add(ins.operand)
            if pc + 1 < n:
                leaders.add(pc + 1)
        elif ins.op in (Op.RET, Op.THROW) and pc + 1 < n:
            leaders.add(pc + 1)

    starts = sorted(leaders)
    blocks: List[BasicBlock] = []
    for i, start in enumerate(starts):
        end = starts[i + 1] if i + 1 < len(starts) else n
        blocks.append(BasicBlock(index=i, start=start, end=end))
    block_of = {b.start: b.index for b in blocks}
    handler_entries = {h.handler_start for h in method.handlers}
    for b in blocks:
        if b.start in handler_entries:
            b.is_handler_entry = True

    def connect(src: int, dst_pc: int, kind: str) -> None:
        dst = block_of.get(dst_pc)
        if dst is None:
            return  # malformed target; the verifier reports it
        edge = Edge(src=src, dst=dst, kind=kind)
        blocks[src].successors.append(edge)
        blocks[dst].predecessors.append(edge)

    for b in blocks:
        if b.start >= b.end:  # pragma: no cover - empty body guard
            continue
        last_pc = b.end - 1
        last = body[last_pc]
        op = last.op
        if op is Op.BR:
            if isinstance(last.operand, int):
                connect(b.index, last.operand, "branch")
        elif op in (Op.BRTRUE, Op.BRFALSE):
            if isinstance(last.operand, int):
                connect(b.index, last.operand, "branch")
            if b.end < n:
                connect(b.index, b.end, "fall")
        elif op in (Op.RET, Op.THROW):
            pass
        elif b.end < n:
            connect(b.index, b.end, "fall")
        # Exception edges: any pc of this block inside a protected
        # region may unwind to its handler.
        seen_handlers: Set[int] = set()
        for h in method.handlers:
            if h.handler_start in seen_handlers:
                continue
            if not (0 <= h.handler_start < n):
                continue
            if max(b.start, h.try_start) < min(b.end, h.try_end):
                seen_handlers.add(h.handler_start)
                connect(b.index, h.handler_start, "exception")

    return CFG(method, blocks)
