"""The execution engine: a CIL stack-machine interpreter.

"The virtual execution system enforces the common type system by
loading and running programs written for the CLI" (paper §1, item 3).
Our VES runs verified method bodies as simulation coroutines:

* first call to a method goes through the :class:`JitCompiler` and
  pays the compile delay (the paper's warm-up effect);
* interpretation charges ``instruction_cost`` per instruction,
  batched into ``engine.sleep`` delays every ``dispatch_quantum``
  instructions so the event queue is not flooded (each sleep is one
  direct-resume heap entry, no event object);
* ``call`` recurses into managed methods; ``callintrinsic`` enters the
  class library (managed I/O, sockets, timers) whose implementations
  are simulation coroutines registered with the runtime;
* allocations (``ldstr``, ``newarr``) go through the managed heap and
  can trigger GC pauses;
* managed exceptions (``throw``, divide-by-zero, null dereference, or
  a :class:`ManagedException` raised by an intrinsic) unwind through
  protected regions: the innermost matching handler gets control with
  the stack cleared and the exception pushed; unhandled exceptions
  propagate to the caller's frame, exactly as in ECMA-335 II.19.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.cli.cil import Instruction, Op
from repro.cli.gc import ManagedHeap
from repro.cli.jit import JitCompiler
from repro.cli.metadata import MethodDef
from repro.errors import ExecutionFault, NullReference, StackUnderflow, TypeMismatch
from repro.sim import Counter, Engine

__all__ = [
    "InterpreterParams",
    "Interpreter",
    "ManagedArray",
    "ManagedException",
]


@dataclass(frozen=True)
class InterpreterParams:
    """Execution cost coefficients.

    ``instruction_cost`` of 60 ns reflects the SSCLI's unoptimizing
    JIT/interpretive performance on paper-era hardware;
    ``exception_overhead`` is the cost of building and dispatching one
    managed exception (they are expensive on the CLR).
    """

    instruction_cost: float = 60e-9
    dispatch_quantum: int = 64
    call_overhead: float = 120e-9
    exception_overhead: float = 2e-6
    max_call_depth: int = 512

    def __post_init__(self) -> None:
        if self.instruction_cost < 0 or self.call_overhead < 0:
            raise ExecutionFault("costs must be >= 0")
        if self.exception_overhead < 0:
            raise ExecutionFault("exception_overhead must be >= 0")
        if self.dispatch_quantum < 1:
            raise ExecutionFault("dispatch_quantum must be >= 1")
        if self.max_call_depth < 1:
            raise ExecutionFault("max_call_depth must be >= 1")


class ManagedArray:
    """A length-only managed array (the simulation carries sizes, not
    element values)."""

    __slots__ = ("length", "element_size")

    def __init__(self, length: int, element_size: int = 8) -> None:
        if length < 0:
            raise ExecutionFault(f"negative array length: {length}")
        self.length = length
        self.element_size = element_size

    @property
    def byte_size(self) -> int:
        return self.length * self.element_size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ManagedArray[{self.length}]>"


class ManagedException(ExecutionFault):
    """A catchable managed exception flowing through protected regions.

    Carries a CLR-style type name (``System.DivideByZeroException``,
    ``System.Net.ProtocolViolationException``, ...) and an optional
    payload object for intrinsic ↔ managed-code communication.
    Deriving from :class:`ExecutionFault` keeps *uncaught* managed
    exceptions visible to hosts as ordinary execution faults.
    """

    def __init__(self, type_name: str, message: str = "", payload: Any = None) -> None:
        super().__init__(f"{type_name}: {message}" if message else type_name)
        self.type_name = type_name
        self.message_text = message
        self.payload = payload


def _truncdiv(a, b):
    """C#-style division: truncation toward zero for integers."""
    if isinstance(a, int) and isinstance(b, int):
        q = abs(a) // abs(b)
        return -q if (a < 0) != (b < 0) else q
    return a / b


def _truncrem(a, b):
    """C#-style remainder: sign of the dividend."""
    if isinstance(a, int) and isinstance(b, int):
        r = abs(a) % abs(b)
        return -r if a < 0 else r
    import math

    return math.fmod(a, b)


_I32_MASK = 0xFFFFFFFF
_I64_MASK = 0xFFFFFFFFFFFFFFFF


def _wrap_signed(value: int, mask: int, sign_bit: int) -> int:
    value &= mask
    return value - (mask + 1) if value & sign_bit else value


class Interpreter:
    """Executes verified CIL method bodies on the simulation engine."""

    def __init__(
        self,
        engine: Engine,
        jit: JitCompiler,
        heap: ManagedHeap,
        intrinsics: Dict[str, Callable[..., Any]],
        resolver: Optional[Callable[[str], MethodDef]] = None,
        params: Optional[InterpreterParams] = None,
    ) -> None:
        self.engine = engine
        self.jit = jit
        self.heap = heap
        self.intrinsics = intrinsics
        self.resolver = resolver
        self.params = params or InterpreterParams()
        self.statics: Dict[str, Any] = {}
        self.instructions_executed = Counter("interp.instructions")
        self.calls = Counter("interp.calls")
        self.exceptions_thrown = Counter("interp.exceptions")
        self.exceptions_caught = Counter("interp.caught")

    # -- public entry ----------------------------------------------------------

    def invoke(self, method: MethodDef, args: Sequence[Any] = (), _depth: int = 0):
        """Run ``method`` with ``args``: returns the simulation
        generator to drive (``yield from`` it, or hand it to
        ``engine.run_process``); its result is the method's return
        value (None for void methods).  Uncaught managed exceptions
        propagate as :class:`ManagedException`.

        This is a plain dispatcher, not a generator function, so each
        warm call costs one generator frame regardless of tier —
        nested ``yield from`` chains stay within Python's recursion
        limit at ``max_call_depth``.
        """
        if _depth > self.params.max_call_depth:
            raise ExecutionFault(
                f"call depth exceeded ({self.params.max_call_depth}) "
                f"invoking {method.full_name}"
            )
        if len(args) != method.param_count:
            raise ExecutionFault(
                f"{method.full_name} expects {method.param_count} args, "
                f"got {len(args)}"
            )
        if method.max_stack is None:
            raise ExecutionFault(
                f"{method.full_name} was not verified before execution"
            )
        jit = self.jit
        if method.token not in jit._compiled:
            return self._first_call(method, args, _depth)
        self.calls.add()
        if jit.native_enabled:
            native = jit.native_for(method, self.params)
            if native is not None:
                # Template-compiled tier: same simulated-time semantics,
                # executed as generated Python instead of opcode dispatch.
                return native(self, args, _depth)
        return self._interpret(method, args, _depth)

    def _first_call(self, method: MethodDef, args: Sequence[Any], _depth: int):
        """Cold path: charge the simulated compile delay, then run."""
        yield from self.jit.ensure_compiled(method)
        self.calls.add()
        jit = self.jit
        if jit.native_enabled:
            native = jit.native_for(method, self.params)
            if native is not None:
                return (yield from native(self, args, _depth))
        return (yield from self._interpret(method, args, _depth))

    def _interpret(self, method: MethodDef, args: Sequence[Any], _depth: int):
        """The opcode-dispatch tier (also the fallback for methods the
        template compiler declines)."""
        p = self.params
        body = method.body
        arguments: List[Any] = list(args)
        locals_: List[Any] = [0] * method.local_count
        stack: List[Any] = []
        pc = 0
        since_yield = 0
        executed = 0

        def pop():
            try:
                return stack.pop()
            except IndexError:
                raise StackUnderflow(f"{method.full_name}@{pc}") from None

        while True:
            ins = body[pc]
            op = ins.op
            executed += 1
            since_yield += 1
            if since_yield >= p.dispatch_quantum:
                yield self.engine.sleep(p.instruction_cost * since_yield)
                since_yield = 0
            next_pc = pc + 1

            try:
                if op is Op.NOP:
                    pass
                elif op is Op.LDC:
                    stack.append(ins.operand)
                elif op is Op.LDSTR:
                    s = ins.operand
                    # Flush accrued time, then charge the allocation.
                    if since_yield:
                        yield self.engine.sleep(p.instruction_cost * since_yield)
                        since_yield = 0
                    yield from self.heap.allocate(2 * len(s))  # UTF-16
                    stack.append(s)
                elif op is Op.LDLOC:
                    stack.append(locals_[ins.operand])
                elif op is Op.STLOC:
                    locals_[ins.operand] = pop()
                elif op is Op.LDARG:
                    stack.append(arguments[ins.operand])
                elif op is Op.STARG:
                    arguments[ins.operand] = pop()
                elif op is Op.LDSFLD:
                    stack.append(self.statics.get(ins.operand, 0))
                elif op is Op.STSFLD:
                    self.statics[ins.operand] = pop()
                elif op is Op.DUP:
                    v = pop()
                    stack.append(v)
                    stack.append(v)
                elif op is Op.POP:
                    pop()
                elif op in (Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.REM,
                            Op.AND, Op.OR, Op.XOR, Op.SHL, Op.SHR):
                    b = pop()
                    a = pop()
                    try:
                        if op is Op.ADD:
                            stack.append(a + b)
                        elif op is Op.SUB:
                            stack.append(a - b)
                        elif op is Op.MUL:
                            stack.append(a * b)
                        elif op is Op.DIV:
                            if b == 0 and isinstance(b, int):
                                raise ManagedException(
                                    "System.DivideByZeroException",
                                    f"{method.full_name}@{pc}",
                                )
                            stack.append(_truncdiv(a, b))
                        elif op is Op.REM:
                            if b == 0 and isinstance(b, int):
                                raise ManagedException(
                                    "System.DivideByZeroException",
                                    f"{method.full_name}@{pc}",
                                )
                            stack.append(_truncrem(a, b))
                        elif op is Op.AND:
                            stack.append(a & b)
                        elif op is Op.OR:
                            stack.append(a | b)
                        elif op is Op.XOR:
                            stack.append(a ^ b)
                        elif op is Op.SHL:
                            stack.append(a << b)
                        else:
                            stack.append(a >> b)
                    except TypeError:
                        raise TypeMismatch(
                            f"{method.full_name}@{pc}: {op.value} on "
                            f"{type(a).__name__}, {type(b).__name__}"
                        ) from None
                elif op is Op.NEG:
                    stack.append(-pop())
                elif op is Op.NOT:
                    v = pop()
                    if not isinstance(v, int):
                        raise TypeMismatch(
                            f"{method.full_name}@{pc}: not on {type(v).__name__}"
                        )
                    stack.append(~v)
                elif op is Op.CEQ:
                    b = pop()
                    a = pop()
                    stack.append(1 if a == b else 0)
                elif op is Op.CGT:
                    b = pop()
                    a = pop()
                    stack.append(1 if a > b else 0)
                elif op is Op.CLT:
                    b = pop()
                    a = pop()
                    stack.append(1 if a < b else 0)
                elif op is Op.BR:
                    next_pc = ins.operand
                elif op is Op.BRTRUE:
                    if pop():
                        next_pc = ins.operand
                elif op is Op.BRFALSE:
                    if not pop():
                        next_pc = ins.operand
                elif op is Op.RET:
                    if since_yield:
                        yield self.engine.sleep(p.instruction_cost * since_yield)
                    self.instructions_executed.add(executed)
                    return pop() if method.returns else None
                elif op is Op.THROW:
                    value = pop()
                    self.exceptions_thrown.add()
                    if since_yield:
                        yield self.engine.sleep(p.instruction_cost * since_yield)
                        since_yield = 0
                    yield self.engine.sleep(p.exception_overhead)
                    if isinstance(value, ManagedException):
                        raise value
                    raise ManagedException("System.Exception", str(value), payload=value)
                elif op is Op.CALL:
                    callee = self._resolve_call(ins.operand, method, pc)
                    call_args = [pop() for _ in range(callee.param_count)][::-1]
                    if since_yield:
                        yield self.engine.sleep(p.instruction_cost * since_yield)
                        since_yield = 0
                    yield self.engine.sleep(p.call_overhead)
                    result = yield from self.invoke(callee, call_args, _depth + 1)
                    if callee.returns:
                        stack.append(result)
                elif op is Op.CALLINTRINSIC:
                    name, argc, returns = ins.operand
                    fn = self.intrinsics.get(name)
                    if fn is None:
                        raise ExecutionFault(
                            f"{method.full_name}@{pc}: unknown intrinsic {name!r}"
                        )
                    call_args = [pop() for _ in range(argc)][::-1]
                    if since_yield:
                        yield self.engine.sleep(p.instruction_cost * since_yield)
                        since_yield = 0
                    yield self.engine.sleep(p.call_overhead)
                    result = fn(*call_args)
                    if hasattr(result, "send") and hasattr(result, "throw"):
                        result = yield from result
                    if returns:
                        stack.append(result)
                elif op is Op.NEWARR:
                    length = pop()
                    if not isinstance(length, int):
                        raise TypeMismatch(
                            f"{method.full_name}@{pc}: newarr length is "
                            f"{type(length).__name__}"
                        )
                    elem = ins.operand if isinstance(ins.operand, int) else 8
                    arr = ManagedArray(length, elem)
                    if since_yield:
                        yield self.engine.sleep(p.instruction_cost * since_yield)
                        since_yield = 0
                    yield from self.heap.allocate(arr.byte_size)
                    stack.append(arr)
                elif op is Op.LDLEN:
                    arr = pop()
                    if arr is None:
                        raise ManagedException(
                            "System.NullReferenceException",
                            f"{method.full_name}@{pc}: ldlen on null",
                        )
                    if not isinstance(arr, ManagedArray):
                        raise TypeMismatch(
                            f"{method.full_name}@{pc}: ldlen on {type(arr).__name__}"
                        )
                    stack.append(arr.length)
                elif op is Op.CONV:
                    v = pop()
                    kind = ins.operand
                    if kind in ("i4", "int32"):
                        stack.append(_wrap_signed(int(v), _I32_MASK, 0x80000000))
                    elif kind in ("i8", "int64"):
                        stack.append(_wrap_signed(int(v), _I64_MASK, 1 << 63))
                    elif kind in ("r8", "float64"):
                        stack.append(float(v))
                    else:
                        raise ExecutionFault(
                            f"{method.full_name}@{pc}: unknown conversion {kind!r}"
                        )
                else:  # pragma: no cover - exhaustive over opcode set
                    raise ExecutionFault(f"unimplemented opcode {op!r}")
            except ManagedException as exc:
                handler = method.handler_for(pc, exc.type_name)
                if handler is None:
                    # Unwind to the caller; account for work done here.
                    if since_yield:
                        yield self.engine.sleep(p.instruction_cost * since_yield)
                    self.instructions_executed.add(executed)
                    raise
                # Transfer: clear the evaluation stack, push the
                # exception, continue at the handler.
                self.exceptions_caught.add()
                if since_yield:
                    yield self.engine.sleep(p.instruction_cost * since_yield)
                    since_yield = 0
                yield self.engine.sleep(p.exception_overhead)
                stack.clear()
                stack.append(exc)
                next_pc = handler.handler_start

            pc = next_pc

    # -- helpers --------------------------------------------------------------

    def _resolve_call(self, operand, method: MethodDef, pc: int) -> MethodDef:
        if isinstance(operand, MethodDef):
            return operand
        name = operand[0]
        if self.resolver is None:
            raise ExecutionFault(
                f"{method.full_name}@{pc}: no resolver for call to {name!r}"
            )
        callee = self.resolver(name)
        expected_argc, expected_returns = operand[1], operand[2]
        if callee.param_count != expected_argc or callee.returns != expected_returns:
            raise ExecutionFault(
                f"{method.full_name}@{pc}: signature mismatch calling {name!r}"
            )
        return callee
