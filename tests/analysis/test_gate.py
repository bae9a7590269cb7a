"""The JIT eligibility gate.

Contract: ``native_eligible`` scans every instruction of a verified
body, dead code included, and ``JitCompiler.native_for`` returns no
closure for a rejected method — which then runs, with the same result,
on the interpreter tier.
"""

from repro.cli import CliRuntime
from repro.cli.cil import Instruction, Op
from repro.cli.jitcompile import native_eligible
from repro.cli.metadata import MethodDef
from repro.cli.verifier import verify_method
from repro.sim import Engine


def dead_junk_method():
    """Unknown conv kind, malformed call and non-str ldstr — all
    unreachable behind an unconditional branch."""
    m = MethodDef("DeadJunk", [
        Instruction(Op.LDC, 7),            # 0
        Instruction(Op.BR, 6),             # 1 -> ret
        Instruction(Op.CONV, "i2"),        # 2 unreachable
        Instruction(Op.CALL, "garbage"),   # 3 unreachable
        Instruction(Op.LDSTR, 123),        # 4 unreachable
        Instruction(Op.POP),               # 5 unreachable
        Instruction(Op.RET),               # 6
    ], returns=True)
    verify_method(m)
    return m


def assert_rejected(m):
    """Both the eligibility check and the runtime's compile path
    decline ``m``."""
    assert not native_eligible(m)
    rt = CliRuntime(Engine())
    assert rt.jit.native_for(m, rt.interpreter.params) is None


def test_reachable_junk_rejected_by_both_gates():
    m = MethodDef("LiveJunk", [
        Instruction(Op.LDC, 1),
        Instruction(Op.CONV, "i2"),  # reachable unknown conv kind
        Instruction(Op.RET),
    ], returns=True)
    verify_method(m)
    assert_rejected(m)


def test_unverified_method_rejected_by_both_gates():
    m = MethodDef("NoVerify", [Instruction(Op.RET)])
    assert m.max_stack is None
    assert_rejected(m)


def test_dead_code_compiles_and_matches_interpreter():
    """Dead code the gate accepts is skipped by the template compiler;
    junk dead code keeps the method on the interpreter tier.  Both
    return what the pure interpreter returns."""
    junk = dead_junk_method()
    assert_rejected(junk)
    clean = MethodDef("DeadClean", [
        Instruction(Op.LDC, 7),            # 0
        Instruction(Op.BR, 4),             # 1 -> ret
        Instruction(Op.LDC, 1),            # 2 unreachable
        Instruction(Op.POP),               # 3 unreachable
        Instruction(Op.RET),               # 4
    ], returns=True)
    verify_method(clean)
    assert native_eligible(clean)

    for m in (junk, clean):
        rt_native = CliRuntime(Engine())
        native_result = rt_native.engine.run_process(rt_native.invoke(m))

        rt_interp = CliRuntime(Engine())
        rt_interp.jit.native_enabled = False
        interp_result = rt_interp.engine.run_process(rt_interp.invoke(m))

        assert native_result == interp_result == 7, m.name
    assert rt_native.jit.native_for(clean, rt_native.interpreter.params) is not None
