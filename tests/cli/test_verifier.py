"""Regression tests: every VerificationError names the failing pc and
opcode."""

import pytest

from repro.cli.cil import Instruction, Op
from repro.cli.metadata import MethodDef
from repro.cli.verifier import verify_method
from repro.errors import VerificationError


def raw(name, body, **kw):
    return MethodDef(name, [Instruction(op, operand)
                            for op, operand in body], **kw)


def test_underflow_names_pc_and_opcode():
    m = raw("U", [(Op.POP, None), (Op.RET, None)])
    with pytest.raises(VerificationError, match=r"U@0: pop pops 1"):
        verify_method(m)


def test_branch_out_of_range_names_source_pc_and_opcode():
    m = raw("B", [(Op.BR, 99), (Op.RET, None)])
    with pytest.raises(
        VerificationError, match=r"B@0: br: branch target 99 out of range"
    ):
        verify_method(m)


def test_unresolved_label_names_pc_and_opcode():
    m = raw("L", [(Op.LDC, 1), (Op.BRTRUE, "nowhere"), (Op.RET, None)])
    with pytest.raises(
        VerificationError,
        match=r"L@1: brtrue: unresolved branch label 'nowhere'",
    ):
        verify_method(m)


def test_local_index_error_names_pc_and_opcode():
    m = raw("Loc", [(Op.LDLOC, 3), (Op.POP, None), (Op.RET, None)],
            local_count=1)
    with pytest.raises(
        VerificationError, match=r"Loc@0: ldloc: local index 3"
    ):
        verify_method(m)


def test_argument_index_error_names_pc_and_opcode():
    m = raw("Arg", [(Op.LDARG, 2), (Op.POP, None), (Op.RET, None)],
            param_names=["only"])
    with pytest.raises(
        VerificationError, match=r"Arg@0: ldarg: argument index 2"
    ):
        verify_method(m)


def test_falls_off_end_names_pc_and_opcode():
    m = raw("F", [(Op.LDC, 1), (Op.POP, None)])
    with pytest.raises(
        VerificationError,
        match=r"F@1: pop: execution falls off the end",
    ):
        verify_method(m)


def test_inconsistent_depth_names_source_pc_and_opcode():
    # 0: ldc; 1: brtrue 3 (depth 0 at 3); 2: ldc (depth 1 at 3) — clash.
    m = raw("D", [
        (Op.LDC, 1), (Op.BRTRUE, 3), (Op.LDC, 5), (Op.RET, None),
    ], returns=True)
    with pytest.raises(
        VerificationError,
        match=r"D@\d+: (brtrue|ldc): inconsistent stack depth at 3",
    ):
        verify_method(m)


def test_malformed_call_operand_names_pc_and_opcode():
    m = raw("C", [(Op.CALL, "garbage"), (Op.RET, None)])
    with pytest.raises(
        VerificationError,
        match=r"C@0: call: malformed call operand: 'garbage'",
    ):
        verify_method(m)


def test_malformed_intrinsic_operand_names_pc_and_opcode():
    m = raw("I", [(Op.CALLINTRINSIC, ("x",)), (Op.RET, None)])
    with pytest.raises(
        VerificationError,
        match=r"I@0: callintrinsic: malformed intrinsic operand",
    ):
        verify_method(m)


def test_ret_depth_error_keeps_pc():
    m = raw("R", [(Op.RET, None)], returns=True)
    with pytest.raises(
        VerificationError, match=r"R@0: ret with stack depth 0"
    ):
        verify_method(m)
