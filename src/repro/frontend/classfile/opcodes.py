"""JVM opcode tables and bytecode decoding.

The decoder turns a ``Code`` attribute's byte array into a list of
:class:`BytecodeOp` with absolute branch targets resolved.  It is
written from the JVM specification's instruction-set chapter (the
``/root/related`` Krakatau exemplar was absent, so nothing here is
derived from another implementation).

The table covers the complete standard opcode range (``nop`` …
``jsr_w``): *decoding* must be total over real class files because one
unknown opcode makes every later instruction boundary unknowable.
Semantic *modelling* (in :mod:`repro.frontend.classfile.lowering`)
covers only the aliasing-relevant subset; everything else degrades to
havoc, which requires knowing each opcode's stack effect — recorded
here as entry-level pop/push counts (category-2 values are one entry).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.frontend.classfile.errors import (
    MalformedClassfile,
    UnsupportedBytecode,
)

# ---------------------------------------------------------------------------
# opcode → (mnemonic, operand format)

_DEF = [
    (0x00, "nop", ""), (0x01, "aconst_null", ""),
    (0x02, "iconst_m1", ""), (0x03, "iconst_0", ""), (0x04, "iconst_1", ""),
    (0x05, "iconst_2", ""), (0x06, "iconst_3", ""), (0x07, "iconst_4", ""),
    (0x08, "iconst_5", ""),
    (0x09, "lconst_0", ""), (0x0A, "lconst_1", ""),
    (0x0B, "fconst_0", ""), (0x0C, "fconst_1", ""), (0x0D, "fconst_2", ""),
    (0x0E, "dconst_0", ""), (0x0F, "dconst_1", ""),
    (0x10, "bipush", "s1"), (0x11, "sipush", "s2"),
    (0x12, "ldc", "cp1"), (0x13, "ldc_w", "cp2"), (0x14, "ldc2_w", "cp2"),
    (0x15, "iload", "local"), (0x16, "lload", "local"),
    (0x17, "fload", "local"), (0x18, "dload", "local"),
    (0x19, "aload", "local"),
    (0x2E, "iaload", ""), (0x2F, "laload", ""), (0x30, "faload", ""),
    (0x31, "daload", ""), (0x32, "aaload", ""), (0x33, "baload", ""),
    (0x34, "caload", ""), (0x35, "saload", ""),
    (0x36, "istore", "local"), (0x37, "lstore", "local"),
    (0x38, "fstore", "local"), (0x39, "dstore", "local"),
    (0x3A, "astore", "local"),
    (0x4F, "iastore", ""), (0x50, "lastore", ""), (0x51, "fastore", ""),
    (0x52, "dastore", ""), (0x53, "aastore", ""), (0x54, "bastore", ""),
    (0x55, "castore", ""), (0x56, "sastore", ""),
    (0x57, "pop", ""), (0x58, "pop2", ""),
    (0x59, "dup", ""), (0x5A, "dup_x1", ""), (0x5B, "dup_x2", ""),
    (0x5C, "dup2", ""), (0x5D, "dup2_x1", ""), (0x5E, "dup2_x2", ""),
    (0x5F, "swap", ""),
    (0x84, "iinc", "iinc"),
    (0x94, "lcmp", ""), (0x95, "fcmpl", ""), (0x96, "fcmpg", ""),
    (0x97, "dcmpl", ""), (0x98, "dcmpg", ""),
    (0x99, "ifeq", "branch2"), (0x9A, "ifne", "branch2"),
    (0x9B, "iflt", "branch2"), (0x9C, "ifge", "branch2"),
    (0x9D, "ifgt", "branch2"), (0x9E, "ifle", "branch2"),
    (0x9F, "if_icmpeq", "branch2"), (0xA0, "if_icmpne", "branch2"),
    (0xA1, "if_icmplt", "branch2"), (0xA2, "if_icmpge", "branch2"),
    (0xA3, "if_icmpgt", "branch2"), (0xA4, "if_icmple", "branch2"),
    (0xA5, "if_acmpeq", "branch2"), (0xA6, "if_acmpne", "branch2"),
    (0xA7, "goto", "branch2"), (0xA8, "jsr", "branch2"),
    (0xA9, "ret", "local"),
    (0xAA, "tableswitch", "tableswitch"),
    (0xAB, "lookupswitch", "lookupswitch"),
    (0xAC, "ireturn", ""), (0xAD, "lreturn", ""), (0xAE, "freturn", ""),
    (0xAF, "dreturn", ""), (0xB0, "areturn", ""), (0xB1, "return", ""),
    (0xB2, "getstatic", "cp2"), (0xB3, "putstatic", "cp2"),
    (0xB4, "getfield", "cp2"), (0xB5, "putfield", "cp2"),
    (0xB6, "invokevirtual", "cp2"), (0xB7, "invokespecial", "cp2"),
    (0xB8, "invokestatic", "cp2"),
    (0xB9, "invokeinterface", "invokeinterface"),
    (0xBA, "invokedynamic", "invokedynamic"),
    (0xBB, "new", "cp2"), (0xBC, "newarray", "newarray"),
    (0xBD, "anewarray", "cp2"), (0xBE, "arraylength", ""),
    (0xBF, "athrow", ""),
    (0xC0, "checkcast", "cp2"), (0xC1, "instanceof", "cp2"),
    (0xC2, "monitorenter", ""), (0xC3, "monitorexit", ""),
    (0xC4, "wide", "wide"),
    (0xC5, "multianewarray", "multianewarray"),
    (0xC6, "ifnull", "branch2"), (0xC7, "ifnonnull", "branch2"),
    (0xC8, "goto_w", "branch4"), (0xC9, "jsr_w", "branch4"),
]
# the <op>_<n> shorthand families
for _base, _name in ((0x1A, "iload"), (0x1E, "lload"), (0x22, "fload"),
                     (0x26, "dload"), (0x2A, "aload"), (0x3B, "istore"),
                     (0x3F, "lstore"), (0x43, "fstore"), (0x47, "dstore"),
                     (0x4B, "astore")):
    for _n in range(4):
        _DEF.append((_base + _n, f"{_name}_{_n}", ""))
# arithmetic / conversion blocks are contiguous and operand-free
for _op, _name in enumerate(
    ("iadd ladd fadd dadd isub lsub fsub dsub imul lmul fmul dmul "
     "idiv ldiv fdiv ddiv irem lrem frem drem ineg lneg fneg dneg "
     "ishl lshl ishr lshr iushr lushr iand land ior lor ixor lxor").split(),
    start=0x60,
):
    _DEF.append((_op, _name, ""))
for _op, _name in enumerate(
    "i2l i2f i2d l2i l2f l2d f2i f2l f2d d2i d2l d2f i2b i2c i2s".split(),
    start=0x85,
):
    _DEF.append((_op, _name, ""))

#: opcode byte → (mnemonic, operand format)
OPCODES: Dict[int, Tuple[str, str]] = {op: (name, fmt) for op, name, fmt in _DEF}
MNEMONIC: Dict[str, int] = {name: op for op, name, fmt in _DEF}
del _DEF

# ---------------------------------------------------------------------------
# generic stack effects (operand-stack *entries*: a long/double is ONE
# entry tagged wide — see lowering).  Only opcodes the lowering does not
# model semantically consult this table; (pops, pushes, wide_result).

_WIDE_RESULT = frozenset(
    "lconst_0 lconst_1 dconst_0 dconst_1 ldc2_w lload dload "
    "lload_0 lload_1 lload_2 lload_3 dload_0 dload_1 dload_2 dload_3 "
    "laload daload ladd dadd lsub dsub lmul dmul ldiv ddiv lrem drem "
    "lneg dneg lshl lshr lushr land lor lxor "
    "i2l i2d l2d f2l f2d d2l".split()
)


def generic_stack_effect(mnemonic: str) -> Tuple[int, int, bool]:
    """``(pops, pushes, wide_result)`` for an unmodelled opcode.

    Pops/pushes are in stack *entries*; ``wide_result`` marks a
    category-2 (long/double) push so ``pop2``/``dup2`` stay aligned.
    """
    wide = mnemonic in _WIDE_RESULT
    if mnemonic in ("nop", "iinc", "ret", "goto", "goto_w", "return",
                    "wide.iinc", "wide.ret"):
        return 0, 0, False
    if mnemonic.startswith(("iconst", "lconst", "fconst", "dconst")) or \
            mnemonic in ("bipush", "sipush", "ldc", "ldc_w", "ldc2_w", "jsr",
                         "jsr_w"):
        return 0, 1, wide
    root = mnemonic.removeprefix("wide.")
    if root[1:5] == "load" and root[0] in "ilfd":
        return 0, 1, wide or root[0] in "ld"
    if root[1:6] == "store" and root[0] in "ilfd":
        return 1, 0, False
    if mnemonic in ("iaload", "laload", "faload", "daload", "aaload",
                    "baload", "caload", "saload"):
        return 2, 1, wide
    if mnemonic in ("iastore", "lastore", "fastore", "dastore", "aastore",
                    "bastore", "castore", "sastore"):
        return 3, 0, False
    if mnemonic in ("ineg", "lneg", "fneg", "dneg", "i2l", "i2f", "i2d",
                    "l2i", "l2f", "l2d", "f2i", "f2l", "f2d", "d2i", "d2l",
                    "d2f", "i2b", "i2c", "i2s", "arraylength", "instanceof",
                    "newarray", "anewarray"):
        return 1, 1, wide
    if mnemonic in ("lcmp", "fcmpl", "fcmpg", "dcmpl", "dcmpg"):
        return 2, 1, False
    if mnemonic in ("ifeq", "ifne", "iflt", "ifge", "ifgt", "ifle",
                    "ifnull", "ifnonnull", "tableswitch", "lookupswitch",
                    "monitorenter", "monitorexit", "athrow", "ireturn",
                    "lreturn", "freturn", "dreturn", "areturn"):
        return 1, 0, False
    if mnemonic.startswith(("if_icmp", "if_acmp")):
        return 2, 0, False
    # binary arithmetic / shifts / bitwise
    return 2, 1, wide


#: mnemonics that unconditionally end a basic block
BLOCK_ENDERS = frozenset(
    "goto goto_w jsr jsr_w ret tableswitch lookupswitch athrow "
    "ireturn lreturn freturn dreturn areturn return wide.ret".split()
)

# ---------------------------------------------------------------------------
# decoding


@dataclass(frozen=True)
class BytecodeOp:
    """One decoded instruction with absolute branch targets."""

    offset: int
    opcode: int
    mnemonic: str
    operands: Tuple
    targets: Tuple[int, ...] = ()


def _need(code: bytes, at: int, n: int, offset: int) -> None:
    if at + n > len(code):
        raise MalformedClassfile(
            f"code truncated mid-instruction at offset {offset}",
            stage="parse",
        )


_WIDE_SUBS = frozenset(
    (MNEMONIC[m] for m in ("iload", "lload", "fload", "dload", "aload",
                           "istore", "lstore", "fstore", "dstore", "astore",
                           "ret", "iinc"))
)


def decode(code: bytes) -> Tuple[BytecodeOp, ...]:
    """Decode a ``Code`` array; raises on truncation or unknown opcodes."""
    ops = []
    at = 0
    n = len(code)
    while at < n:
        offset = at
        opcode = code[at]
        at += 1
        spec = OPCODES.get(opcode)
        if spec is None:
            raise UnsupportedBytecode(
                f"unknown opcode 0x{opcode:02x} at offset {offset}",
                opcode=opcode, offset=offset,
            )
        mnemonic, fmt = spec
        operands: Tuple = ()
        targets: Tuple[int, ...] = ()
        if fmt == "":
            pass
        elif fmt in ("s1", "cp1", "local", "newarray"):
            _need(code, at, 1, offset)
            value = code[at]
            if fmt == "s1" and value >= 0x80:
                value -= 0x100
            operands = (value,)
            at += 1
        elif fmt in ("s2", "cp2"):
            _need(code, at, 2, offset)
            value = struct.unpack_from(">h" if fmt == "s2" else ">H",
                                       code, at)[0]
            operands = (value,)
            at += 2
        elif fmt == "iinc":
            _need(code, at, 2, offset)
            operands = (code[at], struct.unpack_from(">b", code, at + 1)[0])
            at += 2
        elif fmt == "branch2":
            _need(code, at, 2, offset)
            delta = struct.unpack_from(">h", code, at)[0]
            targets = (offset + delta,)
            operands = targets
            at += 2
        elif fmt == "branch4":
            _need(code, at, 4, offset)
            delta = struct.unpack_from(">i", code, at)[0]
            targets = (offset + delta,)
            operands = targets
            at += 4
        elif fmt == "invokeinterface":
            _need(code, at, 4, offset)
            operands = (struct.unpack_from(">H", code, at)[0], code[at + 2])
            at += 4
        elif fmt == "invokedynamic":
            _need(code, at, 4, offset)
            operands = (struct.unpack_from(">H", code, at)[0],)
            at += 4
        elif fmt == "multianewarray":
            _need(code, at, 3, offset)
            operands = (struct.unpack_from(">H", code, at)[0], code[at + 2])
            at += 3
        elif fmt == "tableswitch":
            at += (-at) % 4  # 0-3 alignment pad bytes
            _need(code, at, 12, offset)
            default, low, high = struct.unpack_from(">iii", code, at)
            at += 12
            if high < low or high - low >= n:
                raise MalformedClassfile(
                    f"tableswitch bounds {low}..{high} at offset {offset}",
                    stage="parse",
                )
            count = high - low + 1
            _need(code, at, 4 * count, offset)
            jumps = struct.unpack_from(f">{count}i", code, at)
            at += 4 * count
            targets = tuple(offset + d for d in (default,) + jumps)
            operands = (low, high) + targets
        elif fmt == "lookupswitch":
            at += (-at) % 4
            _need(code, at, 8, offset)
            default, npairs = struct.unpack_from(">ii", code, at)
            at += 8
            if npairs < 0 or npairs >= n:
                raise MalformedClassfile(
                    f"lookupswitch npairs {npairs} at offset {offset}",
                    stage="parse",
                )
            _need(code, at, 8 * npairs, offset)
            pairs = struct.unpack_from(f">{2 * npairs}i", code, at)
            at += 8 * npairs
            targets = (offset + default,) + tuple(
                offset + pairs[2 * i + 1] for i in range(npairs))
            operands = targets
        elif fmt == "wide":
            _need(code, at, 1, offset)
            sub = code[at]
            at += 1
            if sub not in _WIDE_SUBS:
                raise UnsupportedBytecode(
                    f"wide prefix on opcode 0x{sub:02x} at offset {offset}",
                    opcode=sub, offset=offset,
                )
            sub_name = OPCODES[sub][0]
            mnemonic = f"wide.{sub_name}"
            if sub_name == "iinc":
                _need(code, at, 4, offset)
                operands = struct.unpack_from(">Hh", code, at)
                at += 4
            else:
                _need(code, at, 2, offset)
                operands = (struct.unpack_from(">H", code, at)[0],)
                at += 2
        else:  # pragma: no cover - table and dispatch are in one file
            raise AssertionError(f"unhandled operand format {fmt!r}")
        ops.append(BytecodeOp(offset, opcode, mnemonic, operands, targets))
    valid = {op.offset for op in ops}
    for op in ops:
        for target in op.targets:
            if target not in valid:
                raise MalformedClassfile(
                    f"{op.mnemonic} at offset {op.offset} jumps to "
                    f"{target}, not an instruction boundary",
                    stage="parse",
                )
    return tuple(ops)
