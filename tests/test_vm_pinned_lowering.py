"""Pinned native lowering: the code-free oracle for ``repro.vm.native``.

The differential oracles in ``test_jit_table.py`` call
:func:`lower_instruction` themselves, so they cannot catch a change of
the lowering.  The digests below fix it from outside:

* every :class:`NativeChunk` (bytes, cycles, hole size, branch and call
  flags) :func:`lower_function` returns for the nine corpus programs at
  scale 0.05, unfused (``optimize=False``, what the JIT emits) and fused
  (``optimize=True``, the "optimized x86" baseline of every ratio);
* per opcode, every chunk :func:`lower_instruction` returns over target
  sizes 1, 2 and 4, immediates at the edges of the imm8 and imm32 forms,
  and register triples with ``rd == rs1``, ``rd != rs1``, ``rd == rs2``
  and registers past the 3-bit ModRM fields.

A digest moving means native bytes or cycle costs moved, and with them
``native_size`` and every ratio against it.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import pytest

from repro.isa import OP_TABLE, Instruction, Op
from repro.vm.native import NativeChunk, lower_function, lower_instruction
from repro.workloads import PROFILES, benchmark_program

_IMMS = (0, -128, 127, 128, -(1 << 31), (1 << 31) - 1)
#: (rd, rs1, rs2): rd == rs1, rd != rs1, rd == rs2, wide registers
_REGISTERS = ((3, 3, 7), (3, 5, 7), (3, 5, 3), (31, 30, 29))


def _digest(chunks: Iterable[NativeChunk]) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(repr((chunk.data, chunk.cycles, chunk.hole_size,
                            chunk.is_branch, chunk.is_call)).encode())
    return digest.hexdigest()


def _program_chunks(name: str, optimize: bool):
    for function in benchmark_program(name, 0.05).functions:
        yield from lower_function(function, optimize=optimize).chunks


def _opcode_chunks(op: Op):
    meta = OP_TABLE[op]
    for target_size in (1, 2, 4):
        for imm in _IMMS if meta.uses_imm else (None,):
            for rd, rs1, rs2 in _REGISTERS:
                insn = Instruction(
                    op=op,
                    rd=rd if meta.uses_rd else None,
                    rs1=rs1 if meta.uses_rs1 else None,
                    rs2=rs2 if meta.uses_rs2 else None,
                    imm=imm,
                    target=0 if meta.uses_target else None)
                yield lower_instruction(insn, target_size)


_PROGRAM_DIGESTS = {
    ("word97", False):
        "5839f01bf3e4f60ef4e61a4421054392e54e544fd4c42f1bc16cdaa6fda3f3d3",
    ("word97", True):
        "4247fe501664c4607cf47a1b70fb18e9f21f9380e7833707ab874038e920c6b7",
    ("gcc", False):
        "86a7a2031cd2b0f9072f94105029e8ea3d176866b7cacdeaf7f30cfeb0d3e3a4",
    ("gcc", True):
        "adb17e2f177506b7bf006529b80d9b2443dfd29ec14794278d39be08abce9a70",
    ("vortex", False):
        "91a01f3ba25714f6358f0942d9dc4630a74986604db2960e2db63272f3ac72b4",
    ("vortex", True):
        "9a0401826adf41d1e444fb34a9505cc90ea6126daae10e14fdb06c6c15196a98",
    ("perl", False):
        "aab839cd3dec46b2ec9e3be7877f1c248e791d007b3c53da00c239ac27e4e014",
    ("perl", True):
        "e750cd976d255e977d7818ba85831eda2b2c493cd4ac587ef86011ea08342005",
    ("go", False):
        "779d4447eb7ef7e2178b874b4e484aee525b0d22e44202a1e8505b3ccf766c80",
    ("go", True):
        "145e2a628998784b285c6117e6e67cd7b50ba7144fba840b0b0cd47a9abc77cd",
    ("ijpeg", False):
        "bad1f72c635b8648b411fefe5c78e3d21ef983b7b6895bc6ab8e223cfc75fca2",
    ("ijpeg", True):
        "fcd9a76a5fa3c9820ec749fda533aa47567f50b7239f9f7e956bf9df60e45089",
    ("m88ksim", False):
        "903fa0f8aa3ce66b9c744dd7aee8019c50b66b7bf36d98866a098942fd387dd7",
    ("m88ksim", True):
        "c2f4f8295b456ca8ab172f1ebfcaf9fb54dd5b237bfb91d8cc3f59986c72aa8f",
    ("xlisp", False):
        "f71175613f97e45f083add2982a0e30e57bb0799d06388b6414584c3449938a0",
    ("xlisp", True):
        "73d176800dd2ca8a9e0ef1ee65aee155503ded2ac4b84a4e1c66c55b46315811",
    ("compress", False):
        "92235ef349b8f29de82d94b029419b21d7cda82f3ef5b6f836d0d0adc62522a6",
    ("compress", True):
        "b775effb07a5ba504f0206f1edd85623712ea0af2f5a1983831f6535c0f189c1",
}

_OPCODE_DIGESTS = {
    "add": "3a796c9e11e8fafc27a8d08608e8f92e78c8ed69e5b415ec44da34ae2daac33c",
    "sub": "ecfd14b22f8cd9293be682a25172060be61a12959bc7e6f23db49678c0c24f6a",
    "mul": "545a10cd862c448b59d6490a2000defe32a028223abe0dbebb542c2485a97dac",
    "divs": "3cbe29dcc66d46ba099a9d77576fd07a835dbc58c6cdecb59ecf5f3ceb808e72",
    "rems": "f6fad23f8cebcf4764de25f55ac4d6cdd522cbc9215917669d89868f7e3c0295",
    "and": "83217f48243dd09fa908f2230218c65788aae3306b62fbf4e392118471beb63f",
    "or": "1e1d86d070429a3ce10f1f1c2546a12dc9f5d4b6ba0972f8cd36aa220fb7c92d",
    "xor": "e83843c86dc1ec6711ff9d987e9bf5cdd6d54b639f2a2b4461594de5d9a0aa5b",
    "shl": "e25b3205250466e11d8c2a89252840fb21a739cf2f5db6c7112b92494c2dfe0f",
    "shr": "c816f83bab3cb080bd29eeea2695232a860a35a52d72415c191f928f161bd075",
    "sar": "cec39ef3b8cecc1f0f0efcad13fa402844d226de52b58d1ac0ed33ed0db77b2f",
    "slt": "e8d4ae6ac888924018d26aeb387fef6b811d82ce4c5d880e1d22d9d8417451ad",
    "sltu": "e8d4ae6ac888924018d26aeb387fef6b811d82ce4c5d880e1d22d9d8417451ad",
    "addi": "0d28b74105d8ffab9460cbee18167195496a8adc33b83e33af12bef5a5279218",
    "muli": "f0b40727734b5434a9e6489af10625719b6e0da172079d4d404ef74d62b642ca",
    "andi": "0d28b74105d8ffab9460cbee18167195496a8adc33b83e33af12bef5a5279218",
    "ori": "0d28b74105d8ffab9460cbee18167195496a8adc33b83e33af12bef5a5279218",
    "xori": "0d28b74105d8ffab9460cbee18167195496a8adc33b83e33af12bef5a5279218",
    "shli": "0d28b74105d8ffab9460cbee18167195496a8adc33b83e33af12bef5a5279218",
    "shri": "0d28b74105d8ffab9460cbee18167195496a8adc33b83e33af12bef5a5279218",
    "sari": "0d28b74105d8ffab9460cbee18167195496a8adc33b83e33af12bef5a5279218",
    "slti": "3baa5c2f4711b62b6be2c06ffa864264bb8949c6c7a0d00c750ca6450449baac",
    "mov": "da7f62ad012250658278342e73f63d2efecf0e4d9a4d339ff1b6913be1fcb263",
    "neg": "614d6a5b86c737ae0f6b91ca52099856200399aa18ddc07c5240a92a1907fea7",
    "not": "614d6a5b86c737ae0f6b91ca52099856200399aa18ddc07c5240a92a1907fea7",
    "li": "b2a5b4ce12b601d8fcd91bb067a3aafdea8cd083779659c10c9094a961944a3a",
    "lb": "845adf14789d75a82e50315a771baaaa1b9dcb5da6560b80dfe4ca290b5eb303",
    "lbu": "845adf14789d75a82e50315a771baaaa1b9dcb5da6560b80dfe4ca290b5eb303",
    "lh": "845adf14789d75a82e50315a771baaaa1b9dcb5da6560b80dfe4ca290b5eb303",
    "lhu": "845adf14789d75a82e50315a771baaaa1b9dcb5da6560b80dfe4ca290b5eb303",
    "lw": "845adf14789d75a82e50315a771baaaa1b9dcb5da6560b80dfe4ca290b5eb303",
    "sb": "286363d383e23ce4486acc9807c8b1bbb5b969c9abfed8fc16b36d7bf83b0d9e",
    "sh": "286363d383e23ce4486acc9807c8b1bbb5b969c9abfed8fc16b36d7bf83b0d9e",
    "sw": "286363d383e23ce4486acc9807c8b1bbb5b969c9abfed8fc16b36d7bf83b0d9e",
    "beq": "ac39b2fced54668bc8cfb5fafb36484cc99731834edc4d703b5ca55cca09f917",
    "bne": "b04030c53c5e1a00b67f54d75094d78812770000858da006e545dbd2f6cbe3f2",
    "blt": "6c0a4e1a30906c79c7ba1f358bcb122e76c2676bd365a110998f87510335c8e7",
    "bge": "1c79ae499b0e27874766ae371c626d10412b0c62e066c13a1f9db4e170b532f9",
    "bltu": "40e3199ca0967b62fc00fa6c23f5980ac427967dacb03f01acdd2e1c9f3f4336",
    "bgeu": "c8a52a25667d76d43d09e90aa3566eaae630c69063aa9cb8ccb4c62ab3deb4db",
    "beqz": "c610cf4dec23618ee4be333eb4dbfed168f9e633b7a2f980d3fd0d0e6dad8d95",
    "bnez": "0cd2a5d0457d6f4cdda3123b227f38e5e270d88fe6cf4ffc171607c0f7bf9f89",
    "jmp": "e5de3f9c69ac8a2424e2d1108343753c4e082de252f07eb8bcd8ec0403f96eaf",
    "call": "9fd07a82b6b2a5e792ae827db7fdb4fbe9f6359f86849b25c3c3ee788245f878",
    "callr": "5ef05385e30e3a60990706bfa102e2f52bc1d4ca7b2010039ebca0d381aa4e72",
    "jr": "8c9afdb38594aeeab2aa91deda6700ffbd57a0c5ca3160faf8c9fcb9dc58dc1c",
    "ret": "f99a3f48e94fc88666ca2e3dc2106eff6026ffd3a3d5fba65269a8a4e7de3cd0",
    "nop": "a26ae40a1f43fbebd76a69c6b0652ef498b0e0293f0fe8055ff0163bea748701",
    "halt": "1406213413b6b4ab0dd871d0e9f45de2b1ca71cbbb174bda02bcff56c59d157a",
    "trap": "6a4a15c0105329083a5dc36706311d6142d446d196190c88c0e213d992a0a0d2",
}


@pytest.mark.parametrize("optimize", [False, True], ids=["unfused", "fused"])
@pytest.mark.parametrize("name", [profile.name for profile in PROFILES])
def test_program_lowering(name, optimize):
    assert _digest(_program_chunks(name, optimize)) == \
        _PROGRAM_DIGESTS[name, optimize]


@pytest.mark.parametrize("op", list(Op), ids=lambda op: op.value)
def test_opcode_lowering(op):
    assert _digest(_opcode_chunks(op)) == _OPCODE_DIGESTS[op.value]


@pytest.mark.parametrize("op", [op for op in Op if OP_TABLE[op].is_branch],
                         ids=lambda op: op.value)
@pytest.mark.parametrize("target_size", [None, 0, 3, 8])
def test_branch_without_a_native_displacement_size_is_refused(op, target_size):
    meta = OP_TABLE[op]
    insn = Instruction(op=op, rs1=1 if meta.uses_rs1 else None,
                       rs2=2 if meta.uses_rs2 else None, target=0)
    with pytest.raises(ValueError, match="needs target_size"):
        lower_instruction(insn, target_size)
