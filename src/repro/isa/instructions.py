"""Instruction definitions for the mini RISC ISA.

The ISA is register-register (load/store) with 64 general-purpose
registers.  Register ``r0`` is hardwired to zero, as in MIPS.  Memory is
word-granular (4-byte words, addresses must be 4-aligned); the slipstream
machinery only ever reasons about whole storage locations, so byte
sub-addressing would add complexity without exercising any additional
code path.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from typing import Optional, Tuple

REG_COUNT = 64
ZERO_REG = 0

#: Word size in bytes; PCs advance by this much per instruction.
WORD = 4


class InstrClass(enum.Enum):
    """Coarse functional class, used by the timing model and detectors."""

    ALU = "alu"
    MUL = "mul"
    DIV = "div"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    JUMP = "jump"
    JUMP_INDIRECT = "jump_indirect"
    HALT = "halt"
    OUT = "out"
    NOP = "nop"


class Opcode(enum.Enum):
    """Every opcode in the ISA.

    The value tuple is ``(mnemonic, instruction class)``.
    """

    # Register-register ALU.
    ADD = ("add", InstrClass.ALU)
    SUB = ("sub", InstrClass.ALU)
    MUL = ("mul", InstrClass.MUL)
    DIV = ("div", InstrClass.DIV)
    REM = ("rem", InstrClass.DIV)
    AND = ("and", InstrClass.ALU)
    OR = ("or", InstrClass.ALU)
    XOR = ("xor", InstrClass.ALU)
    NOR = ("nor", InstrClass.ALU)
    SLL = ("sll", InstrClass.ALU)
    SRL = ("srl", InstrClass.ALU)
    SRA = ("sra", InstrClass.ALU)
    SLT = ("slt", InstrClass.ALU)
    SLTU = ("sltu", InstrClass.ALU)

    # Register-immediate ALU.
    ADDI = ("addi", InstrClass.ALU)
    ANDI = ("andi", InstrClass.ALU)
    ORI = ("ori", InstrClass.ALU)
    XORI = ("xori", InstrClass.ALU)
    SLLI = ("slli", InstrClass.ALU)
    SRLI = ("srli", InstrClass.ALU)
    SRAI = ("srai", InstrClass.ALU)
    SLTI = ("slti", InstrClass.ALU)
    LUI = ("lui", InstrClass.ALU)

    # Memory.
    LW = ("lw", InstrClass.LOAD)
    SW = ("sw", InstrClass.STORE)

    # Control transfer.
    BEQ = ("beq", InstrClass.BRANCH)
    BNE = ("bne", InstrClass.BRANCH)
    BLT = ("blt", InstrClass.BRANCH)
    BGE = ("bge", InstrClass.BRANCH)
    BLTU = ("bltu", InstrClass.BRANCH)
    BGEU = ("bgeu", InstrClass.BRANCH)
    J = ("j", InstrClass.JUMP)
    JAL = ("jal", InstrClass.JUMP)
    JALR = ("jalr", InstrClass.JUMP_INDIRECT)

    # Miscellaneous.
    NOP = ("nop", InstrClass.NOP)
    HALT = ("halt", InstrClass.HALT)
    OUT = ("out", InstrClass.OUT)

    @property
    def mnemonic(self) -> str:
        return self.value[0]

    @property
    def klass(self) -> InstrClass:
        return self.value[1]


#: Opcodes looked up by mnemonic, for the assembler.
MNEMONICS = {op.mnemonic: op for op in Opcode}

#: Register-register ALU opcodes (rd, rs1, rs2).
RRR_OPS = frozenset(
    {
        Opcode.ADD,
        Opcode.SUB,
        Opcode.MUL,
        Opcode.DIV,
        Opcode.REM,
        Opcode.AND,
        Opcode.OR,
        Opcode.XOR,
        Opcode.NOR,
        Opcode.SLL,
        Opcode.SRL,
        Opcode.SRA,
        Opcode.SLT,
        Opcode.SLTU,
    }
)

#: Register-immediate ALU opcodes (rd, rs1, imm).
RRI_OPS = frozenset(
    {
        Opcode.ADDI,
        Opcode.ANDI,
        Opcode.ORI,
        Opcode.XORI,
        Opcode.SLLI,
        Opcode.SRLI,
        Opcode.SRAI,
        Opcode.SLTI,
    }
)

#: Conditional branch opcodes (rs1, rs2, target).
BRANCH_OPS = frozenset(
    {Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE, Opcode.BLTU, Opcode.BGEU}
)


@dataclass(frozen=True)
class Instruction:
    """A single static instruction.

    Fields not meaningful for an opcode are left at their defaults.  The
    ``target`` of control transfers is an absolute byte PC (labels are
    resolved by the assembler).

    Derived classification (``klass``, ``is_branch``, ``is_control``,
    ``is_load``, ``is_store``, ``ends_trace``) and the register-usage
    tuples are precomputed once at construction and stored as plain
    attributes: static instructions are few, dynamic accesses are
    millions, and the property/frozenset-membership chains they replace
    dominated the simulator's hot-path profile.  The cached attributes
    do not participate in equality, hashing or ``repr``.
    """

    opcode: Opcode
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0
    target: int = 0

    # Cached classification, set in __post_init__ (not dataclass fields).
    klass: InstrClass = dataclasses.field(init=False, repr=False, compare=False)
    is_branch: bool = dataclasses.field(init=False, repr=False, compare=False)
    is_control: bool = dataclasses.field(init=False, repr=False, compare=False)
    is_load: bool = dataclasses.field(init=False, repr=False, compare=False)
    is_store: bool = dataclasses.field(init=False, repr=False, compare=False)
    #: Ends a trace under the selection policy (``jalr`` and ``halt``).
    ends_trace: bool = dataclasses.field(init=False, repr=False, compare=False)
    srcs: Tuple[int, ...] = dataclasses.field(init=False, repr=False, compare=False)
    dest: Optional[int] = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("rd", "rs1", "rs2"):
            reg = getattr(self, name)
            if not 0 <= reg < REG_COUNT:
                raise ValueError(f"{name}={reg} out of range 0..{REG_COUNT - 1}")
        setattr_ = object.__setattr__
        op = self.opcode
        klass = op.value[1]
        setattr_(self, "klass", klass)
        setattr_(self, "is_branch", op in BRANCH_OPS)
        setattr_(
            self,
            "is_control",
            klass in (InstrClass.BRANCH, InstrClass.JUMP, InstrClass.JUMP_INDIRECT),
        )
        setattr_(self, "is_load", klass is InstrClass.LOAD)
        setattr_(self, "is_store", klass is InstrClass.STORE)
        setattr_(
            self,
            "ends_trace",
            klass is InstrClass.JUMP_INDIRECT or klass is InstrClass.HALT,
        )
        setattr_(self, "srcs", self._compute_srcs())
        setattr_(self, "dest", self._compute_dest())

    def _compute_dest(self) -> Optional[int]:
        op = self.opcode
        if op in RRR_OPS or op in RRI_OPS or op in (Opcode.LUI, Opcode.LW):
            return self.rd if self.rd != ZERO_REG else None
        if op in (Opcode.JAL, Opcode.JALR):
            return self.rd if self.rd != ZERO_REG else None
        return None

    def _compute_srcs(self) -> Tuple[int, ...]:
        op = self.opcode
        if op in RRR_OPS:
            return (self.rs1, self.rs2)
        if op in RRI_OPS:
            return (self.rs1,)
        if op is Opcode.LUI:
            return ()
        if op is Opcode.LW:
            return (self.rs1,)
        if op is Opcode.SW:
            return (self.rs1, self.rs2)
        if op in BRANCH_OPS:
            return (self.rs1, self.rs2)
        if op is Opcode.JALR:
            return (self.rs1,)
        if op is Opcode.OUT:
            return (self.rs1,)
        return ()

    def dest_reg(self) -> Optional[int]:
        """The destination register, or None if the instruction writes none.

        Writes to ``r0`` are architecturally discarded and reported as None.
        """
        return self.dest

    def src_regs(self) -> Tuple[int, ...]:
        """Source registers read by this instruction (r0 included)."""
        return self.srcs

    def format(self) -> str:
        """Render back to assembly text."""
        op = self.opcode
        m = op.mnemonic
        if op in RRR_OPS:
            return f"{m} r{self.rd}, r{self.rs1}, r{self.rs2}"
        if op in RRI_OPS:
            return f"{m} r{self.rd}, r{self.rs1}, {self.imm}"
        if op is Opcode.LUI:
            return f"{m} r{self.rd}, {self.imm}"
        if op is Opcode.LW:
            return f"{m} r{self.rd}, {self.imm}(r{self.rs1})"
        if op is Opcode.SW:
            return f"{m} r{self.rs2}, {self.imm}(r{self.rs1})"
        if op in BRANCH_OPS:
            return f"{m} r{self.rs1}, r{self.rs2}, {self.target:#x}"
        if op is Opcode.J:
            return f"{m} {self.target:#x}"
        if op is Opcode.JAL:
            return f"{m} r{self.rd}, {self.target:#x}"
        if op is Opcode.JALR:
            return f"{m} r{self.rd}, r{self.rs1}"
        if op is Opcode.OUT:
            return f"{m} r{self.rs1}"
        return m

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.format()
