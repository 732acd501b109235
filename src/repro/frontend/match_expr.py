"""A small matcher-expression language for selecting patch sites.

The real e9tool selects instructions with expressions like
``--match 'asm=j.*'`` or ``--match 'size >= 5'``; this module provides
the equivalent: a lexer, a recursive-descent parser, and an evaluator
that compiles an expression into an ``Instruction -> bool`` predicate.

Grammar::

    expr       := or
    or         := and ("or" and)*
    and        := not ("and" not)*
    not        := "not" not | primary
    primary    := "(" expr ")" | comparison | regtest | bareword
    comparison := field cmp value
    field      := "mnemonic" | "size" | "addr" | "opcode" | "target" |
                  "mem-width"
    regtest    := ("reads" | "writes" | "kills") register
    register   := rax | rcx | rdx | rbx | rsp | rbp | rsi | rdi | r8..r15
    cmp        := "==" | "!=" | "<" | "<=" | ">" | ">=" | "=~"
    value      := integer (decimal or 0x...) | "string" | /regex/
    bareword   := jumps | heap-writes | calls | all | jcc | jmp | ret |
                  call | mem-write | mem-read | rip-relative |
                  direct-branch | indirect-branch |
                  defines-flags | uses-flags | preserves-flags |
                  mem-stack | mem-global | mem-heap

The second block of primaries queries the semantic-fact engine
(:mod:`repro.analysis.facts`).  Register tests use may-sets, so an
instruction the fact tables cannot classify matches every ``reads``/
``writes`` test (conservative over-approximation); ``preserves-flags``
is the dual — it only matches instructions *known* to leave every
status flag untouched.  ``mem-width`` is the memory operand's access
width in bytes (comparisons are false for instructions without a
classified memory operand).

Examples::

    mnemonic == "call" and size >= 5
    jumps or mnemonic =~ /loop.*/
    mem-write and not rip-relative
    addr >= 0x401000 and addr < 0x402000
    writes rdi and not defines-flags
    mem-stack and mem-width >= 8

Compiled expressions are matched one instruction *shape* at a time
(:meth:`~repro.x86.fastscan.InstructionStream.select`): each node's
:meth:`~Node.verdict` answers ``True``, ``False`` or ``None`` (unknown)
for every instruction sharing a shape key, and ``and``/``or``/``not``
combine the answers in Kleene logic.  Barewords, register tests and
comparisons on ``mnemonic``, ``opcode`` and ``mem-width`` are fixed by
the key; the positional fields ``size``, ``addr`` and ``target`` are
not, so an expression that needs one of them costs a per-instruction
pass over the shapes it cannot decide.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from repro.analysis.facts import facts_for
from repro.errors import ReproError
from repro.x86.flow import is_heap_write, is_memory_write, is_patchable_jump
from repro.x86.insn import REG_NAMES_64, Instruction
from repro.x86.tables import Flow


class MatchExprError(ReproError):
    """Syntax or semantic error in a matcher expression."""


# --------------------------------------------------------------------------
# Lexer
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<cmp>==|!=|<=|>=|<|>|=~)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<hex>0[xX][0-9a-fA-F]+)
  | (?P<int>\d+)
  | (?P<string>"[^"]*")
  | (?P<regex>/(?:[^/\\]|\\.)*/)
  | (?P<word>[A-Za-z_][A-Za-z0-9_-]*)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise MatchExprError(
                f"unexpected character {source[pos]!r} at offset {pos}"
            )
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        tokens.append(Token(kind, m.group()))
    tokens.append(Token("eof", ""))
    return tokens


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------

class Node:
    """An expression node; the root is the compiled predicate."""

    def __call__(self, insn: Instruction) -> bool:
        return self.evaluate(insn)

    def evaluate(self, insn: Instruction) -> bool:
        raise NotImplementedError

    def verdict(self, insn: Instruction) -> bool | None:
        """The node's value for every instruction of *insn*'s shape
        (the fields a shape key fixes), or None when it may differ
        between them.  A leaf that reads only those fields answers
        with its value."""
        return bool(self.evaluate(insn))


@dataclass(frozen=True)
class Or(Node):
    left: Node
    right: Node

    def evaluate(self, insn: Instruction) -> bool:
        return self.left.evaluate(insn) or self.right.evaluate(insn)

    def verdict(self, insn: Instruction) -> bool | None:
        left = self.left.verdict(insn)
        if left is True:
            return True
        right = self.right.verdict(insn)
        if right is True:
            return True
        return None if left is None or right is None else False


@dataclass(frozen=True)
class And(Node):
    left: Node
    right: Node

    def evaluate(self, insn: Instruction) -> bool:
        return self.left.evaluate(insn) and self.right.evaluate(insn)

    def verdict(self, insn: Instruction) -> bool | None:
        left = self.left.verdict(insn)
        if left is False:
            return False
        right = self.right.verdict(insn)
        if right is False:
            return False
        return None if left is None or right is None else True


@dataclass(frozen=True)
class Not(Node):
    operand: Node

    def evaluate(self, insn: Instruction) -> bool:
        return not self.operand.evaluate(insn)

    def verdict(self, insn: Instruction) -> bool | None:
        value = self.operand.verdict(insn)
        return None if value is None else not value


_FIELDS: dict[str, Callable[[Instruction], object]] = {
    "mnemonic": lambda i: i.mnemonic,
    "size": lambda i: i.length,
    "addr": lambda i: i.address,
    "opcode": lambda i: i.opcode,
    "target": lambda i: i.target,
    "mem-width": lambda i: facts_for(i).mem_width,
}

#: Fields a shape key does not fix: a comparison on one has no verdict.
_POSITIONAL = frozenset({"size", "addr", "target"})

_NUMERIC_CMPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Comparison(Node):
    field: str
    op: str
    value: object  # int, str, or compiled regex

    def evaluate(self, insn: Instruction) -> bool:
        actual = _FIELDS[self.field](insn)
        if self.op == "==":
            return actual == self.value
        if self.op == "!=":
            return actual != self.value
        if self.op == "=~":
            assert isinstance(self.value, re.Pattern)
            return actual is not None and bool(
                self.value.fullmatch(str(actual))
            )
        if actual is None:
            return False
        return _NUMERIC_CMPS[self.op](actual, self.value)

    def verdict(self, insn: Instruction) -> bool | None:
        if self.field in _POSITIONAL:
            return None
        return super().verdict(insn)


_BAREWORDS: dict[str, Callable[[Instruction], bool]] = {
    "jumps": is_patchable_jump,
    "heap-writes": is_heap_write,
    "calls": lambda i: i.flow == Flow.CALL,
    "all": lambda i: i.mnemonic != "(bad)",
    "jcc": lambda i: i.flow == Flow.JCC,
    "jmp": lambda i: i.flow == Flow.JMP,
    "ret": lambda i: i.is_ret,
    "call": lambda i: i.flow == Flow.CALL or i.is_indirect_call,
    "mem-write": is_memory_write,
    "mem-read": lambda i: i.has_mem_operand and not i.writes_rm,
    "rip-relative": lambda i: i.rip_relative,
    "direct-branch": lambda i: i.is_direct_branch,
    "indirect-branch": lambda i: i.is_indirect_jump or i.is_indirect_call,
    # Fact-engine barewords.  May-sets for defines/uses (unknown
    # instructions match); the known bit gates preserves-flags and the
    # memory classes (unknown instructions never match those).
    "defines-flags": lambda i: facts_for(i).flags_written != 0,
    "uses-flags": lambda i: facts_for(i).flags_read != 0,
    "preserves-flags": lambda i: facts_for(i).preserves_flags,
    "mem-stack": lambda i: facts_for(i).mem_class == "stack",
    "mem-global": lambda i: facts_for(i).mem_class == "global",
    "mem-heap": lambda i: facts_for(i).mem_class == "heap",
}

_REG_PREDICATES = ("reads", "writes", "kills")

_REG_INDEX = {name: idx for idx, name in enumerate(REG_NAMES_64)}


@dataclass(frozen=True)
class RegTest(Node):
    pred: str  # "reads" | "writes" | "kills"
    reg: int  # register index into the fact masks

    def evaluate(self, insn: Instruction) -> bool:
        facts = facts_for(insn)
        if self.pred == "reads":
            mask = facts.regs_read
        elif self.pred == "writes":
            mask = facts.regs_written
        else:
            mask = facts.regs_killed
        return bool((mask >> self.reg) & 1)


@dataclass(frozen=True)
class Bareword(Node):
    name: str

    def evaluate(self, insn: Instruction) -> bool:
        return _BAREWORDS[self.name](insn)


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str) -> Token:
        token = self.take()
        if token.kind != kind:
            raise MatchExprError(
                f"expected {kind}, found {token.text!r}"
            )
        return token

    def parse(self) -> Node:
        node = self.parse_or()
        if self.peek().kind != "eof":
            raise MatchExprError(
                f"trailing input starting at {self.peek().text!r}"
            )
        return node

    def parse_or(self) -> Node:
        node = self.parse_and()
        while self.peek().kind == "word" and self.peek().text == "or":
            self.take()
            node = Or(node, self.parse_and())
        return node

    def parse_and(self) -> Node:
        node = self.parse_not()
        while self.peek().kind == "word" and self.peek().text == "and":
            self.take()
            node = And(node, self.parse_not())
        return node

    def parse_not(self) -> Node:
        if self.peek().kind == "word" and self.peek().text == "not":
            self.take()
            return Not(self.parse_not())
        return self.parse_primary()

    def parse_primary(self) -> Node:
        token = self.peek()
        if token.kind == "lparen":
            self.take()
            node = self.parse_or()
            self.expect("rparen")
            return node
        if token.kind == "word":
            self.take()
            if token.text in _REG_PREDICATES:
                return self.parse_regtest(token.text)
            if token.text in _FIELDS:
                return self.parse_comparison(token.text)
            if token.text in _BAREWORDS:
                return Bareword(token.text)
            raise MatchExprError(f"unknown name {token.text!r}")
        raise MatchExprError(f"unexpected token {token.text!r}")

    def parse_regtest(self, pred: str) -> Node:
        token = self.take()
        if token.kind != "word" or token.text not in _REG_INDEX:
            raise MatchExprError(
                f"{pred} expects a 64-bit register name, "
                f"found {token.text!r}"
            )
        return RegTest(pred, _REG_INDEX[token.text])

    def parse_comparison(self, field: str) -> Node:
        op = self.expect("cmp").text
        value_token = self.take()
        value: object
        if value_token.kind == "hex":
            value = int(value_token.text, 16)
        elif value_token.kind == "int":
            value = int(value_token.text)
        elif value_token.kind == "string":
            value = value_token.text[1:-1]
        elif value_token.kind == "regex":
            if op != "=~":
                raise MatchExprError("regex values require the =~ operator")
            try:
                value = re.compile(value_token.text[1:-1])
            except re.error as exc:
                raise MatchExprError(f"bad regex: {exc}") from exc
        else:
            raise MatchExprError(
                f"expected a value, found {value_token.text!r}"
            )
        if op == "=~":
            if isinstance(value, str):
                try:
                    value = re.compile(value)
                except re.error as exc:
                    raise MatchExprError(f"bad regex: {exc}") from exc
            if not isinstance(value, re.Pattern):
                raise MatchExprError("=~ requires a regex or string value")
        if op in _NUMERIC_CMPS and not isinstance(value, int):
            raise MatchExprError(f"operator {op} requires an integer value")
        if op in _NUMERIC_CMPS and field == "mnemonic":
            raise MatchExprError("mnemonic only supports ==, != and =~")
        return Comparison(field, op, value)


def parse(source: str) -> Node:
    """Parse a matcher expression into its AST."""
    return _Parser(tokenize(source)).parse()


def compile_matcher(source: str) -> Node:
    """Compile an expression into an ``Instruction -> bool`` predicate:
    its root node, which also gives the per-shape :meth:`Node.verdict`
    that :meth:`~repro.x86.fastscan.InstructionStream.select` reads."""
    return parse(source)
