"""Translation-unit model of the analyzer.

The lexical frontend (frontend_lex.py) reduces a C++ file to this model;
the check families (checks/) consume only the model, never tokens. The
model is deliberately *flat* — lists of declarations and in-order event
streams, not a tree — because that is the least common denominator the
lexical frontend can produce reliably and it is sufficient for every
check the subsystem ships (lock graphs, include graphs, field
inventories, token scans).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Include:
    path: str          # as written between the quotes/brackets
    line: int
    is_system: bool    # <...> vs "..."
    # `// IWYU pragma: export` on the directive: this header re-exports
    # the included header's names as part of its own API (the facade
    # pattern: an umbrella or facade header that forwards a dependency).
    exported: bool = False


@dataclass
class Member:
    """One non-function data member of a class/struct."""
    name: str
    type_text: str               # declaration tokens left of the name
    line: int
    annotations: dict[str, str] = field(default_factory=dict)
    is_static: bool = False
    is_const: bool = False

    @property
    def is_mutex(self) -> bool:
        t = self.type_text
        return ("Mutex" in t.split() or "mutex" in t.replace("::", " ").split())

    @property
    def is_atomic(self) -> bool:
        return "atomic" in self.type_text

    def guarded_by(self) -> str | None:
        for macro in ("MPS_GUARDED_BY", "GUARDED_BY",
                      "MPS_PT_GUARDED_BY", "PT_GUARDED_BY"):
            if macro in self.annotations:
                return self.annotations[macro]
        return None


@dataclass
class ClassInfo:
    name: str                    # unqualified (project uses one namespace)
    line: int
    members: dict[str, Member] = field(default_factory=dict)
    method_names: set[str] = field(default_factory=set)

    def mutex_members(self) -> list[Member]:
        return [m for m in self.members.values() if m.is_mutex]


# --- In-order events inside a function body --------------------------------

@dataclass
class Acquire:
    lock_expr: str     # source text of the lock operand, e.g. "mutex_"
    line: int
    depth: int         # block depth at the acquisition (for RAII scoping)
    kind: str          # "raii" | "manual" | "adopt"


@dataclass
class Release:
    lock_expr: str
    line: int
    depth: int


@dataclass
class BlockExit:
    depth: int         # the depth of the block being exited
    line: int


@dataclass
class Call:
    name: str              # unqualified callee name
    obj_expr: str | None   # "cache_", "this" ... None for free calls
    qualifier: str | None  # "Cls" for Cls::name(...) calls
    line: int
    depth: int


@dataclass
class Write:
    """A mutation of a plain identifier: assignment, compound assignment,
    increment/decrement, or a call to a known mutating member function."""
    name: str
    line: int
    depth: int
    via: str           # "assign" | "incdec" | "mutate:<method>"


@dataclass
class RangeFor:
    expr_text: str     # the range expression after ':'
    expr_name: str     # leading identifier of the expression ("" if none)
    line: int
    depth: int
    body_text: str     # token text of the loop body (for classification)


@dataclass
class IterWalk:
    """`x.begin()` / `x.cbegin()` inside a for-statement header."""
    expr_name: str
    line: int
    depth: int


Event = Acquire | Release | BlockExit | Call | Write | RangeFor | IterWalk


@dataclass
class Function:
    name: str                  # unqualified
    class_name: str | None     # enclosing/qualifying class, if any
    line: int
    params_text: str = ""
    requires: list[str] = field(default_factory=list)  # MPS_REQUIRES args
    events: list[Event] = field(default_factory=list)
    body_text: str = ""        # full body token text (coarse scans)

    @property
    def qualname(self) -> str:
        return f"{self.class_name}::{self.name}" if self.class_name else self.name


@dataclass
class TU:
    path: str                   # absolute path
    rel: str                    # repo-relative posix path
    includes: list[Include] = field(default_factory=list)
    defines: list[str] = field(default_factory=list)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    functions: list[Function] = field(default_factory=list)
    aliases: dict[str, str] = field(default_factory=dict)   # using A = B
    toplevel_names: set[str] = field(default_factory=set)   # provided names
    identifiers: dict[str, int] = field(default_factory=dict)  # id -> 1st line
    unordered_vars: dict[str, int] = field(default_factory=dict)  # name->line


@dataclass
class Finding:
    check: str      # "A1".."A5"
    rule: str       # slug within the family, e.g. "lock-cycle"
    file: str       # repo-relative path
    line: int
    message: str
    symbol: str = ""   # anchor for allowlisting (lock id, member, include)

    def key(self) -> tuple[str, str, str]:
        return (self.check, self.file, self.symbol)

    def format(self) -> str:
        return f"{self.file}:{self.line}: [{self.check}/{self.rule}] {self.message}"
