"""Zero-dependency lexical frontend: builds the TU model from tokens.

This is deliberately *not* a C++ parser. It is a scope-tracking walk over
the token stream (cpp_lexer.tokenize) with pattern heuristics tuned to
this repository's single-namespace, clang-format-shaped style. Where C++
is ambiguous the walk errs toward recording *more* events (extra call
sites, extra writes); the checks are designed so that over-approximated
events are filtered or harmless, while *missing* a lock acquisition or an
include would silently weaken a check — so those paths are kept simple
and total. The fixture selftest (selftest.py) pins that behavior.
"""

from __future__ import annotations

from pathlib import Path

from cpp_lexer import Token, parse_define, parse_include, tokenize
from model import (Acquire, BlockExit, Call, ClassInfo, Function, Include,
                   IterWalk, Member, RangeFor, Release, TU, Write)

_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "alignas", "static_assert", "decltype", "new", "delete", "throw",
    "co_return", "co_await", "co_yield", "case", "do", "else", "goto",
}

_ANNOTATION_MACROS = {
    "MPS_GUARDED_BY", "GUARDED_BY", "MPS_PT_GUARDED_BY", "PT_GUARDED_BY",
    "MPS_REQUIRES", "MPS_REQUIRES_SHARED", "MPS_ACQUIRE", "MPS_RELEASE",
    "MPS_EXCLUDES", "MPS_ACQUIRED_BEFORE", "MPS_ACQUIRED_AFTER",
    "MPS_CAPABILITY", "MPS_SCOPED_CAPABILITY", "MPS_TRY_ACQUIRE",
    "MPS_RETURN_CAPABILITY", "MPS_NO_THREAD_SAFETY_ANALYSIS",
    "MPS_ASSERT_CAPABILITY", "MPS_THREAD_ANNOTATION",
}

_RAII_LOCKS = {"MutexLock", "lock_guard", "unique_lock", "scoped_lock"}

_MUTATORS = {
    "push_back", "emplace_back", "push_front", "pop_front", "pop_back",
    "emplace", "insert", "erase", "clear", "resize", "reserve", "assign",
    "splice", "swap", "store", "reset", "emplace_front", "append",
}

_UNORDERED_TYPES = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset", "flat_hash_map", "flat_hash_set",
}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
               "<<=", ">>="}


class _Scope:
    __slots__ = ("kind", "name", "cls", "fn", "open_idx")

    def __init__(self, kind: str, name: str = "", cls: ClassInfo | None = None,
                 fn: Function | None = None, open_idx: int = 0):
        self.kind = kind      # "namespace" | "class" | "function" | "block"
        self.name = name
        self.cls = cls
        self.fn = fn
        self.open_idx = open_idx


def parse_file(path: str | Path, rel: str) -> TU:
    text = Path(path).read_text(encoding="utf-8", errors="replace")
    return parse_source(text, str(path), rel)


def parse_source(text: str, path: str, rel: str) -> TU:
    toks = tokenize(text)
    tu = TU(path=path, rel=rel)
    _scan_aliases(toks, tu)
    _Walker(toks, tu).walk()
    return tu


def _scan_aliases(toks: list[Token], tu: TU) -> None:
    """Records `using A = ...;` and `typedef ... A;` at *any* scope —
    function-local clock aliases are exactly what the clock check (A5)
    must see through."""
    i = 0
    n = len(toks)
    while i < n:
        if toks[i].kind == "id" and toks[i].text == "using" \
                and i + 2 < n and toks[i + 1].kind == "id" \
                and toks[i + 2].text == "=":
            j = i + 3
            rhs = []
            while j < n and toks[j].text != ";":
                rhs.append(toks[j].text)
                j += 1
            tu.aliases[toks[i + 1].text] = " ".join(rhs)
            i = j
            continue
        if toks[i].kind == "id" and toks[i].text == "typedef":
            j = i + 1
            body = []
            while j < n and toks[j].text != ";":
                body.append(toks[j])
                j += 1
            if len(body) >= 2 and body[-1].kind == "id":
                tu.aliases[body[-1].text] = _text_of(body[:-1])
            i = j
            continue
        i += 1


def _text_of(toks: list[Token]) -> str:
    return " ".join(t.text for t in toks)


class _Walker:
    def __init__(self, toks: list[Token], tu: TU):
        self.toks = toks
        self.tu = tu
        self.scopes: list[_Scope] = []
        # Tokens accumulated since the last statement boundary at the
        # current scope; used to classify the next '{' and to parse
        # declarations when a ';' flushes them.
        self.pending: list[Token] = []

    # --- scope helpers ----------------------------------------------------

    def _enclosing_class(self) -> ClassInfo | None:
        for s in reversed(self.scopes):
            if s.kind == "class":
                return s.cls
        return None

    def _enclosing_fn(self) -> Function | None:
        for s in reversed(self.scopes):
            if s.kind in ("function", "block") and s.fn is not None:
                return s.fn
        return None

    def _block_depth(self) -> int:
        return sum(1 for s in self.scopes if s.kind in ("function", "block"))

    def _at_decl_scope(self) -> bool:
        """True outside any function body (namespace/class/global scope)."""
        return all(s.kind in ("namespace", "class", "other")
                   for s in self.scopes)

    # --- main walk --------------------------------------------------------

    def walk(self) -> None:
        toks = self.toks
        i = 0
        n = len(toks)
        while i < n:
            t = toks[i]

            if t.kind == "pp":
                inc = parse_include(t.text)
                if inc:
                    exported = ("IWYU pragma" in t.text
                                and "export" in t.text)
                    self.tu.includes.append(
                        Include(path=inc[0], line=t.line, is_system=inc[1],
                                exported=exported))
                d = parse_define(t.text)
                if d:
                    self.tu.defines.append(d)
                    self.tu.toplevel_names.add(d)
                i += 1
                continue

            if t.kind == "id":
                self.tu.identifiers.setdefault(t.text, t.line)

            fn = self._enclosing_fn()

            if t.text == "{" and t.kind == "punct":
                i = self._open_brace(i)
                continue
            if t.text == "}" and t.kind == "punct":
                self._close_brace(t.line)
                self.pending = []
                i += 1
                continue
            if t.text == ";" and t.kind == "punct":
                if self._at_decl_scope():
                    self._flush_declaration()
                self.pending = []
                i += 1
                continue

            if fn is not None:
                i = self._function_token(i, fn)
            else:
                self.pending.append(t)
                i += 1

        # Fixture/real files can end mid-scope on parse slips; nothing to do.

    # --- '{' classification ----------------------------------------------

    def _open_brace(self, i: int) -> int:
        toks = self.toks
        p = self.pending
        fn = self._enclosing_fn()
        line = toks[i].line

        if fn is not None:
            # Inside a function body every '{' is a plain block (control
            # flow, lambda body, aggregate init — all equivalent for us).
            self.scopes.append(_Scope("block", fn=fn, open_idx=i))
            return i + 1

        if sum(1 for t in p if t.text == "(") > \
                sum(1 for t in p if t.text == ")"):
            # The '{' sits inside a still-open paren group — a braced
            # default argument in a declaration's parameter list, e.g.
            # `void f(const std::function<int(int)>& g = {});`. Not a
            # scope opener: skip the balanced group so the declaration
            # flushes intact at its ';'.
            depth = 0
            j = i
            while j < len(toks):
                if toks[j].text == "{" and toks[j].kind == "punct":
                    depth += 1
                elif toks[j].text == "}" and toks[j].kind == "punct":
                    depth -= 1
                    if depth == 0:
                        return j + 1
                j += 1
            return j

        ptexts = [t.text for t in p]

        if "namespace" in ptexts:
            name = ptexts[-1] if ptexts[-1] != "namespace" else ""
            self.scopes.append(_Scope("namespace", name=name))
            self.pending = []
            return i + 1

        if "enum" in ptexts:
            ids = [t.text for t in p if t.kind == "id"
                   and t.text not in ("enum", "class", "struct")]
            if ids:
                self.tu.toplevel_names.add(ids[0])
            self.scopes.append(_Scope("other"))
            self.pending = []
            return i + 1

        cls_kw = next((k for k in ("class", "struct", "union")
                       if k in ptexts), None)
        has_params = self._find_params_group(p) is not None
        if cls_kw is not None and not has_params:
            name = self._class_name_from_pending(p, ptexts.index(cls_kw))
            cls = ClassInfo(name=name, line=line)
            # Re-opening (e.g. fixture reuse of a name) keeps the first.
            self.tu.classes.setdefault(name, cls)
            self.tu.toplevel_names.add(name)
            self.scopes.append(
                _Scope("class", name=name, cls=self.tu.classes[name]))
            self.pending = []
            return i + 1

        func = self._try_function_from_pending(p, line)
        if func is not None:
            self.tu.functions.append(func)
            if func.class_name is None:
                self.tu.toplevel_names.add(func.name)
            encl = self._enclosing_class()
            if encl is not None and func.class_name == encl.name:
                encl.method_names.add(func.name)
            self.scopes.append(_Scope("function", fn=func, open_idx=i))
            self.pending = []
            return i + 1

        # Aggregate initializer / brace-initialized declaration. A member
        # like `std::atomic<u64> version_{0};` reaches here because the
        # '{' interrupts the declaration — record it before discarding.
        if self._at_decl_scope() and cls_kw is None and not has_params:
            member = self._parse_member(p)
            if member is not None:
                encl = self._enclosing_class()
                if encl is not None:
                    encl.members[member.name] = member
                else:
                    self.tu.toplevel_names.add(member.name)
                if "unordered_" in member.type_text:
                    self.tu.unordered_vars[member.name] = member.line
        self.scopes.append(_Scope("other"))
        self.pending = []
        return i + 1

    def _close_brace(self, line: int) -> None:
        if not self.scopes:
            return
        s = self.scopes.pop()
        if s.kind == "block" and s.fn is not None:
            s.fn.events.append(
                BlockExit(depth=self._block_depth() + 1, line=line))
        elif s.kind == "function" and s.fn is not None:
            s.fn.events.append(BlockExit(depth=1, line=line))
            s.fn.body_text = _text_of(
                self.toks[s.open_idx:self._index_of_line(line, s.open_idx)])

    def _index_of_line(self, line: int, start: int) -> int:
        # Cheap upper bound: body text is only used for coarse substring
        # scans, so "until the first token past `line`" is fine.
        for j in range(start, len(self.toks)):
            if self.toks[j].line > line:
                return j
        return len(self.toks)

    # --- declaration-scope parsing ---------------------------------------

    def _class_name_from_pending(self, p: list[Token], kw_idx: int) -> str:
        """Name of `class ... NAME [final] [: bases] {`. Skips attribute
        macros with arguments and the base clause."""
        toks = p[kw_idx + 1:]
        depth = 0
        candidates: list[str] = []
        j = 0
        while j < len(toks):
            t = toks[j]
            if t.text == "(":
                depth += 1
            elif t.text == ")":
                depth -= 1
            elif depth == 0:
                if t.text == ":" and t.kind == "punct":
                    break  # base clause starts
                if t.kind == "id" and t.text not in ("final", "alignas"):
                    nxt = toks[j + 1].text if j + 1 < len(toks) else ""
                    if nxt == "(":  # attribute macro invocation
                        j += 1
                        continue
                    candidates.append(t.text)
            j += 1
        return candidates[-1] if candidates else "<anon>"

    def _find_params_group(self, p: list[Token]) -> tuple[int, int] | None:
        """Locates the parameter list `( ... )` of a would-be function
        definition in the pending tokens: the first top-level paren group
        preceded by an identifier or `operator`. Returns (open, close)."""
        depth = 0
        j = 0
        while j < len(p):
            t = p[j]
            if t.text == "(" and t.kind == "punct":
                if depth == 0 and j > 0:
                    prev = p[j - 1]
                    prev2 = p[j - 2].text if j >= 2 else ""
                    named = (prev.kind == "id"
                             and prev.text not in _KEYWORDS) or \
                            (prev.kind == "punct" and prev2 == "operator")
                    if named and prev.text not in _ANNOTATION_MACROS:
                        close = self._match_paren(p, j)
                        if close is not None:
                            return j, close
                depth += 1
            elif t.text == ")" and t.kind == "punct":
                depth = max(0, depth - 1)
            j += 1
        return None

    @staticmethod
    def _match_paren(p: list[Token], open_idx: int) -> int | None:
        depth = 0
        for j in range(open_idx, len(p)):
            if p[j].text == "(":
                depth += 1
            elif p[j].text == ")":
                depth -= 1
                if depth == 0:
                    return j
        return None

    def _try_function_from_pending(self, p: list[Token],
                                   line: int) -> Function | None:
        grp = self._find_params_group(p)
        if grp is None:
            return None
        op, cl = grp
        # Name: identifier (or operatorX) immediately left of the params.
        name_idx = op - 1
        name = p[name_idx].text
        if p[name_idx].kind == "punct" and name_idx >= 1 \
                and p[name_idx - 1].text == "operator":
            name = "operator" + name
            name_idx -= 1
        if name in _KEYWORDS or name in _ANNOTATION_MACROS:
            return None
        # Qualification: walk back over `Cls ::` pairs.
        cls_name: str | None = None
        j = name_idx - 1
        if j >= 1 and p[j].text == "::" and p[j - 1].kind == "id":
            cls_name = p[j - 1].text
        if cls_name is None:
            encl = self._enclosing_class()
            if encl is not None:
                cls_name = encl.name
        fn = Function(name=name, class_name=cls_name, line=line,
                      params_text=_text_of(p[op + 1:cl]))
        # Qualifier annotations after the params (MPS_REQUIRES etc.).
        k = cl + 1
        while k < len(p):
            t = p[k]
            if t.kind == "id" and t.text in ("MPS_REQUIRES",
                                             "MPS_REQUIRES_SHARED",
                                             "MPS_ACQUIRE"):
                close = self._match_paren(p, k + 1)
                if close is not None:
                    arg = _text_of(p[k + 2:close])
                    if t.text == "MPS_ACQUIRE" and arg:
                        # Functions annotated as acquiring hand the lock to
                        # their caller; model as acquire-on-entry is wrong,
                        # so record nothing (the *call site* wrappers like
                        # MutexLock are what matter).
                        pass
                    elif arg:
                        fn.requires.append(arg)
                    k = close
            k += 1
        return fn

    def _flush_declaration(self) -> None:
        """A ';' at namespace/class scope: record a member (class scope),
        an alias, or a provided top-level name."""
        p = self.pending
        if not p:
            return
        texts = [t.text for t in p]

        if texts[0] == "using" and "=" in texts:
            eq = texts.index("=")
            if eq >= 2 and p[eq - 1].kind == "id":
                self.tu.aliases[p[eq - 1].text] = _text_of(p[eq + 1:])
                self.tu.toplevel_names.add(p[eq - 1].text)
            return
        if texts[0] == "typedef" and len(p) >= 3 and p[-1].kind == "id":
            self.tu.aliases[p[-1].text] = _text_of(p[1:-1])
            self.tu.toplevel_names.add(p[-1].text)
            return
        if texts[0] in ("friend", "template", "static_assert", "extern",
                        "public", "private", "protected", "using"):
            return
        # Forward declarations / enum declarations provide their name.
        if texts[0] in ("class", "struct", "enum", "union"):
            ids = [t.text for t in p if t.kind == "id"
                   and t.text not in ("class", "struct", "enum", "union")]
            if ids:
                self.tu.toplevel_names.add(ids[0])
            # `enum class X : type { ... };` closed on one statement is
            # handled by the brace classifier; nothing else to record.
            return

        encl = self._enclosing_class()
        grp = self._find_params_group(p)
        if grp is not None:
            # Method declaration (class scope) or function declaration.
            op, _ = grp
            nm = p[op - 1].text
            if encl is not None:
                encl.method_names.add(nm)
            else:
                self.tu.toplevel_names.add(nm)
            return
        member = self._parse_member(p)
        if member is None:
            return
        if encl is not None:
            encl.members[member.name] = member
        else:
            self.tu.toplevel_names.add(member.name)
        if "unordered_" in member.type_text:
            self.tu.unordered_vars[member.name] = member.line

    def _parse_member(self, p: list[Token]) -> Member | None:
        """Parses `[static] [mutable] type NAME [MACRO(arg)] [= init];`
        pending tokens into a Member. Returns None when no name is found."""
        # Cut at the first top-level '=' or '{' (initializer).
        depth = angle = 0
        cut = len(p)
        for j, t in enumerate(p):
            if t.text == "(":
                depth += 1
            elif t.text == ")":
                depth -= 1
            elif depth == 0 and t.kind == "punct":
                if t.text == "<" and j > 0 and p[j - 1].kind == "id":
                    angle += 1
                elif t.text == ">" and angle > 0:
                    angle -= 1
                elif t.text == ">>" and angle > 0:
                    angle = max(0, angle - 2)
                elif angle == 0 and t.text in ("=", "{"):
                    cut = j
                    break
        decl = p[:cut]
        if not decl:
            return None
        annotations: dict[str, str] = {}
        core: list[Token] = []
        j = 0
        while j < len(decl):
            t = decl[j]
            if t.kind == "id" and t.text in _ANNOTATION_MACROS:
                close = self._match_paren(decl, j + 1) \
                    if j + 1 < len(decl) and decl[j + 1].text == "(" else None
                if close is not None:
                    annotations[t.text] = _text_of(decl[j + 2:close])
                    j = close + 1
                    continue
                annotations[t.text] = ""
                j += 1
                continue
            core.append(t)
            j += 1
        # Name = last identifier in the core declaration (arrays: skip
        # trailing [N] brackets).
        # Strip leading access specifiers that rode along in the pending
        # run ("public : std::uint64_t hits").
        while len(core) >= 2 and core[0].text in ("public", "private",
                                                  "protected") \
                and core[1].text == ":":
            core = core[2:]
        k = len(core) - 1
        while k >= 0 and (core[k].text in ("]", "[")
                          or core[k].kind == "num"):
            k -= 1
        while k >= 0 and core[k].kind != "id":
            k -= 1
        if k <= 0:   # a lone identifier is an expression, not a declaration
            return None
        name = core[k].text
        type_text = _text_of(core[:k])
        if not type_text or name in _KEYWORDS:
            return None
        return Member(
            name=name, type_text=type_text, line=core[k].line,
            annotations=annotations,
            is_static="static" in type_text.split(),
            is_const="const" in type_text.split(),
        )

    # --- function-body parsing --------------------------------------------

    def _function_token(self, i: int, fn: Function) -> int:
        toks = self.toks
        t = toks[i]
        depth = self._block_depth()

        if t.kind == "id":
            # RAII lock constructions.
            if t.text in _RAII_LOCKS:
                nxt = self._raii_acquire(i, fn, depth)
                if nxt is not None:
                    return nxt
            if t.text == "for":
                nxt = self._for_header(i, fn, depth)
                if nxt is not None:
                    return nxt
            if t.text in _UNORDERED_TYPES:
                self._unordered_decl(i)
            # Member/obj calls and manual lock/unlock.
            if i + 1 < len(toks) and toks[i + 1].text == "(" \
                    and t.text not in _KEYWORDS:
                self._call_like(i, fn, depth)
            # Writes: id followed by assignment/incdec.
            if i + 1 < len(toks):
                nt = toks[i + 1]
                if nt.kind == "punct" and nt.text in _ASSIGN_OPS:
                    fn.events.append(Write(name=t.text, line=t.line,
                                           depth=depth, via="assign"))
                elif nt.kind == "punct" and nt.text in ("++", "--"):
                    fn.events.append(Write(name=t.text, line=t.line,
                                           depth=depth, via="incdec"))
        elif t.kind == "punct" and t.text in ("++", "--"):
            if i + 1 < len(toks) and toks[i + 1].kind == "id":
                fn.events.append(Write(name=toks[i + 1].text, line=t.line,
                                       depth=depth, via="incdec"))
        return i + 1

    def _raii_acquire(self, i: int, fn: Function, depth: int) -> int | None:
        """`MutexLock name(expr)` / `std::lock_guard<...> name(expr)` /
        `std::scoped_lock name(a, b)`. Returns the index after the
        construction, or None if the shape doesn't match."""
        toks = self.toks
        j = i + 1
        # Skip template argument list.
        if j < len(toks) and toks[j].text == "<":
            angle = 0
            while j < len(toks):
                if toks[j].text == "<":
                    angle += 1
                elif toks[j].text == ">":
                    angle -= 1
                    if angle == 0:
                        j += 1
                        break
                elif toks[j].text == ">>":
                    angle -= 2
                    if angle <= 0:
                        j += 1
                        break
                j += 1
        if j >= len(toks) or toks[j].kind != "id":
            return None
        var_idx = j
        j += 1
        if j >= len(toks) or toks[j].text not in ("(", "{"):
            return None
        open_tok = toks[j].text
        close_tok = ")" if open_tok == "(" else "}"
        d = 0
        args_start = j + 1
        k = j
        while k < len(toks):
            if toks[k].text == open_tok:
                d += 1
            elif toks[k].text == close_tok:
                d -= 1
                if d == 0:
                    break
            k += 1
        if k >= len(toks):
            return None
        args = toks[args_start:k]
        # Split top-level commas: scoped_lock can take several mutexes.
        groups: list[list[Token]] = [[]]
        d2 = 0
        for tok in args:
            if tok.text in ("(", "{", "["):
                d2 += 1
            elif tok.text in (")", "}", "]"):
                d2 -= 1
            if tok.text == "," and d2 == 0:
                groups.append([])
            else:
                groups[-1].append(tok)
        texts = [_text_of(g) for g in groups if g]
        kind = "raii"
        locks = []
        for g in texts:
            if "defer_lock" in g:
                return k + 1  # deferred: no acquisition here
            if "adopt_lock" in g:
                kind = "adopt"
                continue
            locks.append(g)
        line = toks[var_idx].line
        for lk in locks:
            fn.events.append(Acquire(lock_expr=lk, line=line,
                                     depth=depth, kind=kind))
        return k + 1

    def _call_like(self, i: int, fn: Function, depth: int) -> None:
        """Records a call event for `name(`, resolving `obj.name(` /
        `obj->name(` / `Cls::name(` shapes, plus manual lock()/unlock()."""
        toks = self.toks
        name = toks[i].text
        obj = None
        qual = None
        j = i - 1
        if j >= 0 and toks[j].text in (".", "->"):
            # Walk the object chain backwards: a.b.c.name( -> obj "a.b.c"
            parts: list[str] = []
            k = j
            while k >= 1 and toks[k].text in (".", "->") \
                    and toks[k - 1].kind == "id":
                parts.append(toks[k - 1].text)
                k -= 2
            if k >= 0 and toks[k].text == "this":
                parts.append("this")
            obj = ".".join(reversed(parts)) if parts else None
            if name == "lock":
                if obj:
                    fn.events.append(Acquire(lock_expr=obj, line=toks[i].line,
                                             depth=depth, kind="manual"))
                return
            if name == "unlock":
                if obj:
                    fn.events.append(Release(lock_expr=obj,
                                             line=toks[i].line, depth=depth))
                return
            if name in _MUTATORS and obj:
                fn.events.append(Write(name=obj.split(".")[0],
                                       line=toks[i].line, depth=depth,
                                       via=f"mutate:{name}"))
        elif j >= 1 and toks[j].text == "::" and toks[j - 1].kind == "id":
            qual = toks[j - 1].text
        fn.events.append(Call(name=name, obj_expr=obj, qualifier=qual,
                              line=toks[i].line, depth=depth))

    def _for_header(self, i: int, fn: Function, depth: int) -> int | None:
        """Parses a for-statement header: records RangeFor for
        `for (decl : expr)` and IterWalk for `.begin()` in a classic for."""
        toks = self.toks
        j = i + 1
        if j >= len(toks) or toks[j].text != "(":
            return None
        d = 0
        colon = None
        k = j
        while k < len(toks):
            if toks[k].text == "(":
                d += 1
            elif toks[k].text == ")":
                d -= 1
                if d == 0:
                    break
            elif d == 1 and toks[k].kind == "punct" and toks[k].text == ":":
                colon = k
            k += 1
        if k >= len(toks):
            return None
        header = toks[j + 1:k]
        if colon is not None:
            expr = toks[colon + 1:k]
            expr_name = expr[0].text if expr and expr[0].kind == "id" else ""
            body_end = self._statement_end(k + 1)
            body = _text_of(toks[k + 1:body_end])
            fn.events.append(RangeFor(
                expr_text=_text_of(expr), expr_name=expr_name,
                line=toks[i].line, depth=depth, body_text=body))
        else:
            # Classic for: look for `x.begin(` / `x.cbegin(` in the header.
            for m in range(len(header) - 2):
                if header[m].kind == "id" \
                        and header[m + 1].text in (".", "->") \
                        and header[m + 2].text in ("begin", "cbegin"):
                    fn.events.append(IterWalk(expr_name=header[m].text,
                                              line=header[m].line,
                                              depth=depth))
        return None  # let the normal walk continue from i+1

    def _statement_end(self, start: int) -> int:
        toks = self.toks
        if start < len(toks) and toks[start].text == "{":
            d = 0
            for j in range(start, len(toks)):
                if toks[j].text == "{":
                    d += 1
                elif toks[j].text == "}":
                    d -= 1
                    if d == 0:
                        return j + 1
            return len(toks)
        for j in range(start, len(toks)):
            if toks[j].text == ";":
                return j + 1
        return len(toks)

    def _unordered_decl(self, i: int) -> None:
        """`unordered_map<K, V> name` (member or local): records the
        variable name so iteration checks can resolve it."""
        toks = self.toks
        j = i + 1
        if j >= len(toks) or toks[j].text != "<":
            return
        angle = 0
        while j < len(toks):
            if toks[j].text == "<":
                angle += 1
            elif toks[j].text == ">":
                angle -= 1
                if angle == 0:
                    j += 1
                    break
            elif toks[j].text == ">>":
                angle -= 2
                if angle <= 0:
                    j += 1
                    break
            j += 1
        if j < len(toks) and toks[j].kind == "id":
            self.tu.unordered_vars[toks[j].text] = toks[j].line
