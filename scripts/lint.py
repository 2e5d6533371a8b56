#!/usr/bin/env python3
"""Project-invariant lint for the parsssp tree (scripts/check.sh step 1).

Machine-checks repository rules that neither the compiler nor clang-tidy
enforce (see docs/STATIC_ANALYSIS.md):

  R1  no naked std::thread / std::jthread / std::async outside src/runtime/
      — all parallelism (including session/queue service threads) goes
      through Machine / ThreadPool / MachineSession / ServiceThread so the
      concurrency layer stays auditable;
  R2  no rand()/srand()/time(nullptr) in src/ — generators are hash-based
      and deterministic (graph/rmat.hpp), wall-clock seeding breaks
      reproducibility;
  R3  no volatile-as-synchronization in src/ — volatile is not a memory
      fence; use std::atomic or a GUARDED_BY mutex;
  R4  include hygiene: headers use #pragma once; no parent-relative
      ("../") includes; project includes use quoted module-relative paths;
  R5  no using namespace at file scope in headers;
  R7  engine hot paths (the files listed in ENGINE_HOT_PATHS) must not
      build nested vector-of-vector send buffers of message types — relax
      emission goes through SendBufferPool, the one data path, so buffers
      are pooled and exchanged zero-copy (docs/PERFORMANCE.md); the retired
      seed path's per-phase std::vector<std::vector<RelaxMsg>> churn must
      not creep back in.

Retired rules (numbers are not reused):

  R6, R9  the serve/ and update/ isolation rules are now enforced from the
      real include graph by the AST-grade analyzer's layering check
      (scripts/analysis/, check A3 against scripts/analysis/layers.toml),
      which also catches transitive leaks the per-line regexes missed;
  R8  the engine timed-path clock rule is now check A5 in the analyzer,
      which resolves type aliases (a `using Tick = Clock;` chain no longer
      hides a read) and never fires on comments or string literals.

Exit code 0 = clean, 1 = violations (printed one per line as
path:line: [rule] message).

The rule implementations live in lint_text() so scripts/lint_selftest.py
(registered as the lint_selftest ctest) can exercise each rule on synthetic
inputs; a silently-disabled rule fails that test, not just this linter.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

SOURCE_DIRS = ["src", "tests", "bench", "examples", "tools"]
CPP_SUFFIXES = {".cpp", ".hpp", ".h", ".cc", ".cxx"}

# (rule, regex, message). Patterns are applied to comment-stripped lines.
# `std::thread` as a type is banned; `std::thread::id` (a plain value type,
# used by the obs/ trace recorder to key lanes) is not a way to spawn work
# and stays legal everywhere — hence the (?!\s*::) lookahead.
STD_THREAD = re.compile(r"\bstd::(?:thread(?!\s*::)|jthread|async)\b")
RAND = re.compile(r"(?<![:\w])(rand|srand)\s*\(")
TIME_SEED = re.compile(r"\btime\s*\(\s*(nullptr|NULL|0)\s*\)")
VOLATILE = re.compile(r"\bvolatile\b")
PARENT_INCLUDE = re.compile(r'#\s*include\s+"\.\./')
USING_NAMESPACE = re.compile(r"^\s*using\s+namespace\s+\w")
# R7: a nested vector whose inner element is a message type (RelaxMsg,
# PullReqMsg, BfsMsg, MultiRelaxMsg, ...). Deliberately narrow: nested
# vectors of non-message types (per-slot engine state like
# vector<vector<char>>) are legitimate and must not fire.
NESTED_MSG_VECTOR = re.compile(
    r"std::vector<\s*std::vector<\s*\w*Msg\s*>")

# Files allowed to spawn threads: the simulated machine's runtime and the
# tests/benches that exercise it directly.
THREAD_ALLOWED_PREFIXES = ("src/runtime/",)
THREAD_ALLOWED_DIRS = ("tests/", "bench/")

# R7 applies to the engine hot paths — the files whose relax emission the
# pooled data path rebuilt. The generic plumbing (RankCtx::exchange for
# one-shot callers, SendBufferPool's incoming batches) legitimately names
# vector<vector<T>>; engines may only reach the board through a
# SendBufferPool.
ENGINE_HOT_PATHS = frozenset({
    "src/core/delta_engine.cpp",
    "src/core/delta_engine.hpp",
    "src/core/bfs_engine.cpp",
    "src/core/multi_engine.cpp",
    "src/core/multi_engine.hpp",
})


def strip_comments(text: str) -> list[str]:
    """Removes // and /* */ comments and string literals, keeping line
    structure so reported line numbers match the file."""
    out: list[str] = []
    in_block = False
    for line in text.splitlines():
        if in_block:
            end = line.find("*/")
            if end < 0:
                out.append("")
                continue
            line = line[end + 2:]
            in_block = False
        # String/char literals can contain comment tokens; drop them first.
        line = re.sub(r'"(\\.|[^"\\])*"', '""', line)
        line = re.sub(r"'(\\.|[^'\\])*'", "''", line)
        while True:
            block = line.find("/*")
            linec = line.find("//")
            if linec >= 0 and (block < 0 or linec < block):
                line = line[:linec]
                break
            if block >= 0:
                end = line.find("*/", block + 2)
                if end < 0:
                    line = line[:block]
                    in_block = True
                    break
                line = line[:block] + line[end + 2:]
                continue
            break
        out.append(line)
    return out


def lint_text(rel: str, raw: str) -> list[str]:
    """Lints one file's contents; `rel` is its repo-relative posix path.

    Pure function of its arguments (no filesystem access) so the selftest
    can feed synthetic files through the exact production rule set.
    """
    lines = strip_comments(raw)
    errors: list[str] = []

    def err(lineno: int, rule: str, msg: str) -> None:
        errors.append(f"{rel}:{lineno}: [{rule}] {msg}")

    in_src = rel.startswith("src/")
    is_header = rel.endswith((".hpp", ".h"))

    if is_header and "#pragma once" not in raw:
        err(1, "R4", "header is missing #pragma once")

    thread_ok = rel.startswith(THREAD_ALLOWED_PREFIXES) or rel.startswith(
        THREAD_ALLOWED_DIRS)

    raw_lines = raw.splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        # Comment stripping blanks string literals, which hides #include
        # paths; when the directive survives stripping (i.e. it is not
        # commented out), re-check the raw line for path-based rules.
        include_line = (raw_lines[lineno - 1]
                        if re.search(r"#\s*include", line) else "")
        if STD_THREAD.search(line) and not thread_ok:
            err(lineno, "R1",
                "naked std::thread/jthread/async outside src/runtime/ — use "
                "Machine, ThreadPool, MachineSession or ServiceThread")
        if in_src and RAND.search(line):
            err(lineno, "R2", "rand()/srand() in src/ — use the hash-based "
                "deterministic generators")
        if in_src and TIME_SEED.search(line):
            err(lineno, "R2", "time(nullptr) seeding in src/ breaks "
                "reproducibility")
        if in_src and VOLATILE.search(line):
            err(lineno, "R3", "volatile is not synchronization — use "
                "std::atomic or a GUARDED_BY mutex")
        if PARENT_INCLUDE.search(include_line):
            err(lineno, "R4", 'parent-relative #include "../..." — use a '
                "module-relative path")
        if is_header and USING_NAMESPACE.match(line):
            err(lineno, "R5", "using namespace at file scope in a header")
        if rel in ENGINE_HOT_PATHS and NESTED_MSG_VECTOR.search(line):
            err(lineno, "R7",
                "nested vector-of-vector send buffer of a message type in "
                "an engine hot path — emit into a SendBufferPool shard "
                "(docs/PERFORMANCE.md)")

    return errors


def lint_file(path: Path) -> list[str]:
    rel = path.relative_to(REPO).as_posix()
    raw = path.read_text(encoding="utf-8", errors="replace")
    return lint_text(rel, raw)


def main() -> int:
    files: list[Path] = []
    for d in SOURCE_DIRS:
        root = REPO / d
        if not root.is_dir():
            continue
        files.extend(p for p in sorted(root.rglob("*"))
                     if p.suffix in CPP_SUFFIXES and p.is_file())

    all_errors: list[str] = []
    for f in files:
        all_errors.extend(lint_file(f))

    for e in all_errors:
        print(e)
    print(f"lint: {len(files)} files checked, {len(all_errors)} violation(s)",
          file=sys.stderr)
    return 1 if all_errors else 0


if __name__ == "__main__":
    sys.exit(main())
