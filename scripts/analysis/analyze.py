#!/usr/bin/env python3
"""AST-grade static analysis for the parsssp tree.

Drives the check families A1-A5 (docs/STATIC_ANALYSIS.md) over the
project sources, discovered through the build's compile_commands.json
plus the header set under src/. The zero-dependency lexical frontend
(frontend_lex) builds the shared TU model.

Findings print one per line as `path:line: [A#/rule] message`. Waivers
live in scripts/analysis/policy.toml ([[waiver]], matched on
check/file/symbol); a waiver matching no finding is itself an error so
the allowlist can only shrink unless consciously grown. Exit code 0 =
clean, 1 = findings or stale waivers, 2 = usage/configuration error.

Usage:
  scripts/analysis/analyze.py [--compdb build/compile_commands.json]
                              [--json out.json] [--quiet]
"""

from __future__ import annotations

import argparse
import json
import sys
import tomllib
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import frontend_lex  # noqa: E402
from model import TU, Finding  # noqa: E402
from checks import clocks, determinism, layering, lock_order, signature  # noqa: E402

REPO = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent

# Analysis scope: the product tree. tests/ stays under scripts/lint.py;
# pulling gtest macro soup through the heuristic frontend buys noise, not
# coverage.
SCAN_DIRS = ("src", "tools", "bench")
CPP_SUFFIXES = {".cpp", ".hpp", ".h", ".cc", ".cxx"}


def discover_files(root: Path, compdb: Path | None,
                   quiet: bool) -> list[str]:
    """Repo-relative posix paths to analyze. compile_commands.json is the
    source of truth for translation units; headers are globbed (they have
    no compile commands)."""
    rels: set[str] = set()
    in_scope = lambda rel: any(  # noqa: E731
        rel == d or rel.startswith(d + "/") for d in SCAN_DIRS)
    if compdb is not None and compdb.is_file():
        for entry in json.loads(compdb.read_text()):
            p = Path(entry.get("file", ""))
            if not p.is_absolute():
                p = Path(entry.get("directory", ".")) / p
            try:
                rel = p.resolve().relative_to(root).as_posix()
            except ValueError:
                continue
            if in_scope(rel) and p.suffix in CPP_SUFFIXES:
                rels.add(rel)
    else:
        if not quiet:
            print("analyze: no compile_commands.json — falling back to a "
                  "tree scan (run cmake -B build to generate one)",
                  file=sys.stderr)
        for d in SCAN_DIRS:
            base = root / d
            if base.is_dir():
                rels.update(p.relative_to(root).as_posix()
                            for p in base.rglob("*.cpp"))
    for d in SCAN_DIRS:
        base = root / d
        if base.is_dir():
            rels.update(p.relative_to(root).as_posix()
                        for suffix in (".hpp", ".h")
                        for p in base.rglob(f"*{suffix}"))
    return sorted(rels)


def load_tus(root: Path, rels: list[str]) -> dict[str, TU]:
    tus: dict[str, TU] = {}
    for rel in rels:
        path = root / rel
        if path.is_file():
            tus[rel] = frontend_lex.parse_file(path, rel)
    return tus


def run_checks(tus: dict[str, TU], layers_cfg: dict,
               policy: dict) -> list[Finding]:
    findings: list[Finding] = []
    findings += lock_order.run(tus)
    findings += signature.run(tus, policy)
    findings += layering.run(tus, layers_cfg)
    findings += determinism.run(tus, policy)
    findings += clocks.run(tus, policy)
    return findings


def apply_waivers(findings: list[Finding], policy: dict):
    """Splits findings into (kept, waived) and returns stale waivers —
    allowlist entries that matched nothing this run."""
    waivers = policy.get("waiver", [])
    kept: list[Finding] = []
    waived: list[Finding] = []
    used: set[int] = set()
    for f in findings:
        hit = None
        for idx, w in enumerate(waivers):
            if (w.get("check") == f.check and w.get("file") == f.file
                    and w.get("symbol") == f.symbol):
                hit = idx
                break
        if hit is None:
            kept.append(f)
        else:
            used.add(hit)
            waived.append(f)
    stale = [w for idx, w in enumerate(waivers) if idx not in used]
    return kept, waived, stale


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--compdb", type=Path,
                    default=REPO / "build" / "compile_commands.json")
    ap.add_argument("--json", type=Path, default=None,
                    help="write a findings artifact to this path")
    ap.add_argument("--quiet", action="store_true")
    args = ap.parse_args()

    layers_cfg = tomllib.loads((HERE / "layers.toml").read_text())
    policy = tomllib.loads((HERE / "policy.toml").read_text())

    rels = discover_files(REPO, args.compdb, args.quiet)
    tus = load_tus(REPO, rels)
    findings = run_checks(tus, layers_cfg, policy)
    findings.sort(key=lambda f: (f.file, f.line, f.check, f.rule))
    kept, waived, stale = apply_waivers(findings, policy)

    for f in kept:
        print(f.format())
    for w in stale:
        print(f"scripts/analysis/policy.toml:1: [waiver/stale] waiver "
              f"({w.get('check')}, {w.get('file')}, {w.get('symbol')}) "
              "matched no finding — remove it")

    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps({
            "files_analyzed": len(tus),
            "findings": [vars(f) for f in kept],
            "waived": [vars(f) for f in waived],
            "stale_waivers": stale,
        }, indent=2) + "\n")

    if not args.quiet:
        print(f"analyze: files={len(tus)} "
              f"findings={len(kept)} waived={len(waived)} "
              f"stale_waivers={len(stale)}", file=sys.stderr)
    return 1 if kept or stale else 0


if __name__ == "__main__":
    sys.exit(main())
