#!/usr/bin/env python3
"""Analyzer selftest (registered as the `analysis_selftest` ctest).

Runs every check family over the seeded-violation fixture corpus
(fixtures/<group>/) and asserts the findings match the `SEED(check/rule)`
markers *exactly* — every seeded violation detected on its marked line,
and nothing unmarked flagged. A silently-disabled or over-firing check
fails here, not in review. Also unit-tests the waiver machinery (match,
stale detection) since the real tree intentionally carries no waivers to
exercise it.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tomllib  # noqa: E402

import frontend_lex  # noqa: E402
from analyze import apply_waivers, run_checks  # noqa: E402
from model import Finding  # noqa: E402

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
SEED = re.compile(r"SEED\((A\d)/([a-z0-9-]+)\)")
CPP_SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}


def fixture_files(group: Path) -> list[Path]:
    return sorted(p for p in group.rglob("*")
                  if p.suffix in CPP_SUFFIXES and p.is_file())


def expected_markers(group: Path) -> set[tuple[str, str, str, int]]:
    exp = set()
    for p in fixture_files(group):
        rel = p.relative_to(group).as_posix()
        for lineno, line in enumerate(
                p.read_text(encoding="utf-8").splitlines(), start=1):
            for m in SEED.finditer(line):
                exp.add((m.group(1), m.group(2), rel, lineno))
    return exp


def run_group(group: Path) -> tuple[bool, list[str]]:
    layers_path = group / "layers.toml"
    policy_path = group / "policy.toml"
    layers_cfg = tomllib.loads(layers_path.read_text()) \
        if layers_path.is_file() else {}
    policy = tomllib.loads(policy_path.read_text()) \
        if policy_path.is_file() else {}
    tus = {}
    for p in fixture_files(group):
        rel = p.relative_to(group).as_posix()
        tus[rel] = frontend_lex.parse_file(p, rel)
    findings = run_checks(tus, layers_cfg, policy)
    got = {(f.check, f.rule, f.file, f.line) for f in findings}
    exp = expected_markers(group)
    problems = []
    for item in sorted(exp - got):
        problems.append(f"  MISSED  {group.name}: expected "
                        f"[{item[0]}/{item[1]}] at {item[2]}:{item[3]}")
    for item in sorted(got - exp):
        problems.append(f"  SPURIOUS {group.name}: unexpected "
                        f"[{item[0]}/{item[1]}] at {item[2]}:{item[3]}")
    return not problems, problems


def waiver_unit_test() -> tuple[bool, list[str]]:
    findings = [
        Finding(check="A3", rule="unused-include", file="src/a.hpp",
                line=3, message="m", symbol="unused-include:b.hpp"),
        Finding(check="A4", rule="unordered-iteration", file="src/c.cpp",
                line=9, message="m", symbol="unordered-iter:delta_"),
    ]
    policy = {"waiver": [
        {"check": "A3", "file": "src/a.hpp",
         "symbol": "unused-include:b.hpp", "reason": "test"},
        {"check": "A5", "file": "src/never.cpp",
         "symbol": "clock:steady_clock", "reason": "stale"},
    ]}
    kept, waived, stale = apply_waivers(findings, policy)
    problems = []
    if [f.check for f in kept] != ["A4"]:
        problems.append("  waiver: matching finding was not suppressed")
    if [f.check for f in waived] != ["A3"]:
        problems.append("  waiver: suppressed finding not reported as waived")
    if len(stale) != 1 or stale[0]["file"] != "src/never.cpp":
        problems.append("  waiver: stale entry not detected")
    return not problems, problems


def main() -> int:
    groups = sorted(p for p in FIXTURES.iterdir() if p.is_dir())
    if not groups:
        print("analysis_selftest: no fixture groups found", file=sys.stderr)
        return 1

    failures: list[str] = []
    checks_seen: set[str] = set()
    for group in groups:
        ok, problems = run_group(group)
        exp = expected_markers(group)
        checks_seen.update(item[0] for item in exp)
        status = "ok" if ok else "FAIL"
        print(f"analysis_selftest {group.name}: "
              f"{len(exp)} seeded finding(s) {status}")
        failures.extend(problems)

    ok, problems = waiver_unit_test()
    print(f"analysis_selftest waiver machinery: {'ok' if ok else 'FAIL'}")
    failures.extend(problems)

    missing_families = {"A1", "A2", "A3", "A4", "A5"} - checks_seen
    if missing_families:
        failures.append("  corpus gap: no seeded fixture exercises "
                        + ", ".join(sorted(missing_families)))

    for line in failures:
        print(line)
    print(f"analysis_selftest: {len(groups)} group(s), "
          f"{len(failures)} problem(s)", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
