"""A3: layering enforcement from the real include graph.

Reads the declared DAG (layers.toml), assigns every analyzed file to a
layer (explicit `files` lists win over `dirs` prefixes, in declaration
order), and walks the actual #include edges:

  banned-include    an include path the layer explicitly bans
  facade-violation  an include into a layer the includer may only reach
                    through an enumerated facade (restrict.<layer>.only)
  layer-violation   any other include edge the DAG does not permit
  forbidden-token   an identifier the layer bans outright (e.g. serve/
                    naming the raw Machine) — token-accurate, so comments
                    and strings can no longer false-positive
  include-cycle     an include edge inside a strongly-connected component
                    of the project include graph
  unused-include    IWYU-lite: a project include none of whose provided
                    top-level names appears in the including file

unused-include is deliberately conservative: umbrella headers are
skipped (both directions, via [iwyu]), a file's own paired header is
always considered used, and a header whose provided names the frontend
cannot model at all is skipped rather than guessed at.
"""

from __future__ import annotations

import posixpath

from model import Finding, Include, TU

CHECK = "A3"


def run(tus: dict[str, TU], layers_cfg: dict) -> list[Finding]:
    layers: list[dict] = layers_cfg.get("layer", [])
    iwyu = layers_cfg.get("iwyu", {})
    if not layers:
        return []
    findings: list[Finding] = []
    project = set(tus)
    layer_by_name = {ly["name"]: ly for ly in layers}

    assignment = {rel: _layer_of(rel, layers) for rel in tus}
    resolved: dict[str, list[tuple[Include, str]]] = {}
    for rel, tu in tus.items():
        pairs = []
        for inc in tu.includes:
            if inc.is_system:
                continue
            target = _resolve_include(rel, inc.path, project)
            if target is not None:
                pairs.append((inc, target))
        resolved[rel] = pairs

    for rel in sorted(tus):
        lname = assignment[rel]
        if lname is None:
            continue
        layer = layer_by_name[lname]
        allow = set(layer.get("allow", []))
        restrict = layer.get("restrict", {})
        for inc, target in resolved[rel]:
            tname = assignment[target]
            if tname is None:
                continue
            tr = restrict.get(tname, {})
            if inc.path in tr.get("ban", ()):
                findings.append(Finding(
                    check=CHECK, rule="banned-include", file=rel,
                    line=inc.line,
                    message=f'layer {lname} bans "{inc.path}" — '
                            "see scripts/analysis/layers.toml",
                    symbol=f"include:{inc.path}"))
            elif tname != lname and tname not in allow and "*" not in allow:
                findings.append(Finding(
                    check=CHECK, rule="layer-violation", file=rel,
                    line=inc.line,
                    message=f'layer {lname} may not include layer {tname} '
                            f'("{inc.path}") — declared DAG in '
                            "scripts/analysis/layers.toml",
                    symbol=f"include:{inc.path}"))
            elif "only" in tr and inc.path not in tr["only"]:
                findings.append(Finding(
                    check=CHECK, rule="facade-violation", file=rel,
                    line=inc.line,
                    message=f'layer {lname} reaches {tname} only through '
                            f'its facade, not "{inc.path}" — allowed: '
                            f'{", ".join(sorted(tr["only"]))}',
                    symbol=f"include:{inc.path}"))
        for token in layer.get("forbid_tokens", ()):
            tu = tus[rel]
            if token in tu.identifiers:
                findings.append(Finding(
                    check=CHECK, rule="forbidden-token", file=rel,
                    line=tu.identifiers[token],
                    message=f"layer {lname} must not name {token} — "
                            "consume the facade instead "
                            "(scripts/analysis/layers.toml)",
                    symbol=f"token:{token}"))

    findings += _cycle_findings(resolved)
    findings += _unused_includes(tus, resolved, iwyu)
    return findings


def _layer_of(rel: str, layers: list[dict]) -> str | None:
    for ly in layers:
        if rel in ly.get("files", ()):
            return ly["name"]
    for ly in layers:
        for d in ly.get("dirs", ()):
            d = d.rstrip("/")
            if rel == d or rel.startswith(d + "/"):
                return ly["name"]
    return None


def _resolve_include(includer_rel: str, inc_path: str,
                     project: set[str]) -> str | None:
    for cand in (f"src/{inc_path}", inc_path,
                 posixpath.normpath(posixpath.join(
                     posixpath.dirname(includer_rel), inc_path))):
        if cand in project:
            return cand
    return None


def _cycle_findings(
        resolved: dict[str, list[tuple[Include, str]]]) -> list[Finding]:
    graph = {rel: {t for _i, t in pairs} for rel, pairs in resolved.items()}
    comp: dict[str, int] = {}
    for cid, scc in enumerate(_sccs(graph)):
        for node in scc:
            comp[node] = cid
    sizes: dict[int, int] = {}
    for node, cid in comp.items():
        sizes[cid] = sizes.get(cid, 0) + 1
    findings = []
    for rel in sorted(resolved):
        for inc, target in resolved[rel]:
            same = comp.get(rel) == comp.get(target)
            if (same and sizes.get(comp[rel], 0) > 1) or target == rel:
                findings.append(Finding(
                    check=CHECK, rule="include-cycle", file=rel,
                    line=inc.line,
                    message=f'"{inc.path}" closes an include cycle with '
                            f"{target} — break the cycle with a forward "
                            "declaration or an interface split",
                    symbol=f"cycle:{inc.path}"))
    return findings


def _sccs(graph: dict[str, set[str]]) -> list[list[str]]:
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    out: list[list[str]] = []
    counter = [0]
    for root in sorted(graph):
        if root in index:
            continue
        work = [(root, iter(sorted(graph.get(root, ()))))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in graph:
                    continue
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(graph.get(w, ())))))
                    advanced = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == node:
                        break
                out.append(scc)
    return out


def _unused_includes(tus: dict[str, TU],
                     resolved: dict[str, list[tuple[Include, str]]],
                     iwyu: dict) -> list[Finding]:
    skip_files = set(iwyu.get("skip_files", ()))
    skip_includes = set(iwyu.get("skip_includes", ()))

    # Provided names per file, closed over `IWYU pragma: export` edges: a
    # facade header that exports an include provides that header's names
    # as its own API.
    provided_by: dict[str, set[str]] = {}
    for rel, tu in tus.items():
        provided_by[rel] = (tu.toplevel_names | set(tu.classes)
                            | set(tu.aliases) | set(tu.defines))
    changed = True
    while changed:
        changed = False
        for rel in resolved:
            for inc, target in resolved[rel]:
                if inc.exported:
                    extra = provided_by[target] - provided_by[rel]
                    if extra:
                        provided_by[rel] |= extra
                        changed = True

    findings = []
    for rel in sorted(resolved):
        if rel in skip_files:
            continue
        tu = tus[rel]
        used_names = set(tu.identifiers)
        for inc, target in resolved[rel]:
            if target == rel or target in skip_files \
                    or inc.path in skip_includes or inc.exported:
                continue
            if posixpath.splitext(posixpath.basename(rel))[0] == \
                    posixpath.splitext(posixpath.basename(target))[0]:
                continue  # own header pair (foo.cpp -> foo.hpp)
            provided = provided_by[target]
            if not provided:
                continue  # header the frontend cannot model: don't guess
            if provided & used_names:
                continue
            findings.append(Finding(
                check=CHECK, rule="unused-include", file=rel, line=inc.line,
                message=f'"{inc.path}" provides '
                        f"{len(provided)} name(s), none used in {rel} — "
                        "drop the include (or waive with a justification "
                        "if it is load-bearing transitively)",
                symbol=f"unused-include:{inc.path}"))
    return findings
