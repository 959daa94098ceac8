#!/usr/bin/env python3
"""HotC repo lint: the textual half of the correctness gate.

Rules (each one enforces a convention the compiler cannot):

  raw-mutex        No std::mutex / std::condition_variable (or friends)
                   outside src/core/.  Everything else must use the ranked
                   mutex (core/ranked_mutex.hpp) so the lock-rank auditor
                   sees every acquisition.
  nodiscard-result Every function returning hotc::Result<T> is declared
                   [[nodiscard]] (the class itself is [[nodiscard]] too;
                   this keeps the contract visible at each signature).
  switch-default   switch statements over ContainerState / PolicyKind must
                   not have a default: — combined with -Wswitch-enum this
                   makes enum growth a compile error at every switch.
  include-cycle    The "..." include graph under src/ must be acyclic.
  direct-io        No direct std::cout/std::cerr/std::clog or printf-family
                   stream writes in src/.  Diagnostics go through
                   core/log.cpp (one sink, one format) and metric/trace
                   output through the obs/ exporters.  Exempt: the log
                   sink itself, the exporters, and the pre-abort paths
                   (assert, lock-rank audit, pool conservation audit)
                   that cannot rely on the logger mid-crash.  snprintf
                   writes to a caller buffer, not a stream: allowed.
  metric-naming    Instruments registered with a string-literal name
                   (.counter("...")/.gauge(...)/.histogram(...)) must use
                   the hotc_ prefix in lower_snake_case and carry
                   non-empty help text — the exporter emits names and
                   HELP verbatim, so a scrape is only as greppable as the
                   registration site.  Calls passing a variable are
                   skipped (not statically checkable).
  hot-path-alloc   No heap allocation on the pool / dispatch hot path:
                   src/pool/, src/snapshot/, the RealHotC dispatch body
                   (runtime/real_hotc.cpp) and its worker lanes
                   (runtime/thread_pool.hpp) must not construct std::string,
                   call std::to_string, build a stringstream, or reach for
                   new / make_unique / make_shared.  Hot-path identity is
                   the interned KeyId, storage is the flat slab tables,
                   and scratch text goes through core::Arena.  Cold paths
                   (construction, audits, pre-abort diagnostics) opt out
                   with a `hot-path-alloc: allow` comment on the same or
                   previous line, or an `allow-begin` / `allow-end`
                   region.  const std::string& / string_view parameters
                   don't allocate and are not flagged.
  share-pool-seam  src/share/ may observe pools only through the read-only
                   PoolView seam.  Naming a concrete pool class
                   (RuntimePool / ShardedRuntimePool) or calling a pool
                   mutation member (acquire, acquire_for_donation,
                   add_available, mark_paused, remove, select_victim,
                   count_eviction) from share/ would let the donor index
                   mutate residency behind the conservation audit — all
                   leases and returns stay in the caller (controller /
                   RealHotC), which owns the pool.

Usage:
  tools/hotc_lint.py [--root DIR]   lint DIR (default: <repo>/src)
  tools/hotc_lint.py --self-test    prove each rule fires on a seeded
                                    violation and stays quiet on clean code

Exit status: 0 clean, 1 findings (or a failed self-test).
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
import tempfile

CXX_SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}

RAW_MUTEX_RE = re.compile(
    r"std::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable)\b")

# A declaration (or definition) whose return type is Result<...>.  Names
# qualified with :: are out-of-line member definitions; the attribute
# lives on their in-class declaration, so they are exempt.
RESULT_DECL_RE = re.compile(
    r"^\s*(?:static\s+)?Result<[^;=]*?>\s+([A-Za-z_]\w*)\s*\(")

AUDITED_ENUMS = ("ContainerState::", "PolicyKind::")

# Streams and the printf family (snprintf/vsnprintf don't match: no word
# boundary splits the "sn" prefix, and the optional std:: must be followed
# by the bare name).
DIRECT_IO_RE = re.compile(
    r"std::(cout|cerr|clog)\b|\b(?:std::)?(v?f?printf|puts|fputs)\s*\(")

# Relative paths (under --root) allowed to write streams directly: the one
# log sink, the exporters, and pre-abort diagnostics that cannot trust the
# logger while the process is crashing.
DIRECT_IO_EXEMPT = {
    "core/log.cpp",
    "core/assert.hpp",
    "core/ranked_mutex.hpp",
    "pool/audit.cpp",
    "obs/export.cpp",
    "obs/export.hpp",
    "obs/journal.cpp",  # out-of-band-tick audit abort message
}

# Instrument registration with a literal name (first arg), optionally
# followed by a literal help string.  \s* spans newlines: registrations
# regularly wrap after the open paren.
METRIC_REG_RE = re.compile(
    r'(?:\.|->)\s*(counter|gauge|histogram)\s*\(\s*"([^"]*)"'
    r'(?:\s*,\s*"([^"]*)")?')

METRIC_NAME_RE = re.compile(r"hotc_[a-z0-9_]+\Z")

# Allocation spellings banned on the hot path.  `\bnew\b` doesn't match
# new_block/renewed (word chars on either side); `std::string\s+ident` and
# `std::string(`/`{` catch by-value declarations and temporaries while
# leaving const std::string& / std::string* / std::string_view alone.
HOT_PATH_ALLOC_RE = re.compile(
    r"\bnew\b|"
    r"\b(?:std::)?make_(?:unique|shared)\b|"
    r"\bstd::to_string\s*\(|"
    r"\b(?:std::)?[io]?stringstream\b|"
    r"\bstd::string\s+[A-Za-z_]|"
    r"\bstd::string\s*[({]")

# Files the hot-path-alloc rule covers: the whole pool layer, the snapshot
# tier (its take()/peek() lookups sit on the request miss path) plus the
# RealHotC dispatch implementation and the worker lanes every request
# passes through (real_hotc.hpp only declares API types).
HOT_PATH_ALLOC_SCOPE = ("pool/", "snapshot/")
HOT_PATH_ALLOC_FILES = {"runtime/real_hotc.cpp", "runtime/thread_pool.hpp"}

ALLOC_ALLOW = "hot-path-alloc: allow"

# Concrete pool types share/ must never name (PoolView is the only seam).
SHARE_POOL_TYPE_RE = re.compile(r"\b(ShardedRuntimePool|RuntimePool)\b")

# Pool mutation members share/ must never call, via . or ->.  Longest
# alternatives first so `acquire_for_donation` isn't reported as `acquire`.
SHARE_POOL_MUTATION_RE = re.compile(
    r"(?:\.|->)\s*(acquire_for_donation|add_available|count_eviction|"
    r"select_victim|mark_paused|acquire|remove)\s*\(")


def norm_rel(rel: str) -> str:
    """Normalise a path relative to --root for the scope/exempt sets above.

    Those sets are written relative to src/ ("pool/", "core/log.cpp").  When
    the lint runs with --root pointing at the repo root instead of src/,
    every rel gains a leading "src/" segment and, before this existed, the
    path-scoped rules (hot-path-alloc most damagingly) matched nothing and
    silently passed.  Stripping the one well-known prefix makes both
    invocations equivalent."""
    r = rel.replace("\\", "/")
    return r[len("src/"):] if r.startswith("src/") else r


class Finding:
    def __init__(self, rule: str, path: str, line: int, message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments(text: str, blank_strings: bool = True) -> str:
    """Blank out // and /* */ comments (and, by default, string literals),
    preserving line structure so findings keep real line numbers."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append(c + nxt if not blank_strings else "  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(c)
            else:
                out.append(c if not blank_strings else " ")
        i += 1
    return "".join(out)


def check_raw_mutex(path: pathlib.Path, rel: str, lines: list[str]) -> list:
    if norm_rel(rel).startswith("core/"):
        return []
    findings = []
    for idx, line in enumerate(lines, 1):
        m = RAW_MUTEX_RE.search(line)
        if m:
            findings.append(Finding(
                "raw-mutex", str(path), idx,
                f"std::{m.group(1)} outside core/ — use hotc::RankedMutex "
                "(core/ranked_mutex.hpp) so the lock-rank auditor sees it"))
    return findings


def check_direct_io(path: pathlib.Path, rel: str, lines: list[str]) -> list:
    if norm_rel(rel) in DIRECT_IO_EXEMPT:
        return []
    findings = []
    for idx, line in enumerate(lines, 1):
        m = DIRECT_IO_RE.search(line)
        if m:
            what = m.group(1) or m.group(2)
            findings.append(Finding(
                "direct-io", str(path), idx,
                f"direct stream write ({what}) — route diagnostics through "
                "core/log.hpp and metric/trace output through obs/ "
                "exporters"))
    return findings


def check_share_seam(path: pathlib.Path, rel: str, lines: list[str]) -> list:
    if not norm_rel(rel).startswith("share/"):
        return []
    findings = []
    for idx, line in enumerate(lines, 1):
        m = SHARE_POOL_TYPE_RE.search(line)
        if m:
            findings.append(Finding(
                "share-pool-seam", str(path), idx,
                f"share/ names concrete pool type {m.group(1)} — the donor "
                "index sees pools only through the read-only PoolView seam"))
        m = SHARE_POOL_MUTATION_RE.search(line)
        if m:
            findings.append(Finding(
                "share-pool-seam", str(path), idx,
                f"share/ calls pool mutation member {m.group(1)}() — all "
                "leases/returns go through the pool owner (controller / "
                "RealHotC), never the donor index"))
    return findings


def check_hot_path_alloc(path: pathlib.Path, rel: str, lines: list[str],
                         raw_lines: list[str]) -> list:
    """`lines` are comment-stripped (so prose mentioning `new` is inert);
    `raw_lines` keep comments because the allow markers live in them."""
    r = norm_rel(rel)
    if not (r.startswith(HOT_PATH_ALLOC_SCOPE)
            or r in HOT_PATH_ALLOC_FILES):
        return []
    findings = []
    in_allowed_region = False
    for idx, line in enumerate(lines, 1):
        raw = raw_lines[idx - 1] if idx - 1 < len(raw_lines) else ""
        if ALLOC_ALLOW + "-begin" in raw:
            in_allowed_region = True
            continue
        if ALLOC_ALLOW + "-end" in raw:
            in_allowed_region = False
            continue
        if in_allowed_region:
            continue
        m = HOT_PATH_ALLOC_RE.search(line)
        if not m:
            continue
        prev_raw = raw_lines[idx - 2] if idx >= 2 else ""
        if ALLOC_ALLOW in raw or ALLOC_ALLOW in prev_raw:
            continue
        findings.append(Finding(
            "hot-path-alloc", str(path), idx,
            f"heap allocation ({m.group(0).strip()}) on the pool/dispatch "
            "hot path — key on the interned KeyId, store in the flat slab "
            "tables, or build scratch text in core::Arena; a cold path "
            "opts out with a 'hot-path-alloc: allow' comment"))
    return findings


def check_metric_naming(path: pathlib.Path, text: str) -> list:
    """`text` must have comments stripped but string literals PRESERVED —
    the rule inspects the registered name/help literals themselves."""
    findings = []
    for m in METRIC_REG_RE.finditer(text):
        kind, name, help_text = m.group(1), m.group(2), m.group(3)
        line = text[:m.start()].count("\n") + 1
        if not METRIC_NAME_RE.fullmatch(name):
            findings.append(Finding(
                "metric-naming", str(path), line,
                f'{kind}("{name}") — instrument names must match '
                "hotc_[a-z0-9_]+ so every exported series is greppable "
                "under one prefix"))
        if help_text is not None and not help_text.strip():
            findings.append(Finding(
                "metric-naming", str(path), line,
                f'{kind}("{name}") registered with empty help text — '
                "HELP is the only documentation a scrape carries"))
    return findings


def check_nodiscard_result(path: pathlib.Path, lines: list[str]) -> list:
    findings = []
    for idx, line in enumerate(lines, 1):
        m = RESULT_DECL_RE.match(line)
        if not m:
            continue
        prev = lines[idx - 2] if idx >= 2 else ""
        if "[[nodiscard]]" in line or "[[nodiscard]]" in prev:
            continue
        if "return" in line:
            continue
        findings.append(Finding(
            "nodiscard-result", str(path), idx,
            f"Result-returning '{m.group(1)}' missing [[nodiscard]]"))
    return findings


def check_switch_default(path: pathlib.Path, text: str) -> list:
    findings = []
    for m in re.finditer(r"\bswitch\s*\(", text):
        # Find the balanced-brace switch body.
        brace = text.find("{", m.end())
        if brace < 0:
            continue
        depth, j = 0, brace
        while j < len(text):
            if text[j] == "{":
                depth += 1
            elif text[j] == "}":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        body = text[brace:j + 1]
        if not any(enum in body for enum in AUDITED_ENUMS):
            continue
        dm = re.search(r"\bdefault\s*:", body)
        if dm:
            line = text[:brace + dm.start()].count("\n") + 1
            findings.append(Finding(
                "switch-default", str(path), line,
                "default: in a switch over ContainerState/PolicyKind — "
                "list every enumerator so -Wswitch-enum guards growth"))
    return findings


def check_include_cycles(root: pathlib.Path, files: list) -> list:
    include_re = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.M)
    graph: dict[str, list[tuple[str, int]]] = {}
    rels = {str(p.relative_to(root)).replace("\\", "/") for p in files}
    for p in files:
        rel = str(p.relative_to(root)).replace("\\", "/")
        text = strip_comments(p.read_text(errors="replace"),
                              blank_strings=False)
        for m in include_re.finditer(text):
            target = m.group(1)
            if target in rels:
                line = text[:m.start()].count("\n") + 1
                graph.setdefault(rel, []).append((target, line))

    findings = []
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {rel: WHITE for rel in rels}
    stack: list[str] = []

    def dfs(node: str) -> None:
        color[node] = GRAY
        stack.append(node)
        for target, line in graph.get(node, []):
            if color.get(target, WHITE) == GRAY:
                cycle = stack[stack.index(target):] + [target]
                findings.append(Finding(
                    "include-cycle", str(root / node), line,
                    "include cycle: " + " -> ".join(cycle)))
            elif color.get(target, WHITE) == WHITE:
                dfs(target)
        stack.pop()
        color[node] = BLACK

    for rel in sorted(rels):
        if color[rel] == WHITE:
            dfs(rel)
    return findings


def lint_tree(root: pathlib.Path) -> list:
    files = sorted(p for p in root.rglob("*")
                   if p.suffix in CXX_SUFFIXES and p.is_file())
    findings = []
    for p in files:
        rel = str(p.relative_to(root)).replace("\\", "/")
        raw = p.read_text(errors="replace")
        text = strip_comments(raw)
        lines = text.split("\n")
        raw_lines = raw.split("\n")
        findings.extend(check_raw_mutex(p, rel, lines))
        findings.extend(check_direct_io(p, rel, lines))
        findings.extend(check_share_seam(p, rel, lines))
        findings.extend(check_hot_path_alloc(p, rel, lines, raw_lines))
        findings.extend(check_nodiscard_result(p, lines))
        findings.extend(check_switch_default(p, text))
        findings.extend(check_metric_naming(
            p, strip_comments(raw, blank_strings=False)))
    findings.extend(check_include_cycles(root, files))
    return findings


# --- self-test ------------------------------------------------------------

SELF_TEST_CASES = {
    # rule -> (relative path, contents, should_fire)
    "raw-mutex fires": (
        "pool/bad_mutex.hpp",
        "#pragma once\n#include <mutex>\nstd::mutex bad;\n",
        "raw-mutex"),
    "raw-mutex exempts core": (
        "core/ok_mutex.hpp",
        "#pragma once\n#include <mutex>\nstd::mutex fine;\n",
        None),
    "raw-mutex ignores comments": (
        "pool/ok_comment.hpp",
        "#pragma once\n// the seed used one std::mutex around one map\n",
        None),
    "raw-mutex allows condition_variable_any": (
        "runtime/ok_cv.hpp",
        "#pragma once\nstd::condition_variable_any cv;\n",
        None),
    "nodiscard fires": (
        "spec/bad_result.hpp",
        "#pragma once\nResult<int> parse_thing(int x);\n",
        "nodiscard-result"),
    "nodiscard satisfied same line": (
        "spec/ok_result.hpp",
        "#pragma once\n[[nodiscard]] Result<int> parse_thing(int x);\n",
        None),
    "nodiscard satisfied previous line": (
        "spec/ok_result2.hpp",
        "#pragma once\n[[nodiscard]]\nResult<int> parse_thing(int x);\n",
        None),
    "nodiscard exempts member definitions": (
        "spec/ok_result3.cpp",
        "Result<int> Thing::parse(int x) { return x; }\n",
        None),
    "switch-default fires": (
        "engine/bad_switch.cpp",
        "int f(ContainerState s) {\n  switch (s) {\n"
        "    case ContainerState::kIdle: return 1;\n"
        "    default: return 0;\n  }\n}\n",
        "switch-default"),
    "switch-default ignores other enums": (
        "engine/ok_switch.cpp",
        "int f(Other o) {\n  switch (o) {\n"
        "    case Other::kA: return 1;\n    default: return 0;\n  }\n}\n",
        None),
    "include-cycle fires": (
        "a/one.hpp",
        '#pragma once\n#include "b/two.hpp"\n',
        "include-cycle"),
    "direct-io fires on cout": (
        "pool/bad_cout.cpp",
        "#include <iostream>\nvoid f() { std::cout << 1; }\n",
        "direct-io"),
    "direct-io fires on fprintf": (
        "engine/bad_fprintf.cpp",
        "#include <cstdio>\nvoid f() { std::fprintf(stderr, \"x\"); }\n",
        "direct-io"),
    "direct-io fires on bare printf": (
        "faas/bad_printf.cpp",
        "#include <cstdio>\nvoid f() { printf(\"x\"); }\n",
        "direct-io"),
    "direct-io exempts the log sink": (
        "core/log.cpp",
        "#include <cstdio>\nvoid f() { std::fprintf(stderr, \"x\"); }\n",
        None),
    "direct-io exempts exporters": (
        "obs/export.cpp",
        "#include <cstdio>\nvoid f() { std::printf(\"x\"); }\n",
        None),
    "direct-io allows snprintf": (
        "obs/ok_snprintf.cpp",
        "#include <cstdio>\nvoid f(char* b) "
        "{ std::snprintf(b, 4, \"x\"); }\n",
        None),
    "direct-io ignores comments": (
        "pool/ok_io_comment.cpp",
        "// printed with std::cout in the seed; now routed via log\n",
        None),
    "metric-naming fires on missing prefix": (
        "pool/bad_metric.cpp",
        'void f(R& r) { r.counter("requests_total", "Requests").inc(); }\n',
        "metric-naming"),
    "metric-naming fires on uppercase": (
        "obs/bad_metric_case.cpp",
        'void f(R& r) { r.gauge("hotc_Live_Containers", "live"); }\n',
        "metric-naming"),
    "metric-naming fires on empty help": (
        "hotc/bad_metric_help.cpp",
        'void f(R& r) { r.histogram("hotc_wait_ms", ""); }\n',
        "metric-naming"),
    "metric-naming ok on compliant registration": (
        "hotc/ok_metric.cpp",
        'void f(R& r) {\n  r.counter(\n      "hotc_requests_total",\n'
        '      "Requests handled").inc();\n}\n',
        None),
    "metric-naming skips variable names": (
        "obs/ok_metric_var.cpp",
        "void f(R& r, const std::string& n) { r.counter(n, n); }\n",
        None),
    "hot-path-alloc fires on new": (
        "pool/bad_new.cpp",
        "void f() { auto* p = new int(3); (void)p; }\n",
        "hot-path-alloc"),
    "hot-path-alloc fires on make_unique": (
        "pool/bad_make_unique.cpp",
        "#include <memory>\nauto p = std::make_unique<int>(3);\n",
        "hot-path-alloc"),
    "hot-path-alloc fires on std::string construction": (
        "pool/bad_string.cpp",
        "#include <string>\nvoid f() { std::string label = \"x\"; }\n",
        "hot-path-alloc"),
    "hot-path-alloc fires on to_string in dispatch": (
        "runtime/real_hotc.cpp",
        "#include <string>\nauto s = std::to_string(42);\n",
        "hot-path-alloc"),
    "hot-path-alloc fires on stringstream": (
        "pool/bad_stream.cpp",
        "#include <sstream>\nstd::ostringstream oss;\n",
        "hot-path-alloc"),
    "hot-path-alloc exempts out-of-scope files": (
        "engine/ok_alloc.cpp",
        "#include <string>\nauto s = std::to_string(42);\n",
        None),
    "hot-path-alloc fires in the worker lanes": (
        "runtime/thread_pool.hpp",
        "#pragma once\n#include <memory>\n"
        "template <typename T> void post(T& t) "
        "{ auto s = std::make_unique<T>(t); }\n",
        "hot-path-alloc"),
    "hot-path-alloc exempts the dispatch header": (
        "runtime/real_hotc.hpp",
        "#pragma once\n#include <string>\nstruct R "
        "{ std::string payload; };\n",
        None),
    "hot-path-alloc allows const-ref and view params": (
        "pool/ok_ref.cpp",
        "#include <string>\n"
        "void f(const std::string& a, std::string_view b);\n",
        None),
    "hot-path-alloc ignores new_block identifiers": (
        "pool/ok_new_block.cpp",
        "void f() { auto* b = new_block(); (void)b; }\n",
        None),
    "hot-path-alloc honours same-line allow": (
        "pool/ok_allow_same.cpp",
        "void f() {\n"
        "  auto* p = new int(3);  // hot-path-alloc: allow (cold ctor)\n"
        "  (void)p;\n}\n",
        None),
    "hot-path-alloc honours previous-line allow": (
        "pool/ok_allow_prev.cpp",
        "void f() {\n  // hot-path-alloc: allow (cold ctor)\n"
        "  auto* p = new int(3);\n  (void)p;\n}\n",
        None),
    "hot-path-alloc honours allow regions": (
        "pool/ok_allow_region.cpp",
        "#include <string>\n"
        "// hot-path-alloc: allow-begin — pre-abort audit text\n"
        "void f() { std::string msg = std::to_string(1); }\n"
        "// hot-path-alloc: allow-end\n"
        "void g() { int x = 0; (void)x; }\n",
        None),
    "hot-path-alloc scope is repo-root-relative": (
        "src/pool/bad_rooted.cpp",
        "void f() { auto* p = new int(3); (void)p; }\n",
        "hot-path-alloc"),
    "hot-path-alloc repo-root dispatch file": (
        "src/runtime/real_hotc.cpp",
        "#include <string>\nauto s = std::to_string(42);\n",
        "hot-path-alloc"),
    "hot-path-alloc repo-root out-of-scope stays exempt": (
        "src/engine/ok_rooted.cpp",
        "#include <string>\nauto s = std::to_string(42);\n",
        None),
    "direct-io exemption is repo-root-relative": (
        "src/core/log.cpp",
        "#include <cstdio>\nvoid f() { std::fprintf(stderr, \"x\"); }\n",
        None),
    "share-seam fires on pool mutation": (
        "share/bad_mutate.cpp",
        "void f(P& pool, E e, T now) { pool.add_available(e, now); }\n",
        "share-pool-seam"),
    "share-seam fires on concrete pool type": (
        "share/bad_type.hpp",
        "#pragma once\nclass ShardedRuntimePool;\n",
        "share-pool-seam"),
    "share-seam exempts pool owners": (
        "hotc/ok_owner.cpp",
        "void f(P& pool, E e, T now) { pool.add_available(e, now); }\n",
        None),
    "share-seam allows PoolView reads": (
        "share/ok_view.cpp",
        "bool idle(const V& view, const K& k) "
        "{ return view.num_available(k) > 0; }\n",
        None),
    "hot-path-alloc fires in the snapshot tier": (
        "snapshot/bad_take.cpp",
        "#include <string>\nauto s = std::to_string(42);\n",
        "hot-path-alloc"),
    "hot-path-alloc snapshot allow survives": (
        "snapshot/ok_growth.cpp",
        "void f() {\n"
        "  // hot-path-alloc: allow — table growth, once per distinct key\n"
        "  auto* p = new int(3);\n  (void)p;\n}\n",
        None),
    "metric-naming fires on unprefixed snapshot series": (
        "snapshot/bad_metric.cpp",
        'void f(R& r) { r.gauge("snapshot_store_bytes", "Disk"); }\n',
        "metric-naming"),
    "metric-naming ok on hotc_snapshot_ series": (
        "snapshot/ok_metric.cpp",
        'void f(R& r) {\n  r.counter(\n      "hotc_snapshot_demotes_total",\n'
        '      "Runtimes demoted into the checkpoint store").inc();\n}\n',
        None),
}


def self_test() -> int:
    failures = 0
    for name, (rel, contents, expect_rule) in SELF_TEST_CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            root = pathlib.Path(tmp)
            target = root / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(contents)
            if expect_rule == "include-cycle":
                back = root / "b/two.hpp"
                back.parent.mkdir(parents=True, exist_ok=True)
                back.write_text('#pragma once\n#include "a/one.hpp"\n')
            found = {f.rule for f in lint_tree(root)}
            ok = (expect_rule in found) if expect_rule else not found
            print(f"  {'ok' if ok else 'FAIL'}: {name}"
                  + ("" if ok else f" (findings: {sorted(found)})"))
            failures += 0 if ok else 1
    if failures:
        print(f"self-test: {failures} case(s) FAILED")
        return 1
    print(f"self-test: all {len(SELF_TEST_CASES)} cases passed")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=pathlib.Path, default=None,
                        help="tree to lint (default: <repo>/src)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify each rule fires on seeded violations")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    root = args.root
    if root is None:
        root = pathlib.Path(__file__).resolve().parent.parent / "src"
    if not root.is_dir():
        print(f"hotc_lint: no such directory: {root}", file=sys.stderr)
        return 2

    findings = lint_tree(root)
    for f in findings:
        print(f)
    if findings:
        print(f"hotc_lint: {len(findings)} finding(s)")
        return 1
    print("hotc_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
