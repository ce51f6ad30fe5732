#!/usr/bin/env python3
"""saath_lint: repo-specific static invariant checks for the Saath tree.

Machine-enforces the prose invariants ROADMAP.md's design notes state but
the compiler cannot see:

  lane-access           FlowPool's SoA lane pointers (rate, finished, ...)
                        are an audited read-only fast path. Reads outside
                        src/coflow/ are allowed only in the allowlisted
                        dense-walk consumers; writes are allowed only in
                        src/coflow/ itself (lanes alias FlowState fields —
                        a stray write desyncs the AoS view and the replay
                        digests with it).
  scheduler-retention   Scheduler subclasses must not retain CoflowState*/
                        FlowState* data members: the engine's streaming
                        reclamation frees finished CoflowStates right after
                        the round's result-sink flush, so a pointer kept
                        across rounds dangles. Audited per-round scratch
                        (cleared before reuse) is allowlisted by name.
  hot-noalloc           Functions annotated SAATH_HOT_NOALLOC (see
                        src/common/expect.h) are steady-state hot paths
                        whose allocations were deliberately hoisted into
                        reused member scratch. `new`/make_unique/malloc and
                        growth of function-local std:: containers without a
                        same-body reserve() are flagged. The runtime
                        complement is tests/alloc_steady_test.cc; this is
                        the static half that names the offending line.
  digest-float          src/coflow/ + src/fabric/ compute the quantities
                        the replay digests are pinned on. `float` (storage
                        or narrowing) and explicit fma() both produce
                        results that differ across toolchains/arch levels,
                        which forks the digest — double-only arithmetic
                        with -ffp-contract=off (set in CMakeLists.txt) is
                        the contract.
  service-detach        src/service/ runs on threads the engine knows
                        nothing about: the daemon's reader threads and the
                        result-sink writer see engine output only as value
                        types (CoflowRecord, WorkloadEvent, SimResult).
                        Any CoflowState*/FlowState* in service code is a
                        cross-thread dangle waiting to happen — the engine
                        thread owns those objects and reclaims finished
                        ones right after the round's sink flush.
  flag-matrix           Any new bool incremental_* config knob must be
                        exercised by at least one test under tests/ — the
                        bit-identity matrix is what keeps a fast path
                        honest against the path it replaces. Neither the
                        engine nor the schedulers carry such a flag today:
                        their oracle is the reference model under
                        tests/reference/ (reference Saath and Aalo, and
                        the reference engine).

Design: the default backend is a self-contained lexer (comment/string
stripping + brace matching) so the lint runs anywhere Python does — the CI
containers and dev images do not all ship clang. When libclang Python
bindings ARE importable, `--ast auto` (default) additionally cross-checks
lane-access receivers by real type; `--ast require` fails if the bindings
are missing; `--ast off` never tries. The lexer findings are authoritative
either way: the AST layer can only add findings, never mask one.

Suppression: append `// SAATH_LINT_OK(check-id): reason` on the offending
line (or the line directly above). The reason is mandatory; a reasonless
suppression is itself reported (bad-suppression).

Exit codes: 0 clean, 1 findings, 2 usage/environment error.
"""

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field

CHECK_IDS = (
    "lane-access",
    "scheduler-retention",
    "service-detach",
    "hot-noalloc",
    "digest-float",
    "flag-matrix",
)

# FlowPool's public SoA lanes (src/coflow/flow_pool.h). Accessed as
# `pool.rate[i]` / `pool->rate[i]`; plain scalar fields named src/dst
# elsewhere never take a subscript, so the trailing `[` disambiguates.
LANES = (
    "size_bytes",
    "sent_base",
    "rate",
    "anchor",
    "predicted_finish",
    "rate_version",
    "src",
    "dst",
    "finished",
)

# Audited dense-walk lane READERS outside src/coflow/ (ROADMAP: FlowPool
# handle/lane/index invariants). Writes are not allowlisted anywhere
# outside src/coflow/.
LANE_READ_ALLOWLIST = {
    "src/sched/saath.cc",
    "src/sched/alloc.cc",
    "src/sched/order_index.cc",
}

# Audited per-round scratch members that hold CoflowState*/FlowState*
# inside Scheduler subclasses: rebuilt or cleared every schedule() round,
# never read across the engine's reclamation point. Keyed by file so a new
# scheduler cannot inherit an exemption by reusing a name.
RETENTION_ALLOWLIST = {
    "src/sched/saath.h": {
        "candidates_", "touch_only_", "entered_", "prime_entries_",
        "order_scratch_", "missed_scratch_", "recross_",
        "sync_active_data_",
    },
    "src/sched/aalo.h": {"sort_scratch_"},
    "src/sched/uc_tcp.h": {"flows_", "owners_"},
}

ALLOC_CALL_RE = re.compile(
    r"\bnew\b(?!\s*\()"          # new T / new T[n]; `new (addr) T` too —
    r"|\bnew\s*\("               # placement new is still a red flag here
    r"|\bmake_unique\s*<"
    r"|\bmake_shared\s*<"
    r"|\bmalloc\s*\(|\bcalloc\s*\(|\brealloc\s*\(")

GROWTH_METHODS = ("push_back", "emplace_back", "emplace", "insert",
                  "resize", "append")

CONTAINER_DECL_RE = re.compile(
    r"\b(?:std\s*::\s*)?"
    r"(?:vector|deque|list|string|basic_string|map|multimap|set|multiset|"
    r"unordered_map|unordered_set)\s*<[^;(){}]*>\s*(&?)\s*(\w+)\s*[;=({]")

LANE_ACCESS_RE = re.compile(
    r"\b(\w+(?:\(\))?)\s*(?:\.|->)\s*(" + "|".join(LANES) + r")\s*\[")

FLOWPOOL_DECL_RE = re.compile(r"\bFlowPool\s*[&*]?\s*(\w+)\b")

SUPPRESS_RE = re.compile(r"SAATH_LINT_OK\(([\w-]+)\)\s*(?::\s*(.*?))?\s*(?:\*/|$)")
LINT_AS_RE = re.compile(r"//\s*LINT-AS:\s*(\S+)")
EXPECT_RE = re.compile(r"//\s*EXPECT-LINT:\s*([\w-]+(?:\s*,\s*[\w-]+)*)")


@dataclass
class Finding:
    path: str
    line: int
    check: str
    message: str

    def render(self):
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"


@dataclass
class LintFile:
    path: str          # repo-relative posix path (fixtures: LINT-AS path)
    raw: str
    code: str = ""     # comments/strings blanked, newlines preserved
    # line -> set of suppressed check ids (or {"*"}): line itself + next
    suppressions: dict = field(default_factory=dict)
    bad_suppressions: list = field(default_factory=list)


def strip_comments_and_strings(text):
    """Blanks comments, string and char literals, preserving newlines and
    column positions so regex line/offset math stays true to the source."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
        elif c == "/" and nxt == "*":
            out.append("  ")
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n
                                 and text[i + 1] == "/"):
                out.append(text[i] if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
        elif c == '"':
            # Raw strings R"delim(...)delim" can span lines.
            if out and out[-1] == "R":
                m = re.match(r'R"([^(\s]*)\(', text[i - 1:])
                if m:
                    end = text.find(f'){m.group(1)}"', i)
                    end = n if end < 0 else end + len(m.group(1)) + 2
                    while i < end and i < n:
                        out.append(text[i] if text[i] == "\n" else " ")
                        i += 1
                    continue
            out.append('"')
            i += 1
            while i < n and text[i] != '"':
                if text[i] == "\\":
                    out.append(" ")
                    i += 1
                    if i < n:
                        out.append(" " if text[i] != "\n" else "\n")
                        i += 1
                    continue
                out.append(" " if text[i] != "\n" else "\n")
                i += 1
            if i < n:
                out.append('"')
                i += 1
        elif c == "'":
            out.append("'")
            i += 1
            while i < n and text[i] != "'":
                if text[i] == "\\":
                    out.append("  ")
                    i += 2
                    continue
                out.append(" ")
                i += 1
            if i < n:
                out.append("'")
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def load_file(path, disk_path):
    with open(disk_path, encoding="utf-8", errors="replace") as fh:
        raw = fh.read()
    lf = LintFile(path=path, raw=raw)
    lf.code = strip_comments_and_strings(raw)
    for lineno, line in enumerate(raw.splitlines(), 1):
        if "SAATH_LINT_OK(" not in line:
            continue  # prose mention, not a marker (markers take a check id)
        m = SUPPRESS_RE.search(line)
        if not m:
            lf.bad_suppressions.append(
                (lineno, "malformed SAATH_LINT_OK marker"))
            continue
        check, reason = m.group(1), (m.group(2) or "").strip()
        if check not in CHECK_IDS and check != "*":
            lf.bad_suppressions.append(
                (lineno, f"unknown check id '{check}'"))
            continue
        if not reason:
            lf.bad_suppressions.append(
                (lineno, f"SAATH_LINT_OK({check}) without a reason"))
            continue
        for covered in (lineno, lineno + 1):
            lf.suppressions.setdefault(covered, set()).add(check)
    return lf


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def match_forward(code, start, open_ch, close_ch):
    """Index just past the close_ch matching the open_ch at `start`."""
    depth = 0
    for i in range(start, len(code)):
        if code[i] == open_ch:
            depth += 1
        elif code[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return len(code)


# --------------------------------------------------------------- lane-access

def check_lane_access(lf, findings):
    if lf.path.startswith(("tests/", "tools/")):
        return
    in_coflow = lf.path.startswith("src/coflow/")
    if in_coflow:
        return  # lanes live here; reads and writes are the point
    pool_vars = set(FLOWPOOL_DECL_RE.findall(lf.code))
    for m in LANE_ACCESS_RE.finditer(lf.code):
        recv, lane = m.group(1), m.group(2)
        base = recv[:-2] if recv.endswith("()") else recv
        if base not in pool_vars and "pool" not in base.lower():
            continue  # receiver is provably not a FlowPool handle-alias
        lineno = line_of(lf.code, m.start())
        # Classify read vs write: find the subscript's closing bracket and
        # look at what follows (or at a preceding ++/--).
        close = match_forward(lf.code, m.end() - 1, "[", "]")
        tail = lf.code[close:close + 3].lstrip()
        pre = lf.code[max(0, m.start() - 2):m.start()]
        is_write = (pre in ("++", "--")
                    or tail.startswith(("++", "--", "+=", "-=", "*=", "/="))
                    or (tail.startswith("=") and not tail.startswith("==")))
        if is_write:
            findings.append(Finding(
                lf.path, lineno, "lane-access",
                f"write through FlowPool lane '{lane}' outside src/coflow/ "
                "— lanes alias FlowState; mutate via the FlowPool API"))
        elif lf.path not in LANE_READ_ALLOWLIST:
            findings.append(Finding(
                lf.path, lineno, "lane-access",
                f"direct FlowPool lane read '{recv}.{lane}[...]' outside "
                "the audited dense-walk consumers "
                f"({', '.join(sorted(LANE_READ_ALLOWLIST))}) — use the "
                "FlowState accessors or get the file audited and "
                "allowlisted in tools/lint/saath_lint.py"))


# ------------------------------------------------------- scheduler-retention

SUBCLASS_RE = re.compile(
    r"\bclass\s+(\w+)\s*(?:final\s*)?:\s*public\s+(\w*Scheduler)\b[^{;]*\{")


def member_statements(code, body_start):
    """Yields (stmt_text, line) for member-level declarations inside a
    class body opening at `body_start` (index of '{'), recursing into
    nested struct/class bodies and skipping method bodies/initializers."""
    i = body_start + 1
    end = match_forward(code, body_start, "{", "}") - 1
    stmt_begin = i
    stmt = []
    while i < end:
        c = code[i]
        if c == "{":
            head = "".join(stmt).lstrip()
            if re.match(r"(?:struct|class|union|enum)\b", head):
                yield from member_statements(code, i)
            i = match_forward(code, i, "{", "}")
            stmt = []
            stmt_begin = i
            # function bodies are not ';'-terminated: swallow one if present
            if i < end and code[i] == ";":
                i += 1
                stmt_begin = i
            continue
        if c == ";":
            text = "".join(stmt).strip()
            if text:
                yield text, line_of(code, stmt_begin)
            i += 1
            stmt = []
            stmt_begin = i
            continue
        if c == "(":  # skip parameter lists wholesale (decl stays one stmt)
            j = match_forward(code, i, "(", ")")
            stmt.append(code[i:j])
            i = j
            continue
        if c == ":" and "".join(stmt).strip() in ("public", "private",
                                                  "protected"):
            i += 1  # access specifier: not part of the next declaration
            stmt = []
            stmt_begin = i
            continue
        if not stmt:
            if c.isspace():
                i += 1
                continue
            stmt_begin = i
        stmt.append(c)
        i += 1


def check_scheduler_retention(lf, findings):
    if lf.path.startswith(("tests/", "tools/")):
        return
    allow = RETENTION_ALLOWLIST.get(lf.path, set())
    for m in SUBCLASS_RE.finditer(lf.code):
        cls = m.group(1)
        body_open = m.end() - 1  # SUBCLASS_RE ends at the class body '{'
        for stmt, lineno in member_statements(lf.code, body_open):
            if "(" in stmt:
                continue  # function declaration, not a data member
            compact = re.sub(r"\s+", "", stmt)
            if "CoflowState*" not in compact and "FlowState*" not in compact:
                continue
            name_m = re.search(r"(\w+)\s*(?:=[^=].*)?$", stmt)
            name = name_m.group(1) if name_m else "?"
            if name == "nullptr":
                nm = re.search(r"(\w+)\s*=", stmt)
                name = nm.group(1) if nm else name
            if name in allow:
                continue
            findings.append(Finding(
                lf.path, lineno, "scheduler-retention",
                f"Scheduler subclass {cls} holds raw state pointer member "
                f"'{name}' — the engine reclaims finished CoflowStates "
                "after each round (ROADMAP: ResultSink reclamation "
                "contract); keep per-round scratch only, and allowlist it "
                "with an audit note in tools/lint/saath_lint.py"))


# ------------------------------------------------------------ service-detach

STATE_PTR_RE = re.compile(
    r"\b(CoflowState|FlowState)\b(?:\s*\bconst\b)?\s*([*&])")


def check_service_detach(lf, findings):
    """src/service/ must stay detached from engine-owned state objects.

    Unlike scheduler-retention (members of Scheduler subclasses only), this
    flags ANY pointer or reference to CoflowState/FlowState in the service
    tree — locals included. The service layer's reader threads and sink
    writer run concurrently with the engine thread that owns and reclaims
    those objects; even a short-lived alias races the round's streaming
    reclamation. Everything the service needs crosses as value types
    (CoflowRecord, WorkloadEvent, SimResult, EngineSnapshot)."""
    if not lf.path.startswith("src/service/"):
        return
    for m in STATE_PTR_RE.finditer(lf.code):
        kind = "pointer" if m.group(2) == "*" else "reference"
        findings.append(Finding(
            lf.path, line_of(lf.code, m.start()), "service-detach",
            f"service code takes a {kind} to engine-owned {m.group(1)} — "
            "the engine thread reclaims finished states after each round's "
            "sink flush, and service threads run concurrently with it; "
            "cross the boundary with value types (CoflowRecord, "
            "WorkloadEvent) instead"))


# ---------------------------------------------------------------- hot-noalloc

def annotated_bodies(code):
    """Yields (body_text, body_start_offset) for every function definition
    annotated SAATH_HOT_NOALLOC."""
    for m in re.finditer(r"\bSAATH_HOT_NOALLOC\b", code):
        i = m.end()
        n = len(code)
        # Walk to the body '{': first '{' at paren depth 0. Definitions
        # only — a ';' at depth 0 first means it was a declaration.
        depth = 0
        while i < n:
            c = code[i]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
            elif depth == 0 and c == ";":
                break
            elif depth == 0 and c == "{":
                end = match_forward(code, i, "{", "}")
                yield code[i:end], i
                break
            i += 1


def check_hot_noalloc(lf, findings):
    if lf.path.startswith(("tests/", "tools/")):
        return
    for body, base in annotated_bodies(lf.code):
        for m in ALLOC_CALL_RE.finditer(body):
            findings.append(Finding(
                lf.path, line_of(lf.code, base + m.start()), "hot-noalloc",
                f"allocation '{m.group(0).strip()}' inside a "
                "SAATH_HOT_NOALLOC function — hoist into reused member "
                "scratch (see tests/alloc_steady_test.cc)"))
        # Function-local owned std:: containers (reference bindings are
        # views of member scratch, not locals).
        locals_ = {nm for amp, nm in CONTAINER_DECL_RE.findall(body)
                   if not amp}
        reserved = {nm for nm in locals_
                    if re.search(rf"\b{nm}\s*\.\s*reserve\s*\(", body)}
        for nm in sorted(locals_ - reserved):
            for g in GROWTH_METHODS:
                gm = re.search(rf"\b{nm}\s*\.\s*{g}\s*\(", body)
                if gm:
                    findings.append(Finding(
                        lf.path, line_of(lf.code, base + gm.start()),
                        "hot-noalloc",
                        f"local container '{nm}' grows via {g}() with no "
                        "same-body reserve() in a SAATH_HOT_NOALLOC "
                        "function — reserve it or promote it to member "
                        "scratch"))
                    break


# --------------------------------------------------------------- digest-float

def check_digest_float(lf, findings):
    if not lf.path.startswith(("src/coflow/", "src/fabric/")):
        return
    for m in re.finditer(r"\bfloat\b", lf.code):
        findings.append(Finding(
            lf.path, line_of(lf.code, m.start()), "digest-float",
            "'float' in digest-bearing code — single precision narrows "
            "differently across toolchains and forks the replay digest; "
            "use double"))
    for m in re.finditer(r"\b(?:std\s*::\s*)?fmaf?\s*\(", lf.code):
        findings.append(Finding(
            lf.path, line_of(lf.code, m.start()), "digest-float",
            "explicit fused multiply-add in digest-bearing code — FMA "
            "contraction is disabled tree-wide (-ffp-contract=off) "
            "precisely so digests match across arch levels"))


# ---------------------------------------------------------------- flag-matrix

INCREMENTAL_DECL_RE = re.compile(r"\bbool\s+(incremental_\w+)\b")


def check_flag_matrix(files, findings):
    flags = {}  # name -> (path, line) of first declaration
    test_blob = []
    for lf in files:
        if lf.path.startswith("tests/") and not \
                lf.path.startswith("tests/lint_fixtures/"):
            test_blob.append(lf.code)
        if not lf.path.endswith(".h") or not lf.path.startswith("src/"):
            continue
        for m in INCREMENTAL_DECL_RE.finditer(lf.code):
            flags.setdefault(m.group(1),
                             (lf.path, line_of(lf.code, m.start())))
    blob = "\n".join(test_blob)
    for name, (path, lineno) in sorted(flags.items()):
        if re.search(rf"\b{name}\b", blob):
            continue
        findings.append(Finding(
            path, lineno, "flag-matrix",
            f"mode flag '{name}' is exercised by no test under tests/ — "
            "every incremental knob needs a digest-matrix test pinning it "
            "against its full-recompute oracle"))


# ------------------------------------------------------- optional AST backend

class AstBackend:
    """libclang cross-check for lane-access receiver types. Entirely
    optional: any import/parse failure degrades to the lexer-only result
    (which is authoritative). Never masks a lexer finding."""

    def __init__(self, compdb_path):
        self.ok = False
        self.why = ""
        try:
            import clang.cindex as cindex  # noqa: F401
            self.cindex = cindex
            self.compdb_path = compdb_path
            self.index = cindex.Index.create()
            self.ok = True
        except Exception as exc:  # ImportError, LibclangError, ...
            self.why = f"{type(exc).__name__}: {exc}"

    def extra_lane_findings(self, lf, root):
        if not self.ok or not lf.path.endswith(".cc"):
            return []
        try:
            args = self._args_for(lf.path)
            tu = self.index.parse(os.path.join(root, lf.path), args=args)
            out = []
            ck = self.cindex.CursorKind
            for cur in tu.cursor.walk_preorder():
                if cur.kind != ck.MEMBER_REF_EXPR:
                    continue
                if cur.spelling not in LANES:
                    continue
                base = next(iter(cur.get_children()), None)
                if base is None:
                    continue
                t = base.type.get_canonical().spelling
                if "FlowPool" not in t:
                    continue
                loc = cur.location
                if not loc.file or os.path.relpath(
                        loc.file.name, root) != lf.path:
                    continue
                if lf.path.startswith("src/coflow/") or \
                        lf.path in LANE_READ_ALLOWLIST:
                    continue
                out.append(Finding(
                    lf.path, loc.line, "lane-access",
                    f"(AST) FlowPool lane '{cur.spelling}' referenced "
                    "outside the audited consumers"))
            return out
        except Exception:
            return []  # cross-check only; the lexer already ran

    def _args_for(self, path):
        try:
            with open(self.compdb_path, encoding="utf-8") as fh:
                for entry in json.load(fh):
                    if entry.get("file", "").endswith(path):
                        args = entry.get("command", "").split()[1:]
                        return [a for a in args if a != "-c"
                                and not a.endswith(".cc")
                                and not a.endswith(".o") and a != "-o"]
        except Exception:
            pass
        return ["-std=c++20"]


# ------------------------------------------------------------------- drivers

def gather_repo_files(root, compdb):
    paths = set()
    if compdb and os.path.exists(compdb):
        try:
            with open(compdb, encoding="utf-8") as fh:
                for entry in json.load(fh):
                    p = os.path.relpath(
                        os.path.join(entry.get("directory", root),
                                     entry["file"]), root)
                    p = p.replace(os.sep, "/")
                    if not p.startswith(".."):
                        paths.add(p)
        except (OSError, ValueError, KeyError) as exc:
            print(f"saath_lint: warning: unreadable compdb {compdb}: {exc}",
                  file=sys.stderr)
    for sub, exts in (("src", (".cc", ".h")), ("tests", (".cc", ".h")),
                      ("examples", (".cpp", ".h")), ("bench", (".cpp", ".h"))):
        base = os.path.join(root, sub)
        for dirpath, _dirnames, filenames in os.walk(base):
            rel_dir = os.path.relpath(dirpath, root).replace(os.sep, "/")
            if rel_dir.startswith("tests/lint_fixtures"):
                continue
            for fn in filenames:
                if fn.endswith(exts):
                    paths.add(f"{rel_dir}/{fn}")
    files = []
    for p in sorted(paths):
        disk = os.path.join(root, p)
        if os.path.exists(disk):
            files.append(load_file(p, disk))
    return files


def run_checks(files, ast=None, root=None):
    findings = []
    for lf in files:
        check_lane_access(lf, findings)
        check_scheduler_retention(lf, findings)
        check_service_detach(lf, findings)
        check_hot_noalloc(lf, findings)
        check_digest_float(lf, findings)
        for lineno, msg in lf.bad_suppressions:
            findings.append(Finding(lf.path, lineno, "bad-suppression", msg))
        if ast is not None and ast.ok and root:
            findings.extend(ast.extra_lane_findings(lf, root))
    check_flag_matrix(files, findings)
    by_path = {lf.path: lf for lf in files}
    kept = []
    for f in findings:
        sup = by_path.get(f.path)
        ids = sup.suppressions.get(f.line, set()) if sup else set()
        if f.check in ids or "*" in ids:
            continue
        kept.append(f)
    kept.sort(key=lambda f: (f.path, f.line, f.check))
    return kept


def run_self_test(root):
    fixture_dir = os.path.join(root, "tests", "lint_fixtures")
    if not os.path.isdir(fixture_dir):
        print(f"saath_lint: no fixture dir at {fixture_dir}",
              file=sys.stderr)
        return 2
    files, expected = [], set()
    for fn in sorted(os.listdir(fixture_dir)):
        if not fn.endswith((".cc", ".h")):
            continue
        disk = os.path.join(fixture_dir, fn)
        with open(disk, encoding="utf-8") as fh:
            raw = fh.read()
        m = LINT_AS_RE.search(raw)
        if not m:
            print(f"saath_lint: fixture {fn} lacks a LINT-AS: header",
                  file=sys.stderr)
            return 2
        mapped = m.group(1)
        lf = load_file(mapped, disk)
        files.append(lf)
        for lineno, line in enumerate(raw.splitlines(), 1):
            em = EXPECT_RE.search(line)
            if em:
                for check in re.split(r"\s*,\s*", em.group(1)):
                    expected.add((mapped, lineno, check))
    actual = {(f.path, f.line, f.check) for f in run_checks(files)}
    missed = expected - actual
    surplus = actual - expected
    for path, line, check in sorted(missed):
        print(f"SELF-TEST MISS   {path}:{line}: expected [{check}] "
              "was not reported")
    for path, line, check in sorted(surplus):
        print(f"SELF-TEST EXTRA  {path}:{line}: unexpected [{check}]")
    total = len(expected)
    if missed or surplus:
        print(f"saath_lint --self-test: FAIL "
              f"({len(missed)} missed, {len(surplus)} unexpected, "
              f"{total} expectations)")
        return 1
    print(f"saath_lint --self-test: OK — all {total} seeded violations "
          "flagged, no extras, suppressions honored")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="saath_lint",
        description="Repo-specific static invariant checks for Saath.")
    ap.add_argument("--root", default=".",
                    help="repository root (default: cwd)")
    ap.add_argument("--compdb", default=None,
                    help="compile_commands.json (narrows the .cc file set "
                         "and feeds the AST backend)")
    ap.add_argument("--ast", choices=("auto", "off", "require"),
                    default="auto",
                    help="libclang cross-check: auto = use if importable")
    ap.add_argument("--self-test", action="store_true",
                    help="run against tests/lint_fixtures/ and verify "
                         "every seeded violation is flagged")
    ap.add_argument("--list-checks", action="store_true")
    args = ap.parse_args(argv)

    if args.list_checks:
        for c in CHECK_IDS:
            print(c)
        return 0
    root = os.path.abspath(args.root)
    if args.self_test:
        return run_self_test(root)

    ast = None
    if args.ast != "off":
        ast = AstBackend(args.compdb or
                         os.path.join(root, "compile_commands.json"))
        if not ast.ok:
            if args.ast == "require":
                print(f"saath_lint: --ast require, but libclang is "
                      f"unavailable ({ast.why})", file=sys.stderr)
                return 2
            ast = None  # auto: silently fall back to the lexer backend

    files = gather_repo_files(root, args.compdb)
    if not files:
        print("saath_lint: no input files found", file=sys.stderr)
        return 2
    findings = run_checks(files, ast=ast, root=root)
    for f in findings:
        print(f.render())
    n_src = sum(1 for lf in files if not lf.path.startswith("tests/"))
    print(f"saath_lint: {len(findings)} finding(s) across {len(files)} "
          f"files ({n_src} non-test)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
