#!/usr/bin/env python3
"""ih_lint: the determinism-contract linter.

The repo's load-bearing claim is byte-identical simulated results at any
host thread / domain / worker count (docs/ARCHITECTURE.md, "The
determinism contract").  Example-based diff tests enforce it for the
traces they happen to sample; this linter makes the contract
mechanically checkable at the source level.  It walks src/, bench/ and
tests/ (excluding tests/lint_fixtures/, the linter's own seeded-violation
corpus) and flags:

  unordered-iteration
      Iteration (range-for, .begin()/.end()/.cbegin()/.cend()) over a
      std::unordered_map / std::unordered_set.  Iteration order is
      implementation-defined; when the loop body is order-sensitive the
      simulated results silently depend on the standard library.
      Detection is per translation unit: container names declared in
      X.hh / X.cc are matched against iteration sites in the same pair.

  wall-clock
      Host-time and host-entropy sources (steady_clock, system_clock,
      high_resolution_clock, gettimeofday, clock_gettime, time(),
      clock(), rand(), srand(), random_device) anywhere.  Simulated
      results must be a pure function of (config, seed); benches that
      *report* host wall time as their quantity of interest are
      allowlisted per site.

  raw-parse
      atof/atoi/strtod/strtol/sscanf/stoi-family calls outside
      src/harness/report.cc, where the strict parsers live (knobCount,
      parsePositiveDouble).  Lenient parsing
      accepted "0.15abc" and "inf" and silently disabled a CI gate once
      (PR 5); new parsing must go through the strict helpers or be a
      strict end-checked codec with tests, recorded in the allowlist.

  raw-getenv
      getenv() outside src/harness/report.cc.  The knob registry there
      (knobCount / knobWorkers / knobReal / knobText) is the only
      reader of the environment.

  knob-table
      The knob registry's rows in src/harness/report.cc and the rows of
      README.md's "Environment knob reference" table must name the same
      knobs, in both directions, and a README default written as a
      number must equal the registry row's default.

  unused-api
      A lower-case function name declared at namespace or class scope
      in a src/**/*.hh header and referenced nowhere in src/, bench/,
      examples/, perfbench/ or tests/.  The name's own declaration
      lines and column-0 "Class::name(" definitions are not
      references; comments and string literals are not either.  The
      match is by name, so one call keeps every overload.  Test
      references count: a test oracle such as
      MemorySystem::accessReference is used.

Every suppression lives in ALLOWLIST below: one entry per site, with a
justification string.  Entries that no longer match anything are an
error — the allowlist cannot accumulate dead weight.

Usage:
    python3 scripts/ih_lint.py              # lint the real tree
    python3 scripts/ih_lint.py --self-test  # fixture corpus check

Exit codes: 0 clean, 1 violations (or stale allowlist, or self-test
failure), 2 usage/internal error.
"""

import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCAN_DIRS = ("src", "bench", "tests")
# unused-api also counts references from these (not linted otherwise).
API_REF_DIRS = ("examples", "perfbench")
REGISTRY = "src/harness/report.cc"
README = "README.md"
FIXTURE_DIR = os.path.join("tests", "lint_fixtures")
SOURCE_EXTS = (".cc", ".hh", ".cpp", ".h")

# --------------------------------------------------------------------------
# Allowlist: one entry per tolerated site.
#
# An entry suppresses a finding when (rule, file) match and `contains`
# is a substring of the offending line (line numbers drift; code
# substrings are stable).  `why` is the audit trail — docs/ARCHITECTURE
# "The determinism contract, enforced" explains the format.  A stale
# entry (matching nothing) fails the lint run.
# --------------------------------------------------------------------------

ALLOWLIST = [
    {
        "rule": "unordered-iteration",
        "file": "src/mem/page_table.cc",
        "contains": "for (auto &[vp, info] : pages_)",
        "why": (
            "rehomeAll() re-homes pages in pages_ iteration order and the "
            "order picks each page's new slice (seq round-robin), so it IS "
            "result-affecting — but it is deterministic in the contract's "
            "sense: libstdc++ iteration order is a pure function of the "
            "insertion/erase sequence, which host thread/domain/worker "
            "knobs never change (pinned by the byte-identity CI legs). "
            "Rewriting to canonical sorted-key order changes which page "
            "lands on which slice and therefore the golden figure JSON; "
            "that is a deliberate modeling change needing a golden "
            "regeneration, tracked in ROADMAP.md, not a lint fix."
        ),
    },
    {
        "rule": "wall-clock",
        "file": "bench/micro_components.cc",
        "contains": "std::chrono::steady_clock",
        "why": (
            "Self-timed component microbenchmark: host wall time is the "
            "output. No simulated result or checksum is derived from it."
        ),
    },
]

# --------------------------------------------------------------------------
# Helpers
# --------------------------------------------------------------------------


def strip_comments(text, blank_strings=False):
    """Blank out // and /* */ comments, preserving line structure.

    With @p blank_strings, string-literal *contents* are blanked too
    (quotes kept): the wall-clock and raw-parse rules scan that view so
    a table header saying "completion time (ms)" is not a time() call.
    The getenv/knob rules scan the strings-intact view — knob names are
    string literals.
    """
    out = []
    i = 0
    n = len(text)
    in_block = False
    in_line = False
    in_str = None  # the quote character, when inside a literal
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if in_block:
            if c == "*" and nxt == "/":
                in_block = False
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
            i += 1
            continue
        if in_line:
            if c == "\n":
                in_line = False
                out.append("\n")
            else:
                out.append(" ")
            i += 1
            continue
        if in_str:
            if c == "\\" and nxt:
                out.append("  " if blank_strings else c + nxt)
                i += 2
                continue
            if c == in_str:
                in_str = None
                out.append(c)
            else:
                out.append(" " if blank_strings else c)
            i += 1
            continue
        if c in "\"'":
            in_str = c
            out.append(c)
            i += 1
            continue
        if c == "/" and nxt == "*":
            in_block = True
            out.append("  ")
            i += 2
            continue
        if c == "/" and nxt == "/":
            in_line = True
            out.append("  ")
            i += 2
            continue
        out.append(c)
        i += 1
    return "".join(out)


class Finding:
    def __init__(self, rule, path, line_no, line, message):
        self.rule = rule
        self.path = path
        self.line_no = line_no
        self.line = line
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line_no, self.rule,
                                   self.message)


def list_sources(root, dirs, exclude_fixtures=True):
    files = []
    for d in dirs:
        top = os.path.join(root, d)
        for dirpath, _, names in os.walk(top):
            rel_dir = os.path.relpath(dirpath, root)
            if exclude_fixtures and rel_dir.startswith(FIXTURE_DIR):
                continue
            for name in sorted(names):
                if name.endswith(SOURCE_EXTS):
                    files.append(os.path.join(rel_dir, name))
    return sorted(files)


def read_stripped(root, relpath):
    """-> (comment-stripped lines, additionally string-blanked lines)."""
    with open(os.path.join(root, relpath), encoding="utf-8") as f:
        text = f.read()
    return (strip_comments(text).split("\n"),
            strip_comments(text, blank_strings=True).split("\n"))


# --------------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------------

UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;]*?>\s*(\w+)\s*[;{=]")
WALL_CLOCK_RE = re.compile(
    r"\b(steady_clock|system_clock|high_resolution_clock|gettimeofday"
    r"|clock_gettime|random_device"
    r"|(?:std::)?s?rand\s*\(|(?:std::)?time\s*\(|(?:std::)?clock\s*\(\s*\))")
RAW_PARSE_RE = re.compile(
    r"\b(?:std::)?(atof|atoi|atol|atoll|strtod|strtof|strtold|strtol"
    r"|strtoll|strtoul|strtoull|sscanf|stoi|stol|stoll|stoul|stoull"
    r"|stof|stod|stold)\s*\(")
GETENV_RE = re.compile(r"\bgetenv\s*\(")
# A registry row, one per line: {"NAME", min, max, default},
REGISTRY_ROW_RE = re.compile(r'^\s*\{"((?:IRONHIDE|IH)_[A-Z0-9_]+)",'
                             r'\s*\w+,\s*\w+,\s*([\w.]+)\},?\s*$')
# A README knob-table row: | `NAME` | used by | meaning | default | ...
# with the default's leading `code` span, if any, as group 2.
README_ROW_RE = re.compile(r"^\|\s*`((?:IRONHIDE|IH)_[A-Z0-9_]+)`\s*\|"
                           r"(?:[^|]*\|){2}\s*(?:`([^`]*)`)?")
KNOB_SECTION = "## Environment knob reference"
RANGE_FOR_RE = r"for\s*\([^;)]*:\s*(?:\w+\s*\.\s*)?%s\s*\)"
# begin() only: end() alone cannot iterate, and it appears in the
# harmless find()/end() point-lookup comparison all over the tree.
ITER_CALL_RE = r"\b%s\s*\.\s*(?:c?r?begin)\s*\("


def rule_unordered_iteration(files_lines):
    """Pair X.hh/X.cc declarations with iteration sites in the pair."""
    findings = []
    by_stem = {}
    for path in files_lines:
        stem = os.path.splitext(path)[0]
        by_stem.setdefault(stem, []).append(path)
    for stem, paths in sorted(by_stem.items()):
        names = set()
        for path in paths:
            for line in files_lines[path][1]:
                for m in UNORDERED_DECL_RE.finditer(line):
                    names.add(m.group(1))
        if not names:
            continue
        pats = [
            (re.compile(RANGE_FOR_RE % re.escape(n)), n) for n in names
        ] + [(re.compile(ITER_CALL_RE % re.escape(n)), n) for n in names]
        for path in paths:
            for ln, line in enumerate(files_lines[path][1], 1):
                for pat, name in pats:
                    if pat.search(line):
                        findings.append(Finding(
                            "unordered-iteration", path, ln, line,
                            "iteration over unordered container '%s': "
                            "order is implementation-defined; use an "
                            "ordered container, iterate sorted keys, or "
                            "allowlist with an order-independence "
                            "justification" % name))
                        break
    return findings


def rule_wall_clock(files_lines):
    findings = []
    for path, lines in sorted(files_lines.items()):
        for ln, line in enumerate(lines[1], 1):
            m = WALL_CLOCK_RE.search(line)
            if m:
                findings.append(Finding(
                    "wall-clock", path, ln, line,
                    "host time/entropy source '%s': simulated results "
                    "must be a pure function of (config, seed)"
                    % m.group(0).strip()))
    return findings


def rule_raw_parse(files_lines):
    findings = []
    for path, lines in sorted(files_lines.items()):
        if path == "src/harness/report.cc":
            continue  # home of the strict helpers themselves
        for ln, line in enumerate(lines[1], 1):
            m = RAW_PARSE_RE.search(line)
            if m:
                findings.append(Finding(
                    "raw-parse", path, ln, line,
                    "'%s' outside harness/report: lenient parsing "
                    "accepts trailing garbage; use the knob registry / "
                    "parsePositiveDouble or a tested end-checked codec "
                    "(allowlisted)" % m.group(1)))
    return findings


def rule_raw_getenv(files_lines):
    findings = []
    for path, lines in sorted(files_lines.items()):
        if path == REGISTRY:
            continue  # the knob registry: the one environment reader
        for ln, line in enumerate(lines[0], 1):
            if GETENV_RE.search(line):
                findings.append(Finding(
                    "raw-getenv", path, ln, line,
                    "getenv() outside the knob registry: add a row to "
                    "%s and read it with knobCount / knobWorkers / "
                    "knobReal / knobText" % REGISTRY))
    return findings


def as_number(text):
    """-> the value of a decimal or 0x literal, or None."""
    try:
        return float(int(text, 16) if text.startswith("0x") else text)
    except ValueError:
        return None


def rule_knob_table(files_lines, registry_paths, root, readme):
    """Registry rows and README knob-table rows must agree."""
    rows, table, in_section = {}, {}, False
    for path in registry_paths:
        for ln, line in enumerate(files_lines[path][0], 1):
            m = REGISTRY_ROW_RE.match(line)
            if m:
                rows[m.group(1)] = (path, ln, line, m.group(2))
    with open(os.path.join(root, readme), encoding="utf-8") as f:
        for ln, line in enumerate(f, 1):
            if line.startswith("## "):
                in_section = line.startswith(KNOB_SECTION)
            m = in_section and README_ROW_RE.match(line)
            if m:
                table[m.group(1)] = (ln, line.rstrip("\n"), m.group(2))
    if not rows or not table:
        return [Finding("knob-table", readme, 0, "",
                        "found %d registry rows and %d README knob-table "
                        "rows -- broken scan?" % (len(rows), len(table)))]
    findings = []
    for knob, (path, ln, line, default) in sorted(rows.items()):
        if knob not in table:
            findings.append(Finding(
                "knob-table", path, ln, line,
                "registry knob '%s' has no row in the %s knob table"
                % (knob, readme)))
            continue
        doc = table[knob][2] or ""
        if as_number(doc) not in (None, as_number(default)):
            findings.append(Finding(
                "knob-table", path, ln, line,
                "knob '%s' defaults to %s here but to %s in the %s knob "
                "table" % (knob, default, doc, readme)))
    for knob, (ln, line, _) in sorted(table.items()):
        if knob not in rows:
            findings.append(Finding(
                "knob-table", readme, ln, line,
                "the knob table documents '%s', which has no registry "
                "row" % knob))
    return findings


# Names that can stand right before "(" at declaration scope without
# being the declared function: keywords that take an argument list,
# "operator()", and fundamental types inside a function type such as
# std::function<void(int)>.
NOT_A_DECL_NAME = frozenset((
    "alignas", "alignof", "auto", "bool", "char", "decltype", "double",
    "float", "int", "long", "noexcept", "operator", "short", "signed",
    "sizeof", "throw", "unsigned", "void"))
DECL_CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
SCOPE_KEYWORD_RE = re.compile(r"\b(?:namespace|class|struct|union)\b")
IDENT_RE = re.compile(r"\b[A-Za-z_]\w*\b")
# A column-0 out-of-line definition: "Class::name(" or "A<T>::B::name(".
DEFINITION_RE = re.compile(
    r"^(?:[A-Za-z_]\w*(?:<[^<>]*>)?::)+([A-Za-z_]\w*)\s*\(")


def header_declarations(lines):
    """-> [(name, line_no)] of the lower-case functions a header
    declares at namespace or class scope.

    @p lines is the comment-stripped, string-blanked view. A statement
    (text since the last ';', '{' or '}') at declaration scope declares
    a function when its first name before a '(' is not a keyword, and
    no '=' precedes it (that would be an initializer). A qualified
    "Class::name(" is an out-of-line definition, not a declaration.
    Function bodies, enums and initializers are skipped wholesale.
    """
    kept = []
    continued = False
    for line in lines:
        directive = continued or line.lstrip().startswith("#")
        continued = directive and line.rstrip().endswith("\\")
        kept.append("" if directive else line)
    text = "\n".join(kept)
    decls = []
    stack = []  # per open brace: does it hold declarations?
    start = 0
    for i, c in enumerate(text):
        if c not in ";{}":
            continue
        begin, start = start, i + 1
        stmt = text[begin:i]
        if c == "}":
            if stack:
                stack.pop()
            continue
        declared = False
        if all(stack) and not re.match(r"\s*(?:using|typedef|"
                                       r"static_assert)\b", stmt):
            for m in DECL_CALL_RE.finditer(stmt):
                if m.group(1) in NOT_A_DECL_NAME:
                    continue
                head = stmt[:m.start()]
                declared = "=" not in head
                if (declared and m.group(1)[0].islower()
                        and not head.rstrip().endswith("::")):
                    line_no = text.count("\n", 0, begin + m.start(1)) + 1
                    decls.append((m.group(1), line_no))
                break
        if c == "{":
            stack.append(not declared and "=" not in stmt
                         and not re.search(r"\benum\b", stmt)
                         and bool(SCOPE_KEYWORD_RE.search(stmt)))
    return decls


def rule_unused_api(files_lines):
    """Flag header-declared functions that nothing references."""
    declared = []  # (name, path, line_no)
    for path, lines in sorted(files_lines.items()):
        if path.startswith("src/") and path.endswith(".hh"):
            for name, ln in header_declarations(lines[1]):
                declared.append((name, path, ln))
    names = {name for name, _, _ in declared}
    decl_lines = {(path, ln, name) for name, path, ln in declared}
    used = set()
    for path, lines in files_lines.items():
        for ln, line in enumerate(lines[1], 1):
            m = DEFINITION_RE.match(line)
            defined = m.group(1) if m else None
            for tok in IDENT_RE.findall(line):
                if (tok in names and tok != defined
                        and (path, ln, tok) not in decl_lines):
                    used.add(tok)
    findings = []
    for name, path, ln in declared:
        if name not in used:
            findings.append(Finding(
                "unused-api", path, ln, files_lines[path][0][ln - 1],
                "'%s' is declared but referenced nowhere in src/, "
                "bench/, examples/, perfbench/ or tests/: delete it, or "
                "give it a caller" % name))
    return findings


def run_rules(root, files):
    files_lines = {p: read_stripped(root, p) for p in files}
    findings = []
    findings += rule_unordered_iteration(files_lines)
    findings += rule_wall_clock(files_lines)
    findings += rule_raw_parse(files_lines)
    findings += rule_raw_getenv(files_lines)
    findings += rule_knob_table(files_lines, [REGISTRY], root, README)
    api_lines = dict(files_lines)
    for p in list_sources(root, API_REF_DIRS):
        api_lines[p] = read_stripped(root, p)
    findings += rule_unused_api(api_lines)
    return findings


def apply_allowlist(findings):
    kept = []
    used = [False] * len(ALLOWLIST)
    for f in findings:
        suppressed = False
        for i, entry in enumerate(ALLOWLIST):
            if (entry["rule"] == f.rule and entry["file"] == f.path
                    and entry["contains"] in f.line):
                used[i] = True
                suppressed = True
                break
        if not suppressed:
            kept.append(f)
    stale = [ALLOWLIST[i] for i in range(len(ALLOWLIST)) if not used[i]]
    return kept, stale


# --------------------------------------------------------------------------
# Self-test over tests/lint_fixtures/
# --------------------------------------------------------------------------

# Every fixture file seeds the violations listed here, and nothing else;
# clean.cc must not trip any rule. The fixture README.md stands in for
# the real README's knob table. The real-tree allowlist is NOT
# consulted for fixtures — the corpus checks raw detection.
EXPECTED_FIXTURE_FINDINGS = {
    "tests/lint_fixtures/unordered_iter.cc": ["unordered-iteration",
                                              "unordered-iteration"],
    "tests/lint_fixtures/wall_clock.cc": ["wall-clock", "wall-clock",
                                          "wall-clock"],
    "tests/lint_fixtures/raw_parse.cc": ["raw-parse"],
    "tests/lint_fixtures/raw_getenv.cc": ["raw-getenv"],
    "tests/lint_fixtures/knob_table.cc": ["knob-table", "knob-table"],
    "tests/lint_fixtures/README.md": ["knob-table"],
    "tests/lint_fixtures/unused_api.hh": ["unused-api", "unused-api"],
    "tests/lint_fixtures/clean.cc": [],
}


def self_test(root):
    fixture_root = os.path.join(root, FIXTURE_DIR)
    if not os.path.isdir(fixture_root):
        print("ih_lint self-test: missing %s" % FIXTURE_DIR,
              file=sys.stderr)
        return 1
    files = []
    for name in sorted(os.listdir(fixture_root)):
        if name.endswith(SOURCE_EXTS):
            files.append(os.path.join(FIXTURE_DIR, name))
    # Rebuild the per-rule pipeline with the fixture paths mapped into
    # a src/-style namespace (unused-api reads src/ headers only); every
    # fixture may hold registry rows, checked against the fixture
    # README's knob table.
    files_lines = {}
    for p in files:
        files_lines["src/lint_fixtures/" + os.path.basename(p)] = \
            read_stripped(root, p)
    findings = []
    findings += rule_unordered_iteration(files_lines)
    findings += rule_wall_clock(files_lines)
    findings += rule_raw_parse(files_lines)
    findings += rule_raw_getenv(files_lines)
    findings += rule_knob_table(files_lines, sorted(files_lines), root,
                                os.path.join(FIXTURE_DIR, "README.md"))
    findings += rule_unused_api(files_lines)

    got = {}
    for f in findings:
        path = ("tests/lint_fixtures/" + os.path.basename(f.path))
        got.setdefault(path, []).append(f.rule)
    rc = 0
    for path, expected in sorted(EXPECTED_FIXTURE_FINDINGS.items()):
        actual = sorted(got.get(path, []))
        if actual != sorted(expected):
            print("ih_lint self-test: %s: expected %s, got %s"
                  % (path, sorted(expected), actual), file=sys.stderr)
            rc = 1
    unexpected = set(got) - set(EXPECTED_FIXTURE_FINDINGS)
    for path in sorted(unexpected):
        print("ih_lint self-test: unexpected findings in %s: %s"
              % (path, got[path]), file=sys.stderr)
        rc = 1
    if rc == 0:
        total = sum(len(v) for v in EXPECTED_FIXTURE_FINDINGS.values())
        print("ih_lint self-test: all %d seeded violations caught, "
              "clean fixture passes" % total)
    return rc


def main(argv):
    if len(argv) > 2 or (len(argv) == 2
                         and argv[1] not in ("--self-test", "--help")):
        print(__doc__, file=sys.stderr)
        return 2
    if len(argv) == 2 and argv[1] == "--help":
        print(__doc__)
        return 0
    if len(argv) == 2 and argv[1] == "--self-test":
        return self_test(REPO)

    files = list_sources(REPO, SCAN_DIRS)
    findings = run_rules(REPO, files)
    findings, stale = apply_allowlist(findings)
    rc = 0
    for f in findings:
        print(f, file=sys.stderr)
        rc = 1
    for entry in stale:
        print("ih_lint: stale allowlist entry (matches nothing): "
              "rule=%s file=%s contains=%r — remove it or fix the match"
              % (entry["rule"], entry["file"], entry["contains"]),
              file=sys.stderr)
        rc = 1
    if rc == 0:
        print("ih_lint: %d files clean (%d allowlisted sites)"
              % (len(files), len(ALLOWLIST)))
    else:
        print("ih_lint: FAILED — see docs/ARCHITECTURE.md \"The "
              "determinism contract, enforced\" for the rules and the "
              "allowlist format", file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
