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
      clock(), rand(), srand(), random_device) outside the
      harness/isolate supervisor, which legitimately measures host wall
      time to enforce job timeouts.  Simulated results must be a pure
      function of (config, seed); benches that *report* host wall time
      as their quantity of interest are allowlisted per site.

  raw-parse
      atof/atoi/strtod/strtol/sscanf/stoi-family calls outside
      src/harness/report.cc, where the strict parsers live
      (parsePositiveDouble, parseEnvUnsigned, ...).  Lenient parsing
      accepted "0.15abc" and "inf" and silently disabled a CI gate once
      (PR 5); new parsing must go through the strict helpers or be a
      strict end-checked codec with tests, recorded in the allowlist.

  raw-getenv
      getenv() whose value does not flow into a strict parse helper on
      the same statement.  String-valued knobs that are compared
      exactly (strcmp against an enum of spellings, fatal otherwise)
      are allowlisted per site with their justification.

  undocumented-knob
      An "IRONHIDE_*" / "IH_*" string literal in src/ or bench/ that
      appears in neither README.md nor docs/ — a knob cannot land
      undocumented.  (Absorbed from the former
      scripts/check_docs_knobs.sh.)

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
KNOB_DIRS = ("src", "bench")  # scope of the old check_docs_knobs.sh
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
        "file": "bench/perf_smoke.cc",
        "contains": "std::chrono::steady_clock",
        "why": (
            "perf_smoke's quantity of interest is host wall time (the "
            "simulator-performance trajectory). The measured time is "
            "reported beside — never folded into — the simulated "
            "determinism checksum the gate compares."
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
    {
        "rule": "raw-parse",
        "file": "src/sim/config.cc",
        "contains": "std::strtoull",
        "why": (
            "Strict end-checked config-literal parser: the whole value "
            "must parse or set() is fatal(). sim/ sits below harness/ in "
            "the layer map and cannot include harness/report."
        ),
    },
    {
        "rule": "raw-getenv",
        "file": "tests/test_stats_parity.cc",
        "contains": "IH_DUMP_GOLDEN",
        "why": (
            "Presence-only switch for deliberate golden regeneration; "
            "the value is never parsed."
        ),
    },
    {
        "rule": "raw-getenv",
        "file": "src/harness/sweep.cc",
        "contains": "IRONHIDE_SHARD",
        "why": (
            "Value flows into parseShardSpec(), which rejects signs, "
            "whitespace, trailing garbage and zero job counts (fatal); "
            "strictness pinned by tests/test_harness.cc."
        ),
    },
    {
        "rule": "raw-getenv",
        "file": "src/harness/isolate.cc",
        "contains": "IH_FAULT_INJECT",
        "why": (
            "Value flows into the FaultPlan parser; malformed plans are "
            "fatal(), pinned by tests/test_faults.cc."
        ),
    },
    {
        "rule": "raw-getenv",
        "file": "bench/serve_openloop.cc",
        "contains": "IRONHIDE_SERVE_CALIB",
        "why": (
            "String-valued knob compared exactly against 'pinned' / "
            "'per-arch'; any other value is fatal()."
        ),
    },
    {
        "rule": "raw-getenv",
        "file": "bench/perf_smoke.cc",
        "contains": "GITHUB_STEP_SUMMARY",
        "why": (
            "CI-provided output *path*, appended to verbatim — never "
            "parsed as a value, and absent outside CI."
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
KNOB_RE = re.compile(r'"((?:IRONHIDE|IH)_[A-Z0-9_]+)"')
RANGE_FOR_RE = r"for\s*\([^;)]*:\s*(?:\w+\s*\.\s*)?%s\s*\)"
# begin() only: end() alone cannot iterate, and it appears in the
# harmless find()/end() point-lookup comparison all over the tree.
ITER_CALL_RE = r"\b%s\s*\.\s*(?:c?r?begin)\s*\("

# getenv consumers that make a site strict by construction: the value
# lands in a helper that rejects trailing garbage / range errors.
STRICT_CONSUMERS = ("parseEnvUnsigned", "envPositiveDouble",
                    "parsePositiveDouble")


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
        if path.startswith("src/harness/isolate."):
            # The --isolate supervisor is *about* host time: wall
            # timeouts on forked jobs. The one sanctioned consumer.
            continue
        for ln, line in enumerate(lines[1], 1):
            m = WALL_CLOCK_RE.search(line)
            if m:
                findings.append(Finding(
                    "wall-clock", path, ln, line,
                    "host time/entropy source '%s' outside the "
                    "harness/isolate supervisor: simulated results must "
                    "be a pure function of (config, seed)"
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
                    "accepts trailing garbage; use parseEnvUnsigned / "
                    "parsePositiveDouble or a tested end-checked codec "
                    "(allowlisted)" % m.group(1)))
    return findings


def rule_raw_getenv(files_lines):
    findings = []
    for path, lines in sorted(files_lines.items()):
        if path.startswith("src/harness/report."):
            continue  # the env helpers call getenv by design
        for ln, line in enumerate(lines[0], 1):
            if not GETENV_RE.search(line):
                continue
            # Statement-level check: strict consumers often sit on the
            # previous line of a wrapped call.
            window = "\n".join(lines[0][max(0, ln - 3):ln + 1])
            if any(c in window for c in STRICT_CONSUMERS):
                continue
            findings.append(Finding(
                "raw-getenv", path, ln, line,
                "getenv() without a strict parse helper on the same "
                "statement: route the value through harness/report or "
                "allowlist the site with its strictness argument"))
    return findings


def rule_undocumented_knob(files_lines, root):
    knobs = {}
    for path, lines in sorted(files_lines.items()):
        if not path.startswith(KNOB_DIRS):
            continue
        for ln, line in enumerate(lines[0], 1):
            for m in KNOB_RE.finditer(line):
                knobs.setdefault(m.group(1), (path, ln, line))
    if not knobs:
        return [Finding("undocumented-knob", "src", 0, "",
                        "found no knob literals at all -- broken scan?")]
    docs = []
    for name in ["README.md"]:
        p = os.path.join(root, name)
        if os.path.exists(p):
            with open(p, encoding="utf-8") as f:
                docs.append(f.read())
    docs_dir = os.path.join(root, "docs")
    if os.path.isdir(docs_dir):
        for dirpath, _, names in os.walk(docs_dir):
            for name in sorted(names):
                with open(os.path.join(dirpath, name),
                          encoding="utf-8") as f:
                    docs.append(f.read())
    blob = "\n".join(docs)
    findings = []
    for knob, (path, ln, line) in sorted(knobs.items()):
        if knob not in blob:
            findings.append(Finding(
                "undocumented-knob", path, ln, line,
                "knob '%s' is referenced in src/ or bench/ but absent "
                "from README.md and docs/ — add it to the README "
                "environment-knob reference table" % knob))
    return findings


def run_rules(root, files, knob_root=None):
    files_lines = {p: read_stripped(root, p) for p in files}
    findings = []
    findings += rule_unordered_iteration(files_lines)
    findings += rule_wall_clock(files_lines)
    findings += rule_raw_parse(files_lines)
    findings += rule_raw_getenv(files_lines)
    findings += rule_undocumented_knob(files_lines, knob_root or root)
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
# clean.cc must not trip any rule. The real-tree allowlist is NOT
# consulted for fixtures — the corpus checks raw detection.
EXPECTED_FIXTURE_FINDINGS = {
    "tests/lint_fixtures/unordered_iter.cc": ["unordered-iteration",
                                              "unordered-iteration"],
    "tests/lint_fixtures/wall_clock.cc": ["wall-clock", "wall-clock",
                                          "wall-clock"],
    "tests/lint_fixtures/raw_parse.cc": ["raw-parse"],
    "tests/lint_fixtures/raw_getenv.cc": ["raw-getenv"],
    "tests/lint_fixtures/undocumented_knob.cc": ["undocumented-knob"],
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
    # The fixture knob scan must look at the fixture files (KNOB_DIRS
    # filtering would skip tests/), so rebuild the per-rule pipeline
    # with the fixture paths mapped into a src/-style namespace.
    files_lines = {}
    for p in files:
        files_lines["src/lint_fixtures/" + os.path.basename(p)] = \
            read_stripped(root, p)
    findings = []
    findings += rule_unordered_iteration(files_lines)
    findings += rule_wall_clock(files_lines)
    findings += rule_raw_parse(files_lines)
    findings += rule_raw_getenv(files_lines)
    findings += rule_undocumented_knob(files_lines, root)

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
