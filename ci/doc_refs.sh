#!/usr/bin/env bash
# The documents name only what exists (ROADMAP item 18c).
#
# Reads README.md, DESIGN.md, EXPERIMENTS.md and the verify skill, and
# fails on any reference that does not resolve:
#
# * a backticked repository path (`crates/core/src/dp.rs`, `perf/`,
#   `crates/harness/src/{random,recost}.rs`): a tracked file, or a
#   directory holding one. A path counts when its first component is a
#   top-level tracked entry, so build outputs (`target/…`) and URLs do
#   not;
# * a `file.rs:NNN` reference, backticked or not: the file has line
#   NNN (a bare file name may be any tracked file of that name);
# * a backticked snake_case name of three or more words, optionally
#   `path::`-qualified or followed by `()`: it occurs as a whole word
#   in a tracked file outside `vendor/` that is not Markdown.
#
# Run from the repository root: `bash ci/doc_refs.sh`. Prints each
# failure as `document:line: reference (reason)` and exits 1 if any.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

python3 - <<'EOF'
import fnmatch
import re
import subprocess
import sys

DOCUMENTS = ["README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"]

tracked = subprocess.run(["git", "ls-files"], capture_output=True, text=True, check=True).stdout.split()
files = set(tracked)
directories = {"/".join(f.split("/")[:k]) for f in tracked for k in range(1, f.count("/") + 1)}
top_level = {f.split("/")[0] for f in tracked}
by_name = {}
for f in tracked:
    by_name.setdefault(f.rsplit("/", 1)[-1], []).append(f)

# Every whole word of the tracked files that are neither Markdown nor vendored.
words = set()
for f in tracked:
    if f.endswith(".md") or f.startswith("vendor/"):
        continue
    try:
        with open(f, encoding="utf-8") as source:
            words.update(re.findall(r"[A-Za-z0-9_]+", source.read()))
    except (UnicodeDecodeError, FileNotFoundError):
        continue

line_counts = {}


def lines_of(path):
    if path not in line_counts:
        with open(path, encoding="utf-8") as source:
            line_counts[path] = sum(1 for _ in source)
    return line_counts[path]


def expand(path):
    """`a/{b,c}.rs` as `a/b.rs` and `a/c.rs`."""
    brace = re.search(r"\{([^{}]*)\}", path)
    if not brace:
        return [path]
    head, tail = path[: brace.start()], path[brace.end() :]
    return [p for option in brace.group(1).split(",") for p in expand(head + option + tail)]


def path_resolves(path):
    for candidate in expand(path.rstrip("/")):
        if any(ch in candidate for ch in "*?["):
            if not any(fnmatch.fnmatch(f, candidate) for f in files | directories):
                return False
        elif candidate not in files and candidate not in directories:
            return False
    return True


PATH = re.compile(r"^[\w.-]+(?:/[\w.*?{},-]*)+$")
LINE_REF = re.compile(r"(?<![\w/.-])([\w./-]*\w\.rs):(\d+)")
NAME = re.compile(r"^(?:\w+::)*([a-z][a-z0-9]*(?:_[a-z0-9]+){2,})(?:\(\))?$")

failures = []
for document in DOCUMENTS:
    with open(document, encoding="utf-8") as text:
        for number, line in enumerate(text, 1):
            where = f"{document}:{number}"
            for path, at in LINE_REF.findall(line):
                candidates = [path] if "/" in path else by_name.get(path, [])
                candidates = [c for c in candidates if c in files]
                if not candidates:
                    failures.append(f"{where}: {path}:{at} (no such file)")
                elif not any(int(at) <= lines_of(c) for c in candidates):
                    failures.append(f"{where}: {path}:{at} (no line {at})")
            for code in re.findall(r"`([^`\n]+)`", line):
                if PATH.match(code) and code.split("/")[0] in top_level:
                    if not path_resolves(code):
                        failures.append(f"{where}: {code} (no such path)")
                name = NAME.match(code)
                if name and name.group(1) not in words:
                    failures.append(f"{where}: {code} (named nowhere in the code)")

for failure in failures:
    print(failure)
if failures:
    sys.exit(1)
print(f"doc refs: {', '.join(DOCUMENTS)} resolve")
EOF
