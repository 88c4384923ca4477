#!/usr/bin/env python3
"""dmx-lint: paper-specific invariant checks the C++ compiler can't see.

The extension architecture hangs off two contracts that are easy to break
silently: (1) every storage method / attachment type must register a
complete procedure vector — a missing entry point is a nullptr call at
dispatch time, possibly months later; (2) all cross-extension work must go
through a registered vector, never by calling into a sibling extension
directly. On top of that the concurrency hardening pass requires (3) no
naked std::mutex (use dmx::Mutex so Clang Thread Safety Analysis sees the
lock) and every member Mutex must guard something via GUARDED_BY/REQUIRES.

Rules (findings print as `path:line: [rule] message`, exit 1 if any):

  sm-incomplete      an SmOps registration misses a required entry point
  at-incomplete      an AtOps registration misses a required entry point
  undo-redo-pair     a vector registers undo without redo or vice versa
  lookup-needs-list  an AtOps with lookup/open_scan lacks list_instances
                     (REPAIR and the planner enumerate instances)
  repair-needs-release  repair_instance without release_instance (REPAIR
                     must drop the cached state it rebuilds)
  guard-needs-verify guards_integrity without a verify entry point (the
                     quarantine path has nothing to re-check)
  direct-dispatch    invoking a sibling vector's entry point through its
                     accessor (`HeapStorageMethodOps().insert(...)`);
                     copying a vector to inherit from it is fine
  raw-mutex          std::mutex / std::condition_variable / lock_guard /
                     unique_lock outside src/util/thread_annotations.h
  unguarded-mutex    a member `Mutex m;` with no GUARDED_BY(m)/REQUIRES(m)
                     in the same file
  raw-ioerror        Status::IOError / Status::RetryableIOError constructed
                     outside src/util and src/wal — only the Env/WAL
                     boundary may classify I/O failures, or the error
                     taxonomy (retryability, degraded-mode routing) silently
                     loses its meaning. Extensions must propagate the
                     Status they got from the Env.

Suppress a finding with `// dmx-lint: allow-<rule-suffix>` on its line,
e.g. `Mutex mu;  // dmx-lint: allow-unguarded (reason)`, or on a comment
line directly above when the flagged line has no room.
"""

import argparse
import re
import sys
from pathlib import Path

# The required entry-point sets of both procedure vectors are defined once,
# in deeplint's vector-dispatch pass; this line-level lint shares them.
sys.path.insert(0, str(Path(__file__).resolve().parent / "dmx_deeplint"))
from passes.vector_dispatch import AT_REQUIRED, SM_REQUIRED  # noqa: E402

SUPPRESS_RE = re.compile(r"//\s*dmx-lint:\s*allow-([\w-]+)")

findings = []
_current_lines = []  # lint_file sets this; report() peeks one line up


def report(path, lineno, rule, message, line=""):
    above = _current_lines[lineno - 2] if 2 <= lineno - 1 <= \
        len(_current_lines) else ""
    if not above.lstrip().startswith("//"):
        above = ""  # only a comment line above can carry the waiver
    for candidate in (line, above):
        m = SUPPRESS_RE.search(candidate)
        if m and m.group(1) in rule:
            return
    findings.append(f"{path}:{lineno}: [{rule}] {message}")


# -- procedure-vector completeness --------------------------------------------

REG_RE = re.compile(
    r"\b(SmOps|AtOps)\s+(\w+)\s*(?:=\s*(\w+)\s*\(\s*\)\s*)?;")


def check_vectors(path, text):
    lines = text.splitlines()
    for m in REG_RE.finditer(text):
        kind, var, base = m.group(1), m.group(2), m.group(3)
        start_line = text.count("\n", 0, m.start()) + 1
        # Collect `var.field = ...` assignments up to `return var;`.
        tail = text[m.end():]
        end = re.search(r"\breturn\s+%s\s*;" % re.escape(var), tail)
        if end is None:
            continue  # a declaration that is not a registration body
        body = tail[: end.start()]
        fields = set(re.findall(r"\b%s\s*\.\s*(\w+)\s*=" % re.escape(var),
                                body))
        inherited = base is not None
        required = SM_REQUIRED if kind == "SmOps" else AT_REQUIRED
        rule = "sm-incomplete" if kind == "SmOps" else "at-incomplete"
        if not inherited:
            missing = sorted(required - fields)
            if missing:
                report(path, start_line, rule,
                       f"{kind} registration leaves required entry points "
                       f"unset: {', '.join(missing)}",
                       lines[start_line - 1])
        # Pair/conditional rules (on an inherited vector only the
        # overridden fields are visible; the base already passed).
        if not inherited and ("undo" in fields) != ("redo" in fields):
            report(path, start_line, "undo-redo-pair",
                   f"{kind} registers "
                   f"{'undo without redo' if 'undo' in fields else 'redo without undo'}"
                   " — recovery needs both directions",
                   lines[start_line - 1])
        if kind == "AtOps" and not inherited:
            if ("lookup" in fields or "open_scan" in fields) \
                    and "list_instances" not in fields:
                report(path, start_line, "lookup-needs-list",
                       "access-path AtOps (lookup/open_scan) must provide "
                       "list_instances", lines[start_line - 1])
            if "repair_instance" in fields \
                    and "release_instance" not in fields:
                report(path, start_line, "repair-needs-release",
                       "repair_instance without release_instance: REPAIR "
                       "cannot drop the stale cached state",
                       lines[start_line - 1])
            if "guards_integrity" in fields and "verify" not in fields:
                report(path, start_line, "guard-needs-verify",
                       "guards_integrity without verify: quarantine has "
                       "nothing to re-check", lines[start_line - 1])


# -- dispatch discipline ------------------------------------------------------

DIRECT_RE = re.compile(
    r"\b\w+(?:StorageMethod|Attachment(?:Type)?)Ops\(\)\s*\.\s*\w+\s*\(")


def check_dispatch(path, text):
    for i, line in enumerate(text.splitlines(), 1):
        if DIRECT_RE.search(line):
            report(path, i, "direct-dispatch",
                   "entry points must be dispatched through the registered "
                   "vector (registry->sm_ops/at_ops), not by calling a "
                   "sibling's accessor directly", line)


# -- mutex discipline ---------------------------------------------------------

RAW_RE = re.compile(
    r"std::(mutex|recursive_mutex|shared_mutex|condition_variable(?:_any)?"
    r"|lock_guard|unique_lock|scoped_lock)\b")
# Indented (= member) declaration of an annotated Mutex. File-scope
# mutexes guarding function-local statics can't carry GUARDED_BY.
MEMBER_MUTEX_RE = re.compile(r"^\s+(?:mutable\s+)?Mutex\s+(\w+)\s*[;{]")


def check_mutexes(path, text, exempt):
    lines = text.splitlines()
    for i, line in enumerate(lines, 1):
        if exempt:
            break
        m = RAW_RE.search(line)
        if m:
            report(path, i, "raw-mutex",
                   f"std::{m.group(1)} is invisible to thread-safety "
                   "analysis; use dmx::Mutex / MutexLock / CondVar from "
                   "src/util/thread_annotations.h", line)
    for i, line in enumerate(lines, 1):
        m = MEMBER_MUTEX_RE.match(line)
        if not m:
            continue
        name = m.group(1)
        guarded = re.search(
            r"\b(?:GUARDED_BY|PT_GUARDED_BY|REQUIRES|REQUIRES_SHARED|"
            r"EXCLUSIVE_LOCKS_REQUIRED|ACQUIRE|RELEASE)\(\s*(?:\w+(?:\.|->))?"
            + re.escape(name) + r"\s*\)", text)
        if not guarded:
            report(path, i, "unguarded-mutex",
                   f"member Mutex '{name}' guards nothing: annotate the "
                   "protected members with GUARDED_BY or the helper methods "
                   f"with REQUIRES({name})", line)


# -- I/O error discipline -----------------------------------------------------

IOERROR_RE = re.compile(r"\bStatus::(?:Retryable)?IOError\s*\(")
# Only the layers that sit on the OS / device boundary may decide what an
# I/O failure is (and whether it is retryable). Everyone else propagates.
IOERROR_EXEMPT = ("src/util/", "src/wal/")


def check_ioerror(path, text):
    posix = str(path).replace("\\", "/")
    if any(part in posix for part in IOERROR_EXEMPT):
        return
    for i, line in enumerate(text.splitlines(), 1):
        if IOERROR_RE.search(line):
            report(path, i, "raw-ioerror",
                   "IOError may only be constructed at the Env/WAL boundary "
                   "(src/util, src/wal); propagate the Status the "
                   "environment returned so fault classification survives",
                   line)


def lint_file(path):
    global _current_lines
    text = path.read_text(encoding="utf-8", errors="replace")
    _current_lines = text.splitlines()
    exempt = path.name == "thread_annotations.h"
    check_vectors(path, text)
    check_dispatch(path, text)
    check_mutexes(path, text, exempt)
    check_ioerror(path, text)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*",
                    help="files or directories to lint (default: src/, "
                         "tools/, bench/, examples/ under the repo root)")
    args = ap.parse_args()

    roots = [Path(p) for p in args.paths]
    if not roots:
        repo = Path(__file__).resolve().parent.parent
        roots = [repo / d for d in ("src", "tools", "bench", "examples")
                 if (repo / d).is_dir()]

    files = []
    for root in roots:
        if root.is_dir():
            files += sorted(root.rglob("*.h")) + sorted(root.rglob("*.cc"))
        else:
            files.append(root)

    if not files:
        print("dmx-lint: no input files", file=sys.stderr)
        return 2
    for f in files:
        lint_file(f)
    for finding in findings:
        print(finding)
    if findings:
        print(f"dmx-lint: {len(findings)} finding(s) in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 1
    print(f"dmx-lint: OK ({len(files)} files)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
