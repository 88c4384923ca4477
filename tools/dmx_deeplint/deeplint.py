#!/usr/bin/env python3
"""deeplint: token-level semantic lint for the DMX tree.

Pluggable passes over a shared translation-unit model (model.py), built
by a self-contained lexer and scope tracker (frontend_tokens.py) that
needs no toolchain:

  lock-order           global mutex-acquisition graph must be acyclic;
                       the derived hierarchy is docs/LOCK_ORDER.md
  blocking-under-lock  no fsync/sleep/Env I/O/foreign CondVar wait while
                       a mutex is held
  status-discipline    IOError construction confined to the Env/WAL
                       boundary; no uncommented (void) drops; retry loops
                       must consult IsRetryable
  vector-dispatch      procedure-vector completeness and
                       dispatch-through-vector
  mutex-discipline     no raw std:: mutex/lock/condition-variable; every
                       member Mutex named by a GUARDED_BY/REQUIRES

src/util/thread_annotations.h, which wraps the std:: primitives, is
never linted.

Suppression: `// deeplint: allow(<pass>, <reason>)` on the finding's
line or the line above. The reason is mandatory — a reasonless allow()
is itself reported and cannot be suppressed. --no-suppressions (the
nightly audit lane) reports waived findings too.

Exit codes: 0 clean, 1 findings, 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import frontend_tokens  # noqa: E402
from model import Finding  # noqa: E402
from passes import ALL_PASSES  # noqa: E402
from passes import lock_order  # noqa: E402

SUPPRESS_RE = re.compile(
    r"//\s*deeplint:\s*allow\(\s*([\w-]+)\s*(?:,\s*([^)]*))?\)")

DEFAULT_EXCLUDE = ("thread_annotations.h",)


class Context:
    """What every pass gets: config + suppression lookup."""

    def __init__(self, config, suppressions, honor_suppressions=True):
        self.config = config
        self._supp = suppressions  # path -> {line: [(rule, reason)]}
        self.honor = honor_suppressions

    def is_suppressed(self, path, line, rule):
        if not self.honor:
            return False
        per_file = self._supp.get(path, {})
        for ln in (line, line - 1):
            for r, reason in per_file.get(ln, ()):
                if r == rule and reason.strip():
                    return True
        return False


def load_config(path):
    if path is None or not Path(path).is_file():
        return {}
    try:
        import tomllib
        with open(path, "rb") as f:
            return tomllib.load(f)
    except Exception as e:  # tomllib missing (<3.11) or bad file
        print(f"deeplint: warning: cannot read config {path}: {e}",
              file=sys.stderr)
        return {}


def collect_files(args, root):
    files = []
    roots = [Path(p) for p in args.paths]
    if not roots:
        roots = [root / d for d in ("src", "tools", "bench", "examples")
                 if (root / d).is_dir()]
    for r in roots:
        if r.is_dir():
            files.extend(sorted(r.rglob("*.h")) + sorted(r.rglob("*.cc")))
        elif r.is_file():
            files.append(r)
        else:
            print(f"deeplint: no such path: {r}", file=sys.stderr)
            return None
    uniq, out = set(), []
    for f in files:
        f = f.resolve()
        if f in uniq or f.suffix not in (".h", ".cc", ".cpp", ".cxx"):
            continue
        if f.name in DEFAULT_EXCLUDE:
            continue
        uniq.add(f)
        out.append(f)
    return out


def scan_suppressions(paths, root):
    """path(rel) -> {line: [(rule, reason)]}; also returns reasonless
    allow() findings (never suppressible)."""
    supp, bad = {}, []
    for p in paths:
        rel = relpath(p, root)
        per = {}
        try:
            lines = p.read_text(encoding="utf-8",
                                errors="replace").splitlines()
        except OSError:
            continue
        for i, line in enumerate(lines, 1):
            for m in SUPPRESS_RE.finditer(line):
                rule, reason = m.group(1), m.group(2) or ""
                per.setdefault(i, []).append((rule, reason))
                if not reason.strip():
                    bad.append(Finding(
                        rel, i, "suppression",
                        f"allow({rule}) without a reason: every deeplint "
                        "waiver must say why, e.g. // deeplint: "
                        f"allow({rule}, fsync order is the crash "
                        "contract)"))
                elif rule not in ALL_PASSES:
                    bad.append(Finding(
                        rel, i, "suppression",
                        f"allow({rule}) names no deeplint pass (have: "
                        f"{', '.join(sorted(ALL_PASSES))})"))
        # A run of comment-only lines above a statement acts as one
        # block: every allow() in it applies to the first code line
        # below, so two passes can be waived on consecutive lines.
        for i in sorted(per):
            if not lines[i - 1].lstrip().startswith("//"):
                continue
            j = i + 1
            while j <= len(lines) and \
                    lines[j - 1].lstrip().startswith("//"):
                j += 1
            if j <= len(lines) and j != i:
                per.setdefault(j, []).extend(per[i])
        if per:
            supp[rel] = per
    return supp, bad


def relpath(p, root):
    try:
        return str(Path(p).resolve().relative_to(root))
    except ValueError:
        return str(p)


def main():
    ap = argparse.ArgumentParser(
        prog="deeplint", description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*",
                    help="files/dirs (default: src tools bench examples)")
    ap.add_argument("--passes", metavar="P1,P2",
                    help="comma-separated subset (default: all)")
    ap.add_argument("--no-suppressions", action="store_true",
                    help="audit mode: report waived findings too")
    ap.add_argument("--emit-lock-order", metavar="FILE",
                    help="write the derived lock hierarchy and exit")
    ap.add_argument("--check-lock-order", metavar="FILE",
                    help="fail if FILE differs from the derived "
                         "hierarchy (doc drift)")
    ap.add_argument("--config", metavar="TOML",
                    default=str(Path(__file__).parent / "config.toml"))
    ap.add_argument("--output", metavar="FILE",
                    help="also write findings to FILE")
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent.parent
    config = load_config(args.config)
    files = collect_files(args, root)
    if files is None:
        return 2
    if not files:
        print("deeplint: no input files", file=sys.stderr)
        return 2

    pass_names = list(ALL_PASSES)
    if args.passes:
        pass_names = [p.strip() for p in args.passes.split(",")]
        unknown = [p for p in pass_names if p not in ALL_PASSES]
        if unknown:
            print(f"deeplint: unknown pass(es): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2

    models = frontend_tokens.TokenFrontend(config).build(files)
    for tu in models:
        tu.path = relpath(tu.path, root)

    supp, bad_suppressions = scan_suppressions(files, root)
    ctx = Context(config, supp,
                  honor_suppressions=not args.no_suppressions)

    # Lock-order doc modes run the graph build only.
    if args.emit_lock_order or args.check_lock_order:
        doc = lock_order.render_doc(models, ctx)
        if args.emit_lock_order:
            Path(args.emit_lock_order).write_text(doc, encoding="utf-8")
            print(f"deeplint: wrote {args.emit_lock_order}",
                  file=sys.stderr)
        if args.check_lock_order:
            want = Path(args.check_lock_order)
            have = want.read_text(encoding="utf-8") if want.is_file() \
                else ""
            if have.strip() != doc.strip():
                print(f"deeplint: {args.check_lock_order} is stale — "
                      "regenerate with --emit-lock-order "
                      f"{args.check_lock_order}", file=sys.stderr)
                return 1
        if args.emit_lock_order and not args.check_lock_order:
            return 0

    findings = list(bad_suppressions)
    for name in pass_names:
        for f in ALL_PASSES[name].run(models, ctx):
            if ctx.is_suppressed(f.path, f.line, f.rule):
                continue
            findings.append(f)

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    report = "\n".join(str(f) for f in findings)
    if report:
        print(report)
    if args.output:
        Path(args.output).write_text(report + ("\n" if report else ""),
                                     encoding="utf-8")
    n = len(findings)
    print("deeplint: "
          + (f"{n} finding(s) in {len(files)} files"
             if n else f"OK ({len(files)} files, "
                       f"{len(pass_names)} passes)"),
          file=sys.stderr)
    return 1 if n else 0


if __name__ == "__main__":
    sys.exit(main())
