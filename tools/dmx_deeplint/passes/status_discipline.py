"""status-discipline: the fault taxonomy survives from Env to handler.

Three rules, on tokens (comments/strings/multi-line can neither hide nor
fake a construction):

  * ioerror-confinement — Status::IOError / Status::RetryableIOError may
    be constructed only under the configured directories (src/util,
    src/wal): only the OS/device boundary may classify I/O failures, or
    the retryable bit and degraded-mode routing silently lose meaning.
  * void-drop — a call result dropped with `(void)expr(...)` must carry a
    reason comment on the same line. Status is [[nodiscard]]; an
    uncommented (void) is the one syntax that silently defeats it.
  * retry-taxonomy — a function that loops to retry (identifier mentions
    of retry/attempt/backoff + a loop + `.ok()` tests) must consult
    IsRetryable()/retryability somewhere: retrying on a bare !ok()
    discards the taxonomy and re-drives hard faults.
"""

from __future__ import annotations

from model import Finding

RULE = "status-discipline"

DEFAULT_IOERROR_DIRS = ("src/util", "src/wal")
RETRY_HINTS = ("retry", "retries", "attempt", "attempts", "backoff")


def _under(path, dirs):
    p = path.replace("\\", "/")
    return any(f"/{d}/" in f"/{p}" or p.startswith(f"{d}/")
               for d in dirs)


def run(models, ctx):
    cfg = ctx.config.get("status", {})
    allowed = tuple(cfg.get("ioerror_dirs", DEFAULT_IOERROR_DIRS))
    findings = []
    for tu in models:
        confined = _under(tu.path, allowed)
        for fact in tu.status_facts:
            if fact.kind == "ioerror" and not confined:
                findings.append(Finding(
                    tu.path, fact.line, RULE,
                    f"{fact.detail} constructed outside the Env/WAL "
                    f"boundary ({', '.join(allowed)}): propagate the "
                    "Status the environment returned so retryability "
                    "and degraded-mode routing survive"))
            elif fact.kind == "void-drop" and not fact.commented:
                findings.append(Finding(
                    tu.path, fact.line, RULE,
                    f"(void){fact.detail}(...) drops a call result with "
                    "no reason comment; say why the result does not "
                    "matter on the same line"))
        for fn in tu.functions:
            if not fn.has_loop:
                continue
            lowered = {m.lower() for m in fn.mentions}
            if not any(h in lowered for h in RETRY_HINTS):
                continue
            tests_ok = any(c.name == "ok" for c in fn.calls)
            if not tests_ok:
                continue
            if "isretryable" in lowered or "retryable" in lowered:
                continue
            findings.append(Finding(
                tu.path, fn.line, RULE,
                f"{fn.qual} looks like a retry loop (mentions "
                f"{sorted(h for h in RETRY_HINTS if h in lowered)}) but "
                "never consults Status::IsRetryable: retrying on bare "
                "!ok() re-drives hard faults the taxonomy already "
                "classified as non-retryable"))
    return findings
