"""status-discipline: the fault taxonomy survives from Env to handler.

Three rules, on tokens (comments/strings/multi-line can neither hide nor
fake a construction):

  * confinement — each constructor in the [status.confined] table may be
    called only under its owning directories or files. Status::IOError /
    Status::RetryableIOError belong to the OS/device boundary (src/util,
    src/wal): anywhere else the retryable bit and degraded-mode routing
    silently lose meaning. MakeUpdateRecord belongs to the WAL and the
    extension log service, so record framing and prev_lsn chaining have
    one owner.
  * void-drop — a call result dropped with `(void)expr(...)` must carry a
    reason comment on the same line. Status is [[nodiscard]]; an
    uncommented (void) is the one syntax that silently defeats it.
  * retry-taxonomy — a function that loops to retry (identifier mentions
    of retry/attempt/backoff + a loop + `.ok()` tests) must consult
    IsRetryable()/retryability somewhere: retrying on a bare !ok()
    discards the taxonomy and re-drives hard faults.
"""

from __future__ import annotations

from model import Finding, confined_calls

RULE = "status-discipline"

RETRY_HINTS = ("retry", "retries", "attempt", "attempts", "backoff")


def _under(path, owners):
    """Is `path` one of the owner files or inside an owner directory?"""
    p = "/" + path.replace("\\", "/")
    return any(f"/{o}/" in p or p.endswith(f"/{o}") for o in owners)


def run(models, ctx):
    confined = confined_calls(ctx.config)
    findings = []
    for tu in models:
        for fact in tu.status_facts:
            if fact.kind == "confined":
                owners = confined[fact.detail]
                if not _under(tu.path, owners):
                    findings.append(Finding(
                        tu.path, fact.line, RULE,
                        f"{fact.detail} constructed outside its owners "
                        f"({', '.join(owners)}): call through the owning "
                        "layer ([status.confined] in config.toml says why)"))
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
