"""mutex-discipline: every lock is one Clang Thread Safety Analysis sees.

Two rules, on tokens (a comment or string naming std::mutex is not a
finding):

  * raw primitive — std::mutex / recursive_mutex / shared_mutex /
    condition_variable(_any) / lock_guard / unique_lock / scoped_lock
    are invisible to the analysis; use dmx::Mutex / MutexLock / CondVar
    from src/util/thread_annotations.h, the one file that wraps them
    (deeplint never reads it).
  * unguarded member — a member `Mutex` that no GUARDED_BY /
    PT_GUARDED_BY / REQUIRES / ACQUIRE / RELEASE in its file names
    guards nothing the analysis can check. File-scope mutexes are
    exempt: the function-local statics they guard cannot carry
    GUARDED_BY.
"""

from __future__ import annotations

from model import Finding

RULE = "mutex-discipline"


def run(models, ctx):
    findings = []
    for tu in models:
        for fact in tu.mutex_facts:
            if fact.kind == "raw":
                findings.append(Finding(
                    tu.path, fact.line, RULE,
                    f"{fact.detail} is invisible to thread-safety "
                    "analysis; use dmx::Mutex / MutexLock / CondVar from "
                    "src/util/thread_annotations.h"))
            elif not fact.guarded:
                name = fact.detail.rsplit("::", 1)[-1]
                findings.append(Finding(
                    tu.path, fact.line, RULE,
                    f"member Mutex {fact.detail} guards nothing: annotate "
                    f"the protected members with GUARDED_BY({name}) or "
                    f"the helper methods with REQUIRES({name})"))
    return findings
