#!/usr/bin/env python3
"""CTest driver for tools/dmx_deeplint.

Usage: deeplint_test.py <repo-root>

Asserts:
  1. src/, tools/, bench/ and examples/ are clean and docs/LOCK_ORDER.md
     matches the lock-order graph derived from them (doc drift fails);
  2. the broken fixtures are flagged: the lock cycles, each
     blocking-under-lock shape, each status-discipline shape, every
     procedure-vector defect and direct dispatch at its line, and each
     mutex-discipline shape at its line — but not a comment that merely
     names std::mutex;
  3. a reasoned allow() silences its finding, a reasonless one is
     itself a [suppression] finding, and --no-suppressions reports
     waived findings again.
"""

import subprocess
import sys
from pathlib import Path

FIX = "tests/lint/fixtures/deeplint/"

# (fixture:line, finding text) pairs the fixture run must report.
EXPECTED_AT = (
    # vector-dispatch: incomplete vectors, pairing, list_instances,
    # sibling bypass — including the brace-initialized declaration.
    ("bad_smops.cc:18", "SmOps registration 'o' leaves required entry "
                        "points unset: erase, fetch, redo, verify"),
    ("bad_smops.cc:18", "SmOps 'o' registers undo without redo"),
    ("bad_smops.cc:39", "AtOps registration 'o' leaves required entry "
                        "points unset: on_update"),
    ("bad_smops.cc:39", "access-path AtOps 'o' (lookup/open_scan) must "
                        "provide list_instances"),
    ("bad_smops.cc:56", "direct dispatch HeapStorageMethodOps().count"),
    ("vector_braceinit.cc:15", "required entry points unset: redo"),
    ("vector_braceinit.cc:15", "registers undo without redo"),
    # status-discipline: both IOError forms, a hand-framed update record,
    # drop, blind retry.
    ("bad_smops.cc:61", "Status::IOError constructed outside"),
    ("bad_smops.cc:66", "Status::RetryableIOError constructed outside"),
    ("status_abuse.cc:35", "MakeUpdateRecord constructed outside"),
    ("status_abuse.cc:18", "drops a call result with no reason comment"),
    ("status_abuse.cc:23", "never consults Status::IsRetryable"),
    # mutex-discipline: raw std::mutex twice, the unguarded member.
    ("bad_mutex.h:12", "[mutex-discipline] std::mutex is invisible"),
    ("bad_mutex.h:18", "[mutex-discipline] std::mutex is invisible"),
    ("bad_mutex.h:28", "[mutex-discipline] member Mutex "
                       "UnguardedMutexHolder::mu_ guards nothing"),
)


def run(tool, *argv):
    proc = subprocess.run(
        [sys.executable, str(tool)] + [str(a) for a in argv],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    root = Path(sys.argv[1]).resolve()
    deeplint = root / "tools" / "dmx_deeplint" / "deeplint.py"
    fixtures = root / FIX
    failures = []

    # 1. Real tree clean; the checked-in lock hierarchy is current.
    rc, out = run(deeplint, "--check-lock-order",
                  root / "docs" / "LOCK_ORDER.md",
                  *(root / d for d in ("src", "tools", "bench", "examples")))
    if rc != 0:
        failures.append(f"src tools bench examples should deeplint clean "
                        f"with a current docs/LOCK_ORDER.md, got "
                        f"rc={rc}:\n{out}")

    # 2. Broken fixtures are flagged, each shape at least once.
    rc, out = run(deeplint, fixtures)
    if rc != 1:
        failures.append(f"fixtures should fail deeplint with rc=1, got "
                        f"rc={rc}:\n{out}")
    lines = out.splitlines()
    for where, what in EXPECTED_AT:
        prefix = f"{FIX}{where}: "
        if not any(l.startswith(prefix) and what in l for l in lines):
            failures.append(f"expected {what!r} at {where}, "
                            f"output:\n{out}")
    for needle in (
            # lock-order: the fixture cycle, both edges named.
            "[lock-order]", "Account::mu_ -> Ledger::mu_",
            "Ledger::mu_ -> Account::mu_",
            # ... and the partitioned pool's cycle, seen past operator=,
            # through an alignas struct and reference-bound locals.
            "Pool::evict_mu_ -> Pool::Shard::mu",
            "Pool::Shard::mu -> Pool::evict_mu_",
            # blocking-under-lock: syscall, Env I/O, foreign-mutex wait.
            "Flusher::HoldsAcrossFsync", "Flusher::HoldsAcrossEnvIo",
            "TwoLocks::WaitsHoldingForeign",
            # status-discipline: IOError confined to src/util, src/wal.
            f"{FIX}status_abuse.cc:13: [status-discipline] "
            "Status::IOError",
            # suppression hygiene: reasonless allow() is a finding.
            "[suppression]", "allow(blocking-under-lock) without a reason",
    ):
        if needle not in out:
            failures.append(f"expected fixture finding {needle!r}, "
                            f"output:\n{out}")
    # Tokens, not lines: the comment above bad_mutex.h:12 names
    # std::mutex and is not a finding.
    if f"{FIX}bad_mutex.h:11:" in out:
        failures.append(f"a comment naming std::mutex must not be "
                        f"flagged, output:\n{out}")

    # 3a. Reasoned waivers silence their findings.
    for waived in ("WaivedByDesign", "CallerSynchronized"):
        if waived in out:
            failures.append(f"reasoned allow() should silence {waived}, "
                            f"output:\n{out}")
    # 3b. The reasonless allow() suppresses nothing.
    if "Flusher::ReasonlessWaiver" not in out:
        failures.append(f"reasonless allow() must not suppress, "
                        f"output:\n{out}")
    # 3c. The nightly audit mode reports the waived findings again.
    rc, out = run(deeplint, "--no-suppressions", fixtures / "blocking.cc",
                  fixtures / "bad_mutex.h")
    for waived in ("WaivedByDesign", "CallerSynchronized::mu_"):
        if waived not in out:
            failures.append(f"--no-suppressions should report the waived "
                            f"{waived} finding, output:\n{out}")

    if failures:
        print("deeplint_test FAILED:", file=sys.stderr)
        for f in failures:
            print(" * " + f, file=sys.stderr)
        return 1
    print("deeplint_test OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
