"""vector-dispatch: procedure-vector completeness + dispatch discipline.

The paper's two core contracts: every registered vector is complete (a
missing entry point is a nullptr dispatch), and cross-extension work
goes through the registered vector. Registrations are recovered from the
token stream inside function bodies (declaration .. field assignments ..
`return var;`), so brace-initialized registrations (`SmOps ops{};`),
comments between tokens and assignments split across lines cannot hide
an unset entry point, and a sibling-vector bypass
(`HeapStorageMethodOps().insert(...)`) is found even when wrapped.
"""

from __future__ import annotations

from model import Finding

RULE = "vector-dispatch"

# Every storage method must provide these. partition_scan and checkpoint
# are genuinely optional (the kernel probes for nullptr).
SM_REQUIRED = frozenset((
    "name", "validate", "create", "drop", "open", "insert", "update",
    "erase", "fetch", "open_scan", "cost", "undo", "redo", "count",
    "verify",
))
# Every attachment type must provide these. on_delete is optional
# (pure-validation attachments have nothing to maintain on delete);
# lookup/open_scan/cost are what makes an attachment an access path.
AT_REQUIRED = frozenset((
    "name", "create_instance", "drop_instance", "open", "instance_count",
    "on_insert", "on_update",
))


def run(models, ctx):
    findings = []
    for tu in models:
        for reg in tu.vectors:
            if reg.inherited:
                # Only overridden fields are visible; the base vector
                # already passed completeness where it was registered.
                continue
            required = SM_REQUIRED if reg.kind == "SmOps" else AT_REQUIRED
            missing = sorted(required - reg.fields)
            if missing:
                findings.append(Finding(
                    tu.path, reg.line, RULE,
                    f"{reg.kind} registration '{reg.var}' leaves required "
                    f"entry points unset: {', '.join(missing)} — a "
                    "missing entry point is a nullptr dispatch at "
                    "runtime"))
            # An attachment may register undo alone: it keeps nothing
            # durable, so restart skips it and its state is derived from
            # the base relation at first touch. A storage method may not.
            undo, redo = "undo" in reg.fields, "redo" in reg.fields
            which = None
            if redo and not undo:
                which = "redo without undo"
            elif undo and not redo and reg.kind == "SmOps":
                which = "undo without redo"
            if which:
                findings.append(Finding(
                    tu.path, reg.line, RULE,
                    f"{reg.kind} '{reg.var}' registers {which} — "
                    "recovery needs both directions"))
            if reg.kind == "AtOps":
                if ({"lookup", "open_scan"} & reg.fields) and \
                        "list_instances" not in reg.fields:
                    findings.append(Finding(
                        tu.path, reg.line, RULE,
                        f"access-path AtOps '{reg.var}' (lookup/"
                        "open_scan) must provide list_instances"))
                if "repair_instance" in reg.fields and \
                        "release_instance" not in reg.fields:
                    findings.append(Finding(
                        tu.path, reg.line, RULE,
                        f"AtOps '{reg.var}' has repair_instance without "
                        "release_instance: REPAIR cannot drop the stale "
                        "cached state"))
                if "guards_integrity" in reg.fields and \
                        "verify" not in reg.fields:
                    findings.append(Finding(
                        tu.path, reg.line, RULE,
                        f"AtOps '{reg.var}' has guards_integrity without "
                        "verify: quarantine has nothing to re-check"))
        for d in tu.dispatches:
            findings.append(Finding(
                tu.path, d.line, RULE,
                f"direct dispatch {d.expr}: entry points must go through "
                "the registered vector (registry->sm_ops/at_ops), never "
                "a sibling's accessor"))
    return findings
