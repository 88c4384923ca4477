"""Translation-unit model the deeplint passes run on.

The token frontend (frontend_tokens.py) reduces each C++ source file to
this model; the passes only ever see the model. It is deliberately
small: functions with their lock events, call sites annotated with the
held-lock set, condition-variable waits, procedure-vector registrations,
and the handful of raw-source facts the status pass (IOError
constructions, (void) drops) and the mutex pass (raw std:: primitives,
member Mutex declarations) need.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class LockEvent:
    """An acquisition of `lock` with `held` already held."""
    lock: str            # canonical id, e.g. "LogManager::mu_"
    line: int
    held: tuple = ()     # canonical ids held at this point, outermost first
    manual: bool = False  # .Lock()/.Unlock() pair rather than RAII MutexLock


@dataclass
class CallEvent:
    expr: str            # normalized call path, e.g. "env_->SyncDir"
    name: str            # last component, e.g. "SyncDir"
    recv: str | None     # receiver expression ("env_", "file_") or None
    recv_type: str | None  # resolved receiver type name, if known
    line: int
    held: tuple = ()     # canonical lock ids held at the call
    held_lines: dict = field(default_factory=dict)  # lock -> acq line


@dataclass
class WaitEvent:
    cv: str              # condition-variable expression
    mutex: str | None    # canonical id of the mutex the cv is bound to
    line: int
    held: tuple = ()


@dataclass
class FunctionModel:
    qual: str            # "Class::Name" or "Name"
    cls: str | None
    name: str
    file: str
    line: int
    entry_locks: tuple = ()      # REQUIRES(...) / *Locked contract
    acquires: list = field(default_factory=list)   # [LockEvent]
    calls: list = field(default_factory=list)      # [CallEvent]
    waits: list = field(default_factory=list)      # [WaitEvent]
    has_loop: bool = False
    mentions: frozenset = frozenset()  # identifier set (cheap text facts)


@dataclass
class VectorReg:
    """A procedure-vector registration: `SmOps v; v.x = ...; return v;`"""
    kind: str            # "SmOps" | "AtOps"
    var: str
    line: int
    inherited: bool      # initialized from another vector accessor
    fields: set = field(default_factory=set)


@dataclass
class DirectDispatch:
    """`HeapStorageMethodOps().insert(...)` — sibling vector bypass."""
    expr: str
    line: int


# Constructors only their owning layer may call ([status.confined] in
# config.toml), used when the config does not say.
DEFAULT_CONFINED = {
    "Status::IOError": ["src/util", "src/wal"],
    "Status::RetryableIOError": ["src/util", "src/wal"],
}


def confined_calls(config):
    """Map of confined call name -> owning directories or files."""
    return config.get("status", {}).get("confined", DEFAULT_CONFINED)


@dataclass
class StatusFact:
    """Raw-source facts the status-discipline pass consumes."""
    kind: str            # "confined" | "void-drop"
    detail: str
    line: int
    commented: bool = False  # a // comment shares the line (reason given)


@dataclass
class MutexFact:
    """Declarations the mutex-discipline pass consumes."""
    kind: str            # "raw" (std:: primitive) | "member" (Mutex member)
    detail: str          # "std::mutex" | "Class::mu_"
    line: int
    guarded: bool = False  # member: named by GUARDED_BY/REQUIRES in its file


@dataclass
class ClassInfo:
    name: str
    mutexes: list = field(default_factory=list)    # member mutex names
    members: dict = field(default_factory=dict)    # member name -> type name
    cv_bound_to: dict = field(default_factory=dict)  # cv member -> mutex expr


@dataclass
class TUModel:
    path: str
    functions: list = field(default_factory=list)  # [FunctionModel]
    classes: dict = field(default_factory=dict)    # name -> ClassInfo
    vectors: list = field(default_factory=list)    # [VectorReg]
    dispatches: list = field(default_factory=list)  # [DirectDispatch]
    status_facts: list = field(default_factory=list)  # [StatusFact]
    mutex_facts: list = field(default_factory=list)  # [MutexFact]


@dataclass
class Finding:
    path: str
    line: int
    rule: str            # pass id, e.g. "lock-order"
    message: str

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"
