// Catalog: the common descriptor management facility.
//
// "Instead of requiring each relation storage or access path to store and
// access its own descriptor data, the common system will maintain and
// manage relation descriptors. Each extension supplies and interprets the
// contents of its own descriptor data, but the common system manages the
// composite relation descriptor."
//
// The catalog is loaded entirely at open. Every descriptor object is
// immutable once installed: DDL swaps in a fresh one. Query compilation
// shares the current object (Snapshot), so a bound plan carries its
// descriptor and never touches the catalog at run time.
// Persistence is an atomic whole-file rewrite (write temp + rename),
// performed when a DDL transaction commits.

#ifndef DMX_CATALOG_CATALOG_H_
#define DMX_CATALOG_CATALOG_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/catalog/descriptor.h"
#include "src/util/env.h"
#include "src/util/thread_annotations.h"

namespace dmx {

class Catalog {
 public:
  Catalog() = default;

  /// Load the catalog from `path` through `env` (Env::Default() when null;
  /// missing file = empty catalog).
  Status Load(const std::string& path, Env* env = nullptr);
  /// Atomically persist the current state (durable once OK).
  Status Save() const;

  /// Register a new relation; assigns descriptor->id. Fails if the name is
  /// taken. In-memory only; call Save at commit.
  Status AddRelation(RelationDescriptor desc, RelationId* id);

  /// Remove a relation from the name/id maps. Returns the removed
  /// descriptor so a drop can be restored if the transaction aborts.
  Status RemoveRelation(RelationId id, RelationDescriptor* removed);

  /// Restore a previously removed descriptor (DDL abort path).
  Status RestoreRelation(RelationDescriptor desc);

  /// Replace a relation's descriptor (attachment create/drop). Bumps the
  /// version so dependent plans invalidate. The previous descriptor object
  /// is retired, never mutated: readers that already hold its pointer (or
  /// Slices into its strings) keep a valid — if stale — snapshot.
  Status UpdateRelation(const RelationDescriptor& desc);

  /// Atomic read-modify-write of a relation's descriptor: `fn` receives a
  /// copy of the *current* descriptor under the catalog lock and returns
  /// whether it changed anything. On true the copy is installed (version
  /// bumped, old descriptor retired as in UpdateRelation); on false the
  /// call is a no-op. This is the safe way to flip quarantine state from
  /// paths that hold only a shared relation lock: concurrent mutators
  /// merge instead of overwriting each other's entries.
  Status MutateRelation(RelationId id,
                        const std::function<bool(RelationDescriptor&)>& fn);

  /// Rename a relation (storage-method migration swaps names). Bumps the
  /// version.
  Status RenameRelation(RelationId id, const std::string& new_name);

  /// Lookup by name / id. Returns a stable pointer owned by the catalog;
  /// valid until the relation is dropped, but frozen at the state it had
  /// when fetched — an Update/Mutate/Rename swaps in a fresh object, so
  /// re-Find after updating to observe the change.
  const RelationDescriptor* Find(const std::string& name) const;
  const RelationDescriptor* Find(RelationId id) const;

  /// Shared ownership of the current descriptor object (null if absent):
  /// what a bound plan embeds. Sharing instead of copying is safe because
  /// the object is never mutated; it outlives a later drop for as long as
  /// a plan holds it.
  std::shared_ptr<const RelationDescriptor> Snapshot(
      const std::string& name) const;

  /// Current version of a relation, or 0 if dropped — the plan-validity
  /// check ("a uniform mechanism for recording the dependencies of
  /// execution plans on the relations they use").
  uint64_t VersionOf(RelationId id) const;

  std::vector<RelationId> AllRelationIds() const;

 private:
  mutable Mutex mu_;
  Env* env_ GUARDED_BY(mu_) = nullptr;
  std::string path_ GUARDED_BY(mu_);
  RelationId next_id_ GUARDED_BY(mu_) = 1;
  std::map<RelationId, std::shared_ptr<const RelationDescriptor>> by_id_
      GUARDED_BY(mu_);
  std::map<std::string, RelationId> by_name_ GUARDED_BY(mu_);
  /// Superseded descriptors, kept alive so readers that fetched a raw
  /// pointer before an update never dangle. Bounded by the number of DDL /
  /// quarantine events in the process lifetime.
  std::vector<std::shared_ptr<const RelationDescriptor>> retired_
      GUARDED_BY(mu_);
};

}  // namespace dmx

#endif  // DMX_CATALOG_CATALOG_H_
