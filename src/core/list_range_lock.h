// Exclusive list-based range lock — the paper's core contribution (§4.1, Listing 1).
//
// Acquired ranges live in one list sorted by start address; inserting a node with a
// single CAS *is* acquiring the range, and releasing marks the node (one fetch_add).
// The algorithm, its differences from the pseudo-code and the §4.5 fast path are
// documented with their only implementation in harris_list.h. This lock is the
// 1-bucket case of the bucketed lock-free lock: every range maps to the single head,
// so it keeps that lock's whole API — Lock/TryLock/LockFor, the LockBounded patience
// hook of the fairness layer (§4.3), Unlock, Guard and the Debug* introspection.
#ifndef SRL_CORE_LIST_RANGE_LOCK_H_
#define SRL_CORE_LIST_RANGE_LOCK_H_

#include "src/core/list_lockfree_range_lock.h"

namespace srl {

class ListRangeLock : public ListLockFreeRangeLock {
 public:
  ListRangeLock() : ListLockFreeRangeLock(Options{.buckets = 1}) {}
};

}  // namespace srl

#endif  // SRL_CORE_LIST_RANGE_LOCK_H_
