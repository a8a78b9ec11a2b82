// Reader-writer list-based range lock (paper §4.2, Listings 2 and 3).
//
// Overlapping readers coexist (ordered by start address); any overlap involving a
// writer conflicts. Each slow-path insertion runs Listing 2's compare() (RwOrder,
// harris_list.h) and is followed by a fence and Listing 3's validation pass. The
// algorithm is documented with its only implementation, the bucketed lock in
// list_lockfree_range_lock.h; this lock is its 1-bucket case, so every range maps to
// the single list head. It keeps that lock's whole reader-writer API —
// LockRead/LockWrite, the Try*/…For/…Bounded variants, Unlock, ReadGuard/WriteGuard
// and the Debug* introspection. Pass Options to get the multi-bucket geometry.
#ifndef SRL_CORE_LIST_RW_RANGE_LOCK_H_
#define SRL_CORE_LIST_RW_RANGE_LOCK_H_

#include "src/core/list_lockfree_range_lock.h"

namespace srl {

class ListRwRangeLock : public BucketedListRangeLock<RwOrder> {
 public:
  using BucketedListRangeLock::BucketedListRangeLock;
  ListRwRangeLock() : BucketedListRangeLock(Options{.buckets = 1}) {}
};

}  // namespace srl

#endif  // SRL_CORE_LIST_RW_RANGE_LOCK_H_
