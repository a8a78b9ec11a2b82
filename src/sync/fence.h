// Sequentially-consistent fence that stays usable under ThreadSanitizer.
//
// TSan does not model std::atomic_thread_fence (GCC even rejects it outright with
// -Werror under -fsanitize=thread). The standard substitute is a seq_cst RMW on a
// process-wide dummy atomic: it creates the same total-order point and, unlike the
// fence, gives TSan a happens-before edge it can track — so the algorithms that pair
// fences (the reader-writer list lock's insert/validate protocol) stay analyzable
// instead of producing false positives.
#ifndef SRL_SYNC_FENCE_H_
#define SRL_SYNC_FENCE_H_

#include <atomic>

#if defined(__SANITIZE_THREAD__)
#define SRL_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SRL_TSAN 1
#endif
#endif

namespace srl {

inline void SeqCstFence() {
#ifdef SRL_TSAN
  static std::atomic<unsigned> dummy{0};
  dummy.fetch_add(1, std::memory_order_seq_cst);
#else
  std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
}

}  // namespace srl

#endif  // SRL_SYNC_FENCE_H_
