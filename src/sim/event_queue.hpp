// Event storage for the simulator kernel: fixed-size inline-callable event
// records recycled through a free-list arena, ordered by a binary min-heap.
//
// An event is one 96-byte record from the arena: the callable is constructed
// in place (callables larger than the inline slot fall back to one boxed
// allocation), so scheduling does not allocate in steady state. Ordering is a
// binary heap of record pointers keyed on (time, seq). The KPN rigs keep only
// about ten events pending, so a sift is two or three levels deep. (A
// calendar queue does worse here: at that occupancy its density heuristic
// never widens the 1 ns buckets, and most pops scan the whole bucket table.)
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "rtc/time.hpp"

namespace sccft::sim {

using rtc::TimeNs;

struct EventRecord;

/// Type-erased manual vtable for the callable stored in an EventRecord.
struct EventOps {
  void (*invoke)(EventRecord* rec);
  void (*destroy)(EventRecord* rec) noexcept;
};

/// Inline storage for the callable. 48 bytes covers every kernel-path lambda
/// (channel wakes capture a coroutine handle; sim::Delay adds a weak_ptr;
/// a by-value std::function is 32) — larger captures are boxed on the heap.
inline constexpr std::size_t kInlineCallableBytes = 48;

struct EventRecord {
  TimeNs time = 0;
  std::uint64_t seq = 0;
  EventRecord* next = nullptr;  ///< free list link
  const EventOps* ops = nullptr;
  alignas(16) unsigned char storage[kInlineCallableBytes];
};

namespace detail {

template <typename F>
struct InlineOps {
  static void invoke(EventRecord* rec) {
    (*reinterpret_cast<F*>(static_cast<void*>(rec->storage)))();
  }
  static void destroy(EventRecord* rec) noexcept {
    reinterpret_cast<F*>(static_cast<void*>(rec->storage))->~F();
  }
  static constexpr EventOps ops{&invoke, &destroy};
};

template <typename F>
struct BoxedOps {
  static void invoke(EventRecord* rec) {
    (**reinterpret_cast<F**>(static_cast<void*>(rec->storage)))();
  }
  static void destroy(EventRecord* rec) noexcept {
    delete *reinterpret_cast<F**>(static_cast<void*>(rec->storage));
  }
  static constexpr EventOps ops{&invoke, &destroy};
};

}  // namespace detail

/// Constructs `fn` into `rec` (inline when it fits, boxed otherwise) and
/// points rec->ops at the matching vtable.
template <typename F>
void emplace_callable(EventRecord* rec, F&& fn) {
  using Fn = std::decay_t<F>;
  static_assert(std::is_invocable_r_v<void, Fn&>);
  if constexpr (sizeof(Fn) <= kInlineCallableBytes && alignof(Fn) <= 16 &&
                std::is_nothrow_move_constructible_v<Fn>) {
    ::new (static_cast<void*>(rec->storage)) Fn(std::forward<F>(fn));
    rec->ops = &detail::InlineOps<Fn>::ops;
  } else {
    ::new (static_cast<void*>(rec->storage)) Fn*(new Fn(std::forward<F>(fn)));
    rec->ops = &detail::BoxedOps<Fn>::ops;
  }
}

/// Free-list arena of EventRecords in chunked blocks: allocation and release
/// are pointer pops/pushes, and records keep cache locality across recycling
/// (LIFO reuse means the hottest record is the one just dispatched).
class EventArena final {
 public:
  EventArena() = default;
  EventArena(const EventArena&) = delete;
  EventArena& operator=(const EventArena&) = delete;

  [[nodiscard]] EventRecord* allocate() {
    if (free_ == nullptr) grow();
    EventRecord* rec = free_;
    free_ = rec->next;
    return rec;
  }

  /// The callable must already be destroyed (ops->destroy) by the caller.
  void release(EventRecord* rec) noexcept {
    rec->next = free_;
    free_ = rec;
  }

 private:
  void grow();

  static constexpr std::size_t kBlockRecords = 256;
  std::vector<std::unique_ptr<EventRecord[]>> blocks_;
  EventRecord* free_ = nullptr;
};

/// Binary min-heap of EventRecord pointers ordered by (time, seq). The pair
/// is a strict total order (seq is unique), so the pop sequence is a pure
/// function of the inserts: any correct priority queue dispatches the same
/// events in the same order, and reruns stay bit-identical.
class EventQueue final {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  void insert(EventRecord* rec);

  /// Minimum (time, seq) record without removing it, or nullptr when empty.
  [[nodiscard]] EventRecord* peek() const {
    return heap_.empty() ? nullptr : heap_.front();
  }

  /// Removes and returns the minimum record, or nullptr when empty.
  EventRecord* pop();

  /// Caller guarantee: every queued and future event has time >= t (used by
  /// run_until when it advances simulated time past the last event). Only
  /// tightens the insert-side ordering check.
  void advance_floor(TimeNs t);

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Visits every queued record (unordered) — the simulator's destructor uses
  /// this to destroy still-pending callables.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (EventRecord* rec : heap_) fn(rec);
  }

 private:
  std::vector<EventRecord*> heap_;
  TimeNs floor_ = 0;  ///< no queued event is earlier than this
};

}  // namespace sccft::sim
