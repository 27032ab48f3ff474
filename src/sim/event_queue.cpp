#include "sim/event_queue.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace sccft::sim {

void EventArena::grow() {
  blocks_.push_back(std::make_unique<EventRecord[]>(kBlockRecords));
  EventRecord* block = blocks_.back().get();
  for (std::size_t i = kBlockRecords; i-- > 0;) {
    block[i].next = free_;
    free_ = &block[i];
  }
}

namespace {

/// Heap comparator: std::*_heap keep the *largest* element at the front, so
/// "less" here means "fires later" to put the earliest (time, seq) on top. A
/// function object, not a function: the heap algorithms then inline it
/// instead of calling through a pointer.
struct FiresLater {
  bool operator()(const EventRecord* a, const EventRecord* b) const {
    return a->time != b->time ? a->time > b->time : a->seq > b->seq;
  }
};

}  // namespace

void EventQueue::insert(EventRecord* rec) {
  SCCFT_ASSERT(rec->time >= floor_);
  heap_.push_back(rec);
  std::push_heap(heap_.begin(), heap_.end(), FiresLater{});
}

EventRecord* EventQueue::pop() {
  if (heap_.empty()) return nullptr;
  std::pop_heap(heap_.begin(), heap_.end(), FiresLater{});
  EventRecord* rec = heap_.back();
  heap_.pop_back();
  floor_ = rec->time;
  return rec;
}

void EventQueue::advance_floor(TimeNs t) {
  SCCFT_ASSERT(t >= floor_);
  floor_ = t;
}

}  // namespace sccft::sim
