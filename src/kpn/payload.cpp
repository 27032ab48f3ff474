#include "kpn/payload.hpp"

#include "util/crc32.hpp"

namespace sccft::kpn {

PayloadPool& PayloadPool::instance() {
  static PayloadPool pool;
  return pool;
}

PayloadRef PayloadRef::adopt(std::vector<std::uint8_t> bytes) {
  return PayloadPool::instance().admit(std::move(bytes));
}

PayloadRef PayloadPool::admit(std::vector<std::uint8_t> bytes) {
  PayloadBuffer* buf = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (free_ != nullptr) {
      buf = free_;
      free_ = buf->next_free_;
      buffers_recycled_.fetch_add(1, std::memory_order_relaxed);
    } else {
      buf = storage_.emplace_back(std::make_unique<PayloadBuffer>()).get();
      buffers_created_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // From here the buffer is exclusively ours; fill and stamp outside the lock
  // so concurrent admits never serialize on the CRC.
  buf->next_free_ = nullptr;
  buf->bytes_ = std::move(bytes);
  buf->crc_ = util::crc32(buf->bytes_);
  buf->refs_.store(1, std::memory_order_relaxed);
  return PayloadRef(buf);
}

void PayloadPool::recycle(PayloadBuffer* buf) noexcept {
  // Only the node is recycled: free its bytes now (outside the lock) rather
  // than holding them until the next admit() move-assigns them away.
  buf->bytes_ = {};
  const std::lock_guard<std::mutex> lock(mutex_);
  buf->next_free_ = free_;
  free_ = buf;
}

}  // namespace sccft::kpn
