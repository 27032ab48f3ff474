// Data tokens flowing through the process network.
//
// The paper's model (Section 2): a token T_k[j] produced by replica R_k
// carries a monotonically increasing sequence number j and has a timestamp
// t(k, j). Payloads are immutable and shared (the replicator duplicates each
// token to two FIFOs without copying the bytes), and carry a CRC-32 so that
// the experiments can check *functional* equivalence (Theorem 2) in O(1)
// space per token.
//
// Payload storage is the pooled PayloadRef (see payload.hpp): a buffer's CRC
// is computed once at admission, so constructing a token from a shared
// payload — the hot path of every replica emission and of the synthetic
// producer, whose 256 payloads per token size are built once — copies a
// cached word instead of re-hashing kilobytes, and verify_checksum() is a
// constant-time comparison of the token's stamped checksum against the
// buffer's true CRC.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "kpn/payload.hpp"
#include "rtc/time.hpp"

namespace sccft::kpn {

using rtc::TimeNs;

class Token final {
 public:
  Token() = default;

  /// Creates a token with the given payload, sequence number and timestamp.
  Token(std::vector<std::uint8_t> payload, std::uint64_t seq, TimeNs produced_at);

  /// Creates a token sharing an existing pooled payload (no copy, no CRC
  /// recomputation; used by the payload caches on every replica emission
  /// and by the synthetic producer's per-size tables).
  Token(PayloadRef payload, std::uint64_t seq, TimeNs produced_at);

  [[nodiscard]] std::uint64_t seq() const { return seq_; }
  [[nodiscard]] TimeNs produced_at() const { return produced_at_; }
  [[nodiscard]] std::size_t size_bytes() const { return payload_.size(); }
  [[nodiscard]] std::span<const std::uint8_t> payload() const;
  /// The shared payload handle itself (cached CRC + bytes). Empty for
  /// payload-less marker tokens.
  [[nodiscard]] const PayloadRef& payload_ref() const { return payload_; }
  [[nodiscard]] std::uint32_t checksum() const { return checksum_; }
  [[nodiscard]] bool valid() const { return static_cast<bool>(payload_); }

  /// Compares the stored checksum with the payload's true CRC-32 (cached at
  /// buffer admission — O(1)). A token whose payload was altered *after* CRC
  /// stamping (silent data corruption in a core or in transit) fails this
  /// check; tokens without a payload pass vacuously.
  [[nodiscard]] bool verify_checksum() const;

  /// Returns a copy of this token re-stamped with a new sequence number and
  /// production time (used when a channel re-emits a token downstream).
  [[nodiscard]] Token restamped(std::uint64_t seq, TimeNs produced_at) const;

  /// Fault-injection helper: returns a copy whose payload has bit
  /// `bit_index % (8 * size)` flipped while the stored checksum is kept
  /// unchanged — i.e. a token corrupted after CRC stamping, exactly what
  /// verify_checksum() is designed to convict. The original (shared) payload
  /// is not touched. Requires a non-empty payload.
  [[nodiscard]] Token corrupted(std::size_t bit_index) const;

  /// Fault-injection helper for *silent* data corruption: returns a copy
  /// whose payload has bit `bit_index % (8 * size)` flipped AND whose stored
  /// checksum is re-stamped to match the flipped bytes — i.e. the corruption
  /// happened before CRC stamping (an upset in the producing core's
  /// registers), so rule (c) passes vacuously and only cross-replica
  /// comparison (a vote) can see it. Requires a non-empty payload.
  [[nodiscard]] Token silently_corrupted(std::size_t bit_index) const;

 private:
  PayloadRef payload_;
  std::uint64_t seq_ = 0;
  TimeNs produced_at_ = 0;
  std::uint32_t checksum_ = 0;
};

}  // namespace sccft::kpn
