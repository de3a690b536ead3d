// Bounded multi-producer ring of fixed-size records, the storage of the span
// plane (span_ring.h).
//
// Producers are session threads dispatching monitor events; they must never
// block, so the ring is lock-free: a ticket counter assigns slots and each
// slot carries a stamp encoding write progress (2*ticket+1 = write begun,
// 2*ticket+2 = write complete). Stamps only move forward, and a writer claims
// a slot only from an even stamp (monotonic CAS), so one writer at a time
// fills a slot: a writer whose slot a newer lap already owns, or an older lap
// is still filling, drops its record. Payload words are individually-relaxed
// atomics rather than plain fields behind a seqlock — this keeps the protocol
// free of data races (TSan-clean) at the cost of a torn-but-detected read:
// ForEachPublished() re-checks the stamp and drops any slot that changed
// mid-read, counting it in snapshot_drops().
#ifndef SQLCM_OBS_STAMPED_RING_H_
#define SQLCM_OBS_STAMPED_RING_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace sqlcm::obs {

template <size_t kWords>
class StampedRing {
 public:
  using Payload = std::array<uint64_t, kWords>;

  /// Capacity is rounded up to a power of two (minimum 2).
  explicit StampedRing(size_t capacity)
      : capacity_(std::bit_ceil(std::max<size_t>(capacity, 2))),
        mask_(capacity_ - 1),
        slots_(std::make_unique<Slot[]>(capacity_)) {}

  /// Lock-free, wait-free apart from the stamp CAS.
  void Record(const Payload& payload) {
    const uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
    Slot& slot = slots_[ticket & mask_];
    // Claim the slot; if a newer lap owns it or an older lap is still
    // writing it, drop this record.
    if (!ClaimStamp(slot.stamp, 2 * ticket + 1)) return;
    for (size_t i = 0; i < kWords; ++i) {
      slot.words[i].store(payload[i], std::memory_order_relaxed);
    }
    // Publish; the odd stamp kept every other writer out meanwhile.
    slot.stamp.store(2 * ticket + 2, std::memory_order_release);
  }

  /// Calls fn(ticket, payload) for the most recent min(capacity, total
  /// recorded) records, oldest first. Slots mid-write or reclaimed by a
  /// concurrent lap are skipped and counted in snapshot_drops().
  template <typename Fn>
  void ForEachPublished(Fn&& fn) const {
    const uint64_t head = head_.load(std::memory_order_acquire);
    const uint64_t count = std::min<uint64_t>(head, capacity_);
    for (uint64_t ticket = head - count; ticket < head; ++ticket) {
      const Slot& slot = slots_[ticket & mask_];
      const uint64_t expect = 2 * ticket + 2;
      if (slot.stamp.load(std::memory_order_acquire) != expect) {
        snapshot_drops_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      Payload payload;
      for (size_t i = 0; i < kWords; ++i) {
        payload[i] = slot.words[i].load(std::memory_order_relaxed);
      }
      // Re-check: drop the slot if a concurrent writer touched it mid-read.
      // The acquire fence keeps the payload loads above from being delayed
      // past this stamp load.
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.stamp.load(std::memory_order_acquire) != expect) {
        snapshot_drops_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      fn(ticket, payload);
    }
  }

  uint64_t total_recorded() const {
    return head_.load(std::memory_order_relaxed);
  }
  /// Slots a read had to discard because a concurrent writer touched them
  /// mid-read (torn) or still owned them (mid-write). Cumulative.
  uint64_t snapshot_drops() const {
    return snapshot_drops_.load(std::memory_order_relaxed);
  }
  /// Records returned by the next read (before drops), for reserve().
  size_t readable() const {
    return static_cast<size_t>(std::min<uint64_t>(total_recorded(), capacity_));
  }
  size_t capacity() const { return capacity_; }

 private:
  struct Slot {
    std::atomic<uint64_t> stamp{0};  // 0 = empty; odd = writing; even = done
    std::array<std::atomic<uint64_t>, kWords> words{};
  };

  /// Advance `stamp` to the odd `target` only if it is currently older and
  /// even: a writer still filling the slot keeps it exclusively, so two laps
  /// never interleave their payloads.
  static bool ClaimStamp(std::atomic<uint64_t>& stamp, uint64_t target) {
    uint64_t cur = stamp.load(std::memory_order_acquire);
    while (cur < target && cur % 2 == 0) {
      if (stamp.compare_exchange_weak(cur, target, std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
        return true;
      }
    }
    return false;
  }

  const size_t capacity_;  // power of two
  const size_t mask_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> head_{0};  // next ticket to hand out
  mutable std::atomic<uint64_t> snapshot_drops_{0};
};

}  // namespace sqlcm::obs

#endif  // SQLCM_OBS_STAMPED_RING_H_
