#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "netcore/obs/memaccount.hpp"
#include "netcore/time.hpp"
#include "sim/inline_callback.hpp"

namespace dynaddr::sim {

/// Opaque handle identifying a scheduled event; used for cancellation.
///
/// Ids are generation-stamped: the low half names a slot in the engine's
/// event slab, the high half the slot's generation at scheduling time. A
/// reused slot gets a new generation, so a stale id can never cancel an
/// unrelated later event.
struct EventId {
    std::uint64_t value = 0;
    friend constexpr auto operator<=>(EventId, EventId) = default;
};

/// A time-ordered queue of callbacks — the simulation's event engine.
///
/// Implementation: one 4-ary min-heap of `(when, seq, slot)` entries over
/// a slab of events. Scheduling and popping are O(log n); cancellation is
/// O(1) by id: the event is tombstoned in place and its heap entry is
/// dropped, and the slot freed, when it reaches the top. Events at equal
/// times fire in scheduling order (FIFO, via per-event sequence numbers),
/// which keeps runs deterministic.
///
/// Periodic events (`schedule_every`) fire on a fixed cadence and re-arm
/// in place — one slab slot and one callback for the lifetime of the
/// recurrence, no per-firing allocation. Each re-arm pushes a new heap
/// entry with a fresh sequence number, exactly as an explicit
/// re-schedule would. Their id stays valid across firings; cancel() stops
/// the recurrence.
class EventQueue {
public:
    using Callback = InlineCallback;

    EventQueue() = default;
    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;

    /// Schedules `callback` at absolute time `when`. Returns an id usable
    /// with cancel().
    EventId schedule(net::TimePoint when, Callback callback);

    /// Schedules a recurring callback: first firing at `first`, then every
    /// `period` (> 0) after, forever (until cancelled). The returned id
    /// stays valid across firings.
    EventId schedule_every(net::TimePoint first, net::Duration period,
                           Callback callback);

    /// Removes a pending event in O(1) (lazy tombstone; storage is
    /// reclaimed when the heap pops it). Returns false when the event
    /// already fired or was cancelled.
    bool cancel(EventId id);

    /// Time of the earliest pending event. May drop cancelled heap tops
    /// but never changes observable state.
    [[nodiscard]] std::optional<net::TimePoint> next_time();

    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] std::size_t size() const { return size_; }

    /// Pops and runs the earliest event; returns false when empty.
    bool run_next();

private:
    static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

    enum class State : std::uint8_t { Free, Pending, Firing, Cancelled };

    struct Event {
        std::int64_t period = 0;   ///< 0 = one-shot
        std::uint32_t gen = 1;     ///< bumped on slot reuse
        std::uint32_t next_free = kNil;
        State state = State::Free;
        InlineCallback cb;
    };

    struct HeapEntry {
        std::int64_t when;     ///< absolute fire time, unix seconds
        std::uint64_t seq;     ///< FIFO tiebreak at equal times
        std::uint32_t slot;
        [[nodiscard]] bool before(const HeapEntry& o) const {
            return when != o.when ? when < o.when : seq < o.seq;
        }
    };

    EventId schedule_impl(std::int64_t when, std::int64_t period, Callback cb);
    std::uint32_t alloc_slot();
    void free_slot(std::uint32_t slot);
    void heap_push(HeapEntry entry);
    void heap_pop();
    /// Pops cancelled tops, freeing their slots. Returns false when no
    /// pending event is left.
    bool settle_top();

    std::vector<Event> slab_;
    std::uint32_t free_head_ = kNil;
    std::vector<HeapEntry> heap_;  ///< pending and tombstoned events
    std::uint64_t next_seq_ = 0;
    std::size_t size_ = 0;         ///< pending events, tombstones excluded

    /// Capacity accounting (mem.sim.event_queue): slab + heap, published
    /// through owner-side atomics. Amortized like the pool's metrics flush
    /// so the schedule/fire hot path pays a counter increment, not a
    /// publish, most of the time.
    void note_mem_op() {
        if ((++mem_ops_ & (kMemFlushOps - 1)) == 0) publish_mem();
    }
    void publish_mem();
    static constexpr std::uint64_t kMemFlushOps = 64;
    std::uint64_t mem_ops_ = 0;
    obs::MemRegistration mem_{"sim.event_queue"};
};

}  // namespace dynaddr::sim
