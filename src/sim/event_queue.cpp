#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

#include "netcore/error.hpp"
#include "netcore/obs/metrics.hpp"

namespace dynaddr::sim {

namespace {

/// Engine counters, bound once at static init: the per-event cost is a
/// couple of relaxed adds — noise next to the heap work. The names keep
/// their historical `sim.wheel.` prefix, which metrics readers match on.
struct EngineMetrics {
    obs::Counter& scheduled = obs::counter("sim.wheel.scheduled");
    obs::Counter& fired = obs::counter("sim.wheel.fired");
    obs::Counter& cancelled = obs::counter("sim.wheel.cancelled");
};

EngineMetrics& engine_metrics() {
    static EngineMetrics metrics;
    return metrics;
}

constexpr std::uint64_t kSlotFieldMask = 0xFFFFFFFFull;

constexpr std::uint64_t encode_id(std::uint32_t gen, std::uint32_t slot) {
    return (std::uint64_t(gen) << 32) | slot;
}

}  // namespace

EventId EventQueue::schedule(net::TimePoint when, Callback callback) {
    return schedule_impl(when.unix_seconds(), 0, std::move(callback));
}

EventId EventQueue::schedule_every(net::TimePoint first, net::Duration period,
                                   Callback callback) {
    if (period.count() <= 0) throw Error("periodic event needs period > 0");
    return schedule_impl(first.unix_seconds(), period.count(),
                         std::move(callback));
}

EventId EventQueue::schedule_impl(std::int64_t when, std::int64_t period,
                                  Callback cb) {
    const std::uint32_t slot = alloc_slot();
    Event& e = slab_[slot];
    e.period = period;
    e.state = State::Pending;
    e.cb = std::move(cb);
    heap_push({when, next_seq_++, slot});
    ++size_;
    engine_metrics().scheduled.inc();
    note_mem_op();
    return EventId{encode_id(e.gen, slot)};
}

void EventQueue::publish_mem() {
    const std::uint64_t bytes =
        std::uint64_t(slab_.capacity()) * sizeof(Event) +
        std::uint64_t(heap_.capacity()) * sizeof(HeapEntry);
    mem_.report(bytes, size_);
}

bool EventQueue::cancel(EventId id) {
    const std::uint32_t slot = std::uint32_t(id.value & kSlotFieldMask);
    const std::uint32_t gen = std::uint32_t(id.value >> 32);
    if (slot >= slab_.size()) return false;
    Event& e = slab_[slot];
    if (e.gen != gen) return false;
    if (e.state != State::Pending && e.state != State::Firing) return false;
    // Tombstone in place; settle_top() frees the slot once its heap entry
    // surfaces. Cancelling a periodic event mid-callback (State::Firing)
    // stops the recurrence.
    e.state = State::Cancelled;
    --size_;
    engine_metrics().cancelled.inc();
    return true;
}

std::optional<net::TimePoint> EventQueue::next_time() {
    if (!settle_top()) return std::nullopt;
    return net::TimePoint{heap_.front().when};
}

bool EventQueue::run_next() {
    if (!settle_top()) return false;
    engine_metrics().fired.inc();
    note_mem_op();
    const HeapEntry top = heap_.front();
    heap_pop();
    Event& e = slab_[top.slot];
    if (e.period > 0) {
        // Periodic: reschedule in place after the callback so a callback
        // that cancels its own id (or one that runs right before the next
        // occurrence) behaves exactly like an explicit re-schedule.
        e.state = State::Firing;
        InlineCallback cb = std::move(e.cb);
        cb(net::TimePoint{top.when});
        Event& e2 = slab_[top.slot];  // the callback may have grown the slab
        if (e2.state == State::Cancelled) {
            free_slot(top.slot);
        } else {
            e2.state = State::Pending;
            e2.cb = std::move(cb);
            heap_push({top.when + e2.period, next_seq_++, top.slot});
        }
    } else {
        InlineCallback cb = std::move(e.cb);
        free_slot(top.slot);  // before invoking: cancel(id) inside the
                              // callback must report "already fired"
        --size_;
        cb(net::TimePoint{top.when});
    }
    return true;
}

std::uint32_t EventQueue::alloc_slot() {
    if (free_head_ != kNil) {
        const std::uint32_t slot = free_head_;
        free_head_ = slab_[slot].next_free;
        return slot;
    }
    slab_.emplace_back();
    return std::uint32_t(slab_.size() - 1);
}

void EventQueue::free_slot(std::uint32_t slot) {
    Event& e = slab_[slot];
    ++e.gen;
    e.state = State::Free;
    e.period = 0;
    e.cb.reset();
    e.next_free = free_head_;
    free_head_ = slot;
}

void EventQueue::heap_push(HeapEntry entry) {
    heap_.push_back(entry);
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
        const std::size_t parent = (i - 1) / 4;
        if (!entry.before(heap_[parent])) break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = entry;
}

void EventQueue::heap_pop() {
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    if (heap_.empty()) return;
    std::size_t i = 0;
    for (;;) {
        const std::size_t first_child = 4 * i + 1;
        if (first_child >= heap_.size()) break;
        std::size_t best = first_child;
        const std::size_t last_child = std::min(first_child + 4, heap_.size());
        for (std::size_t c = first_child + 1; c < last_child; ++c)
            if (heap_[c].before(heap_[best])) best = c;
        if (!heap_[best].before(last)) break;
        heap_[i] = heap_[best];
        i = best;
    }
    heap_[i] = last;
}

bool EventQueue::settle_top() {
    while (!heap_.empty()) {
        const std::uint32_t slot = heap_.front().slot;
        if (slab_[slot].state != State::Cancelled) return true;
        heap_pop();
        free_slot(slot);
    }
    return false;
}

}  // namespace dynaddr::sim
