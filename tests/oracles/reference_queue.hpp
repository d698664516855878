#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>

#include "netcore/time.hpp"
#include "sim/event_queue.hpp"

namespace dynaddr::sim {

/// The original std::map-based event queue, kept ONLY as (a) the baseline
/// for the BM_EventEngine benchmark comparison and (b) the naive oracle
/// the property test checks the heap engine against. Do not use in
/// simulation code — it collapses under millions of timer events (two
/// ordered maps plus a heap-allocated std::function per event).
///
/// Same observable contract as EventQueue: time order, FIFO at equal
/// times, cancel() false after firing.
class ReferenceEventQueue {
public:
    using Callback = std::function<void(net::TimePoint)>;

    EventId schedule(net::TimePoint when, Callback callback);
    bool cancel(EventId id);
    [[nodiscard]] std::optional<net::TimePoint> next_time() const;
    [[nodiscard]] bool empty() const { return events_.empty(); }
    [[nodiscard]] std::size_t size() const { return events_.size(); }
    bool run_next();

private:
    struct Key {
        net::TimePoint when;
        std::uint64_t sequence;
        friend constexpr auto operator<=>(const Key&, const Key&) = default;
    };
    std::map<Key, Callback> events_;
    std::map<std::uint64_t, Key> key_by_id_;
    std::uint64_t next_sequence_ = 1;
};

}  // namespace dynaddr::sim
