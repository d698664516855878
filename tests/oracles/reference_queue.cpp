#include "oracles/reference_queue.hpp"

#include <utility>

namespace dynaddr::sim {

EventId ReferenceEventQueue::schedule(net::TimePoint when, Callback callback) {
    const std::uint64_t id = next_sequence_++;
    const Key key{when, id};
    events_.emplace(key, std::move(callback));
    key_by_id_.emplace(id, key);
    return EventId{id};
}

bool ReferenceEventQueue::cancel(EventId id) {
    auto it = key_by_id_.find(id.value);
    if (it == key_by_id_.end()) return false;
    events_.erase(it->second);
    key_by_id_.erase(it);
    return true;
}

std::optional<net::TimePoint> ReferenceEventQueue::next_time() const {
    if (events_.empty()) return std::nullopt;
    return events_.begin()->first.when;
}

bool ReferenceEventQueue::run_next() {
    if (events_.empty()) return false;
    auto it = events_.begin();
    const Key key = it->first;
    Callback callback = std::move(it->second);
    events_.erase(it);
    key_by_id_.erase(key.sequence);
    callback(key.when);
    return true;
}

}  // namespace dynaddr::sim
