// Property tests for the heap event engine: random schedule/cancel
// interleavings, with and without scheduling from inside firing
// callbacks, must produce exactly the firing order of the naive std::map
// reference queue, at delays from the same second to beyond 194 days.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "netcore/rng.hpp"
#include "oracles/reference_queue.hpp"
#include "sim/event_queue.hpp"

namespace dynaddr::sim {
namespace {

using net::Duration;
using net::TimePoint;

/// One firing observation: which logical event fired, at what callback
/// timestamp, and what next_time() reported just before.
struct Firing {
    int tag;
    std::int64_t when;
    std::int64_t peeked;
    friend bool operator==(const Firing&, const Firing&) = default;
};

/// Drives `queue` through a scripted interleaving of schedule/cancel/run
/// operations drawn from `rng`, recording every firing. The script is a
/// function of the rng seed only, so running it against EventQueue and
/// ReferenceEventQueue with equal seeds compares the two engines
/// operation-for-operation.
///
/// Delays are drawn across five magnitude bands: same-second, <256 s,
/// <65536 s, <194 d and beyond. With `reentrant`, some callbacks schedule
/// a follow-up from inside the firing — in the same second, one second
/// on, or at a band delay — and follow-ups may chain, as simulator
/// handlers do. Those draws come from the same rng at firing time, so the
/// engines stay in lockstep only while their firing orders agree.
template <typename Queue>
std::vector<Firing> run_script(std::uint64_t seed, int operations,
                               bool reentrant = false) {
    static constexpr std::int64_t kBands[] = {1, 256, 65536, 1 << 24,
                                              std::int64_t(1) << 27};
    rng::Stream rng(seed);
    Queue queue;
    std::vector<Firing> firings;
    std::vector<std::pair<int, EventId>> live;
    std::int64_t low_water = 0;  // fire times are monotone; never schedule earlier
    int next_tag = 0;

    auto band_delay = [&rng] {
        const auto band = std::size_t(rng.uniform_int(0, 4));
        return rng.uniform_int(0, kBands[band] - 1);
    };
    std::function<void(std::int64_t)> schedule_at = [&](std::int64_t when) {
        const int tag = next_tag++;
        live.emplace_back(
            tag, queue.schedule(TimePoint{when}, [&, tag](TimePoint t) {
                const std::int64_t now = t.unix_seconds();
                firings.push_back({tag, now, now});
                if (!reentrant) return;
                const std::int64_t follow = rng.uniform_int(0, 9);
                if (follow < 2) {
                    schedule_at(now);
                } else if (follow < 3) {
                    schedule_at(now + 1);
                } else if (follow < 4) {
                    schedule_at(now + band_delay());
                }
            }));
    };

    for (int op = 0; op < operations; ++op) {
        const std::int64_t kind = rng.uniform_int(0, 9);
        if (kind < 5) {  // schedule
            schedule_at(low_water + band_delay());
        } else if (kind < 7 && !live.empty()) {  // cancel a random live id
            const auto pick = std::size_t(
                rng.uniform_int(0, std::int64_t(live.size()) - 1));
            queue.cancel(live[pick].second);
            live.erase(live.begin() + std::ptrdiff_t(pick));
        } else {  // pop a few
            const std::int64_t pops = rng.uniform_int(1, 3);
            for (std::int64_t i = 0; i < pops; ++i) {
                const auto peek = queue.next_time();
                if (!peek) break;
                const std::size_t before = firings.size();
                EXPECT_TRUE(queue.run_next());
                EXPECT_EQ(firings.size(), before + 1);
                firings.back().peeked = peek->unix_seconds();
                low_water = peek->unix_seconds();
            }
        }
    }
    while (queue.run_next()) {
    }
    return firings;
}

TEST(EventEngineProperty, MatchesReferenceQueueOverRandomInterleavings) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        const auto heap = run_script<EventQueue>(seed, 400);
        const auto reference = run_script<ReferenceEventQueue>(seed, 400);
        ASSERT_EQ(heap, reference) << "diverged at seed " << seed;
    }
}

TEST(EventEngineProperty, ReentrantSchedulingMatchesReference) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        const auto heap = run_script<EventQueue>(seed, 400, true);
        const auto reference = run_script<ReferenceEventQueue>(seed, 400, true);
        ASSERT_EQ(heap, reference) << "diverged at seed " << seed;
    }
    const auto heap = run_script<EventQueue>(99, 6000, true);
    const auto reference = run_script<ReferenceEventQueue>(99, 6000, true);
    ASSERT_EQ(heap, reference);
}

TEST(EventEngineProperty, LargeSingleRunMatchesReference) {
    const auto heap = run_script<EventQueue>(99, 6000);
    const auto reference = run_script<ReferenceEventQueue>(99, 6000);
    ASSERT_EQ(heap, reference);
}

TEST(EventEngineProperty, CancelOfFiredIdReturnsFalse) {
    // The O(1) tombstone cancel must still report false for ids that
    // already fired — at every delay band.
    static constexpr std::int64_t kDelays[] = {0, 7, 300, 70000, (1 << 24) + 5};
    EventQueue queue;
    std::vector<EventId> ids;
    for (const std::int64_t d : kDelays)
        ids.push_back(queue.schedule(TimePoint{d}, [](TimePoint) {}));
    for (std::size_t i = 0; i < std::size(kDelays); ++i) {
        EXPECT_TRUE(queue.run_next());
        EXPECT_FALSE(queue.cancel(ids[i])) << "fired id " << i;
        for (std::size_t j = i + 1; j < std::size(kDelays); ++j)
            EXPECT_NE(queue.cancel(ids[j]), false) << "live id must cancel";
        // Re-arm the cancelled remainder for the next loop round.
        for (std::size_t j = i + 1; j < std::size(kDelays); ++j)
            ids[j] = queue.schedule(TimePoint{kDelays[j]}, [](TimePoint) {});
    }
    EXPECT_TRUE(queue.empty());
}

TEST(EventEngineProperty, DoubleCancelReturnsFalse) {
    EventQueue queue;
    const EventId id = queue.schedule(TimePoint{50}, [](TimePoint) {});
    EXPECT_TRUE(queue.cancel(id));
    EXPECT_FALSE(queue.cancel(id));
    EXPECT_TRUE(queue.empty());
    EXPECT_FALSE(queue.next_time());
    EXPECT_FALSE(queue.run_next());
}

TEST(EventEngineProperty, StaleIdAfterSlotReuseDoesNotCancelNewEvent) {
    EventQueue queue;
    int fired = 0;
    const EventId old_id = queue.schedule(TimePoint{1}, [&](TimePoint) { ++fired; });
    EXPECT_TRUE(queue.run_next());
    // The freed slot is reused; the stale generation must not match.
    const EventId new_id = queue.schedule(TimePoint{2}, [&](TimePoint) { ++fired; });
    EXPECT_NE(old_id.value, new_id.value);
    EXPECT_FALSE(queue.cancel(old_id));
    EXPECT_TRUE(queue.run_next());
    EXPECT_EQ(fired, 2);
}

TEST(EventEngineProperty, PeriodicFiresOnCadenceAndCancels) {
    EventQueue queue;
    std::vector<std::int64_t> fired;
    const EventId id = queue.schedule_every(
        TimePoint{240}, Duration{240},
        [&](TimePoint t) { fired.push_back(t.unix_seconds()); });
    for (int i = 0; i < 5; ++i) EXPECT_TRUE(queue.run_next());
    EXPECT_EQ(fired, (std::vector<std::int64_t>{240, 480, 720, 960, 1200}));
    EXPECT_EQ(queue.size(), 1u);  // still pending, same slot
    EXPECT_TRUE(queue.cancel(id));
    EXPECT_FALSE(queue.run_next());
    EXPECT_TRUE(queue.empty());
}

TEST(EventEngineProperty, PeriodicInterleavesFifoWithOneShots) {
    // A periodic firing at time T and one-shots scheduled at T must honour
    // scheduling order: the recurrence re-arms with a fresh sequence
    // number after each firing, exactly like a callback rescheduling
    // itself at the end of its body.
    EventQueue queue;
    std::vector<int> order;
    queue.schedule_every(TimePoint{10}, Duration{10},
                         [&](TimePoint) { order.push_back(0); });
    queue.schedule(TimePoint{20}, [&](TimePoint) { order.push_back(1); });
    for (int i = 0; i < 3; ++i) queue.run_next();
    // t=10: periodic(0); t=20: periodic re-armed after one-shot(1)? No —
    // the periodic re-arm happens at t=10, before the one-shot at 20 ever
    // existed in time order but AFTER it was scheduled, so at t=20 the
    // one-shot (earlier seq) still fires first only if it was scheduled
    // before the re-arm. It was: re-arm seqs are assigned at firing time.
    EXPECT_EQ(order, (std::vector<int>{0, 1, 0}));
}

TEST(EventEngineProperty, PeriodicCancelFromOwnCallbackStopsRecurrence) {
    EventQueue queue;
    int count = 0;
    EventId id{};
    id = queue.schedule_every(TimePoint{5}, Duration{5}, [&](TimePoint) {
        if (++count == 3) {
            EXPECT_TRUE(queue.cancel(id));
        }
    });
    while (queue.run_next()) {
    }
    EXPECT_EQ(count, 3);
    EXPECT_TRUE(queue.empty());
}

TEST(EventEngineProperty, ManyEventsAcrossAllLevelsDrainInOrder) {
    EventQueue queue;
    rng::Stream rng(7);
    std::vector<std::int64_t> expected;
    for (int i = 0; i < 20000; ++i) {
        const std::int64_t when = rng.uniform_int(0, std::int64_t(1) << 26);
        expected.push_back(when);
        queue.schedule(TimePoint{when}, [](TimePoint) {});
    }
    std::sort(expected.begin(), expected.end());
    std::vector<std::int64_t> popped;
    while (auto next = queue.next_time()) {
        popped.push_back(next->unix_seconds());
        queue.run_next();
    }
    EXPECT_EQ(popped, expected);
}

}  // namespace
}  // namespace dynaddr::sim
