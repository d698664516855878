// Differential property tests: the bitmap AddressPool and the
// open-addressing LeaseDb against the original map-based implementations
// (tests/oracles/reference_pool.hpp), the same oracle pattern as the
// event queue's. The reference defines every rng draw and every
// ordering decision; the fast implementations must reproduce them bit for
// bit across strategies, seeds and arbitrary operation interleavings.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "netcore/obs/metrics.hpp"
#include "oracles/reference_pool.hpp"
#include "pool/address_pool.hpp"
#include "pool/lease_db.hpp"

namespace dynaddr::pool {
namespace {

using net::IPv4Address;
using net::IPv4Prefix;
using net::TimePoint;

PoolConfig diff_config(AllocationStrategy strategy) {
    PoolConfig config;
    config.prefixes = {IPv4Prefix::parse_or_throw("10.0.0.0/26"),
                       IPv4Prefix::parse_or_throw("172.16.4.0/27"),
                       IPv4Prefix::parse_or_throw("192.168.1.0/28")};
    config.strategy = strategy;
    config.churn_per_hour = 0.05;
    config.locality_bias = strategy == AllocationStrategy::RandomSpread ? 0.6 : 0.0;
    config.initially_disabled = {2};
    return config;
}

/// Runs an identical random operation sequence through both pools and
/// compares every observable after every step. The driver stream is
/// independent of the pools' shared seed so op choice never perturbs the
/// draws under test.
void run_pool_differential(AllocationStrategy strategy, std::uint64_t seed) {
    const auto config = diff_config(strategy);
    AddressPool fast(config, rng::Stream(seed));
    ReferenceAddressPool oracle(config, rng::Stream(seed));
    rng::Stream driver(seed * 7919 + 17);

    const ClientId kClients = 96;
    std::vector<bool> enabled = {true, true, false};
    std::int64_t now_s = 0;

    for (int step = 0; step < 4000; ++step) {
        now_s += driver.uniform_int(0, 1800);
        const TimePoint now{now_s};
        const auto client = ClientId(driver.uniform_int(1, kClients));
        switch (driver.uniform_int(0, 9)) {
            case 0: case 1: case 2: case 3: {  // allocate, plain or hinted
                std::optional<IPv4Address> hint;
                if (driver.bernoulli(0.3)) {
                    // Hints range over configured space, foreign space and
                    // (sometimes) the disabled prefix.
                    const auto& p = config.prefixes[std::size_t(
                        driver.uniform_int(0, 3))% config.prefixes.size()];
                    hint = IPv4Address(std::uint32_t(
                        p.base().value() +
                        std::uint64_t(driver.uniform_int(0, 40))));
                }
                std::optional<TimePoint> absent;
                if (driver.bernoulli(0.4))
                    absent = TimePoint{now_s - driver.uniform_int(0, 400000)};
                const auto a = fast.allocate(client, now, hint, absent);
                const auto b = oracle.allocate(client, now, hint, absent);
                ASSERT_EQ(a, b) << "allocate diverged at step " << step
                                << " seed " << seed;
                break;
            }
            case 4: case 5: case 6: {
                fast.release(client);
                oracle.release(client);
                break;
            }
            case 7: {
                fast.forget_binding(client);
                oracle.forget_binding(client);
                break;
            }
            case 8: {  // flip one prefix's enablement
                const auto p = std::size_t(driver.uniform_int(0, 2));
                if (enabled[p]) {
                    fast.retire_prefix(p);
                    oracle.retire_prefix(p);
                } else {
                    fast.enable_prefix(p);
                    oracle.enable_prefix(p);
                }
                enabled[p] = !enabled[p];
                break;
            }
            case 9: {  // exhaustion fault window
                const bool on = driver.bernoulli(0.5);
                fast.set_fault_exhausted(on);
                oracle.set_fault_exhausted(on);
                break;
            }
        }
        ASSERT_EQ(fast.free_count(), oracle.free_count()) << "step " << step;
        ASSERT_EQ(fast.allocated_count(), oracle.allocated_count());
        ASSERT_EQ(fast.capacity(), oracle.capacity());
        const auto probe = ClientId(driver.uniform_int(1, kClients));
        ASSERT_EQ(fast.address_of(probe), oracle.address_of(probe));
        const auto addr_probe = IPv4Address(std::uint32_t(
            config.prefixes[0].base().value() +
            std::uint64_t(driver.uniform_int(0, 63))));
        ASSERT_EQ(fast.is_retired(addr_probe), oracle.is_retired(addr_probe));
    }
    // Conservation must hold at the end regardless of retire history.
    ASSERT_EQ(fast.free_count() + fast.allocated_count(), fast.capacity());
}

TEST(PoolDifferential, StickyMatchesReference) {
    for (std::uint64_t seed : {1u, 2u, 3u})
        run_pool_differential(AllocationStrategy::Sticky, seed);
}

TEST(PoolDifferential, SequentialMatchesReference) {
    for (std::uint64_t seed : {4u, 5u, 6u})
        run_pool_differential(AllocationStrategy::Sequential, seed);
}

TEST(PoolDifferential, RandomSpreadMatchesReference) {
    for (std::uint64_t seed : {7u, 8u, 9u})
        run_pool_differential(AllocationStrategy::RandomSpread, seed);
}

TEST(PoolDifferential, PrefixHopMatchesReference) {
    for (std::uint64_t seed : {10u, 11u, 12u})
        run_pool_differential(AllocationStrategy::PrefixHop, seed);
}

// -- LeaseDb vs ReferenceLeaseDb ------------------------------------------

std::vector<Lease> sorted_by_client(std::vector<Lease> leases) {
    std::sort(leases.begin(), leases.end(),
              [](const Lease& a, const Lease& b) { return a.client < b.client; });
    return leases;
}

void expect_same_lease(const std::optional<Lease>& a,
                       const std::optional<Lease>& b) {
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a) return;
    EXPECT_EQ(a->client, b->client);
    EXPECT_EQ(a->address, b->address);
    EXPECT_EQ(a->granted, b->granted);
    EXPECT_EQ(a->expiry, b->expiry);
}

// Every lease runs a fixed time from a clock that never goes back, as in
// the DHCP server. Two maps mirror the server's former
// per-client maps (hold start and absence), which the db now keeps.
TEST(LeaseDbDifferential, RandomOpsMatchReference) {
    constexpr std::int64_t kLeaseSeconds = 3600;
    for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        LeaseDb fast;
        ReferenceLeaseDb oracle;
        std::map<ClientId, TimePoint> held_since;
        std::map<ClientId, TimePoint> absent_since;
        rng::Stream driver(seed);
        std::int64_t now_s = 0;
        for (int step = 0; step < 6000; ++step) {
            // The clock stands still a quarter of the time, so many live
            // leases share an expiry second.
            if (!driver.bernoulli(0.25)) now_s += driver.uniform_int(1, 600);
            const auto client = ClientId(driver.uniform_int(1, 48));
            switch (driver.uniform_int(0, 6)) {
                case 0: case 1: case 2: {  // grant / refresh
                    Lease lease;
                    lease.client = client;
                    // Address keyed by client: grants never collide across
                    // clients, matching how the DHCP server uses the db.
                    lease.address = IPv4Address(std::uint32_t(
                        0x0A000000u + client));
                    lease.granted = TimePoint{now_s};
                    lease.expiry = TimePoint{now_s + kLeaseSeconds};
                    fast.grant(lease);
                    oracle.grant(lease);
                    held_since.try_emplace(client, lease.granted);
                    absent_since.erase(client);
                    break;
                }
                case 3: {
                    const auto a = fast.revoke(client);
                    const auto b = oracle.revoke(client);
                    expect_same_lease(a, b);
                    held_since.erase(client);
                    break;
                }
                case 4: {  // batch expiry: same leases, same order
                    const auto horizon =
                        TimePoint{now_s - driver.uniform_int(0, 3600)};
                    const auto a = fast.expire_until(horizon);
                    const auto b = oracle.expire_until(horizon);
                    ASSERT_EQ(a.size(), b.size()) << "step " << step;
                    for (std::size_t i = 0; i < a.size(); ++i) {
                        expect_same_lease(a[i], b[i]);
                        held_since.erase(b[i].client);
                        absent_since[b[i].client] = b[i].expiry;
                    }
                    break;
                }
                case 5: {
                    const auto addr = IPv4Address(std::uint32_t(
                        0x0A000000u + driver.uniform_int(1, 48)));
                    expect_same_lease(fast.find_by_address(addr),
                                      oracle.find_by_address(addr));
                    break;
                }
                case 6: {  // release, eviction or NAK
                    fast.mark_absent(client, TimePoint{now_s});
                    absent_since[client] = TimePoint{now_s};
                    break;
                }
            }
            ASSERT_EQ(fast.size(), oracle.size()) << "step " << step;
            ASSERT_EQ(fast.next_expiry(), oracle.next_expiry());
            expect_same_lease(fast.find(client), oracle.find(client));
            const auto held = held_since.find(client);
            EXPECT_EQ(fast.held_since(client),
                      held == held_since.end() ? std::nullopt
                                               : std::optional(held->second))
                << "step " << step;
            const auto absent = absent_since.find(client);
            EXPECT_EQ(fast.absent_since(client),
                      absent == absent_since.end()
                          ? std::nullopt
                          : std::optional(absent->second))
                << "step " << step;
        }
        const auto a = sorted_by_client(fast.all());
        const auto b = sorted_by_client(oracle.all());
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) expect_same_lease(a[i], b[i]);
    }
}

// Ties in expiry time must come back in grant order — the multimap
// semantics the grant-ordered expiry list preserves.
TEST(LeaseDbDifferential, ExpiryTiesBreakInGrantOrder) {
    LeaseDb db;
    const TimePoint expiry{1000};
    for (ClientId c : {ClientId(5), ClientId(2), ClientId(9), ClientId(7)}) {
        Lease lease;
        lease.client = c;
        lease.address = IPv4Address(std::uint32_t(0x0A000000u + c));
        lease.granted = TimePoint{0};
        lease.expiry = expiry;
        db.grant(lease);
    }
    const auto expired = db.expire_until(expiry);
    ASSERT_EQ(expired.size(), 4u);
    EXPECT_EQ(expired[0].client, 5u);
    EXPECT_EQ(expired[1].client, 2u);
    EXPECT_EQ(expired[2].client, 9u);
    EXPECT_EQ(expired[3].client, 7u);
}

// -- shared gauge consistency ---------------------------------------------

// Pools batch their gauge updates (kMetricsFlushOps); destruction must
// flush and then unwind exactly, leaving the process-wide gauges where
// they started no matter how many ops were pending.
TEST(PoolGauges, UnwindExactlyOnDestruction) {
    auto& occupancy = obs::gauge("pool.occupancy");
    auto& free_addresses = obs::gauge("pool.free");
    auto& active = obs::gauge("lease.active");
    const auto occ_before = occupancy.value();
    const auto free_before = free_addresses.value();
    const auto active_before = active.value();
    {
        AddressPool pool(diff_config(AllocationStrategy::Sticky),
                         rng::Stream(42));
        LeaseDb db;
        for (ClientId c = 1; c <= 40; ++c) {
            const auto addr = pool.allocate(c, TimePoint{std::int64_t(c)});
            ASSERT_TRUE(addr);
            db.grant(Lease{c, *addr, TimePoint{std::int64_t(c)},
                           TimePoint{std::int64_t(c) + 3600}});
        }
        // An odd, non-multiple-of-64 number of further ops so a flush is
        // guaranteed to be pending at destruction.
        for (ClientId c = 1; c <= 17; ++c) {
            pool.release(c);
            db.revoke(c);
        }
    }
    EXPECT_EQ(occupancy.value(), occ_before);
    EXPECT_EQ(free_addresses.value(), free_before);
    EXPECT_EQ(active.value(), active_before);
}

}  // namespace
}  // namespace dynaddr::pool
