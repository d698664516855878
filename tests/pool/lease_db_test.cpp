#include "pool/lease_db.hpp"

#include <gtest/gtest.h>

#include "netcore/error.hpp"
#include "netcore/obs/memaccount.hpp"

namespace dynaddr::pool {
namespace {

using net::IPv4Address;
using net::TimePoint;

Lease make_lease(ClientId client, IPv4Address addr, std::int64_t granted,
                 std::int64_t expiry) {
    return Lease{client, addr, TimePoint{granted}, TimePoint{expiry}};
}

TEST(LeaseDb, GrantFindRevoke) {
    LeaseDb db;
    db.grant(make_lease(1, IPv4Address(10, 0, 0, 1), 0, 100));
    EXPECT_EQ(db.size(), 1u);
    auto lease = db.find(1);
    ASSERT_TRUE(lease);
    EXPECT_EQ(lease->address, IPv4Address(10, 0, 0, 1));
    EXPECT_EQ(lease->duration().count(), 100);
    auto by_addr = db.find_by_address(IPv4Address(10, 0, 0, 1));
    ASSERT_TRUE(by_addr);
    EXPECT_EQ(by_addr->client, 1u);
    auto revoked = db.revoke(1);
    ASSERT_TRUE(revoked);
    EXPECT_EQ(db.size(), 0u);
    EXPECT_FALSE(db.revoke(1));
    EXPECT_FALSE(db.find(1));
    EXPECT_FALSE(db.find_by_address(IPv4Address(10, 0, 0, 1)));
}

TEST(LeaseDb, RefreshReplacesExpiry) {
    LeaseDb db;
    db.grant(make_lease(1, IPv4Address(10, 0, 0, 1), 0, 100));
    db.grant(make_lease(1, IPv4Address(10, 0, 0, 1), 50, 200));
    EXPECT_EQ(db.size(), 1u);
    EXPECT_EQ(db.next_expiry()->unix_seconds(), 200);
    // Nothing expires at the old expiry.
    EXPECT_TRUE(db.expire_until(TimePoint{150}).empty());
    EXPECT_EQ(db.expire_until(TimePoint{200}).size(), 1u);
}

TEST(LeaseDb, RefreshCanMoveClientToNewAddress) {
    LeaseDb db;
    db.grant(make_lease(1, IPv4Address(10, 0, 0, 1), 0, 100));
    db.grant(make_lease(1, IPv4Address(10, 0, 0, 2), 10, 110));
    EXPECT_EQ(db.size(), 1u);
    EXPECT_FALSE(db.find_by_address(IPv4Address(10, 0, 0, 1)));
    ASSERT_TRUE(db.find_by_address(IPv4Address(10, 0, 0, 2)));
}

TEST(LeaseDb, RejectsAddressConflict) {
    LeaseDb db;
    db.grant(make_lease(1, IPv4Address(10, 0, 0, 1), 0, 100));
    EXPECT_THROW(db.grant(make_lease(2, IPv4Address(10, 0, 0, 1), 0, 100)),
                 Error);
}

TEST(LeaseDb, ExpireUntilReturnsEarliestFirst) {
    LeaseDb db;
    db.grant(make_lease(2, IPv4Address(10, 0, 0, 2), 0, 100));
    db.grant(make_lease(3, IPv4Address(10, 0, 0, 3), 0, 200));
    db.grant(make_lease(1, IPv4Address(10, 0, 0, 1), 0, 300));
    EXPECT_EQ(db.next_expiry()->unix_seconds(), 100);
    const auto expired = db.expire_until(TimePoint{250});
    ASSERT_EQ(expired.size(), 2u);
    EXPECT_EQ(expired[0].client, 2u);
    EXPECT_EQ(expired[1].client, 3u);
    EXPECT_EQ(db.size(), 1u);
    EXPECT_EQ(db.next_expiry()->unix_seconds(), 300);
}

TEST(LeaseDb, SharedExpirySecond) {
    LeaseDb db;
    db.grant(make_lease(1, IPv4Address(10, 0, 0, 1), 0, 100));
    db.grant(make_lease(2, IPv4Address(10, 0, 0, 2), 0, 100));
    db.revoke(1);  // must remove only client 1's expiry index entry
    const auto expired = db.expire_until(TimePoint{100});
    ASSERT_EQ(expired.size(), 1u);
    EXPECT_EQ(expired[0].client, 2u);
}

// The expiry list is kept in grant order, so a lease may not expire
// before the latest live one.
TEST(LeaseDb, RejectsExpiryBeforeLatestGrant) {
    LeaseDb db;
    db.grant(make_lease(1, IPv4Address(10, 0, 0, 1), 0, 200));
    EXPECT_THROW(db.grant(make_lease(2, IPv4Address(10, 0, 0, 2), 0, 100)),
                 Error);
    EXPECT_EQ(db.size(), 1u);
    EXPECT_FALSE(db.find(2));
    EXPECT_FALSE(db.find_by_address(IPv4Address(10, 0, 0, 2)));
    // An equal expiry is fine and queues behind the earlier grant.
    db.grant(make_lease(2, IPv4Address(10, 0, 0, 2), 0, 200));
    const auto expired = db.expire_until(TimePoint{200});
    ASSERT_EQ(expired.size(), 2u);
    EXPECT_EQ(expired[0].client, 1u);
    EXPECT_EQ(expired[1].client, 2u);
}

TEST(LeaseDb, HeldSinceSurvivesRefreshes) {
    LeaseDb db;
    EXPECT_FALSE(db.held_since(1));
    db.grant(make_lease(1, IPv4Address(10, 0, 0, 1), 10, 100));
    db.grant(make_lease(1, IPv4Address(10, 0, 0, 2), 50, 150));
    EXPECT_EQ(db.held_since(1), TimePoint{10});
    db.revoke(1);
    EXPECT_FALSE(db.held_since(1));
    db.grant(make_lease(1, IPv4Address(10, 0, 0, 1), 70, 170));
    EXPECT_EQ(db.held_since(1), TimePoint{70});
}

TEST(LeaseDb, AbsentSinceUntilNextGrant) {
    LeaseDb db;
    EXPECT_FALSE(db.absent_since(1));
    db.mark_absent(1, TimePoint{5});  // a client the db never leased to
    EXPECT_EQ(db.absent_since(1), TimePoint{5});
    EXPECT_EQ(db.size(), 0u);
    db.grant(make_lease(1, IPv4Address(10, 0, 0, 1), 10, 100));
    EXPECT_FALSE(db.absent_since(1));
    // Expiry marks the client absent since its lease's expiry, not since
    // the sweep.
    ASSERT_EQ(db.expire_until(TimePoint{130}).size(), 1u);
    EXPECT_EQ(db.absent_since(1), TimePoint{100});
    db.revoke(1);  // no lease: no change
    EXPECT_EQ(db.absent_since(1), TimePoint{100});
}

// Renewals replace a record's list position in place, so the tables do
// not grow with the number of grants, only with the number of clients.
TEST(LeaseDb, MemoryFlatUnderRenewals) {
    const auto lease_db_bytes = [] {
        for (const auto& row : obs::mem_report().subsystems)
            if (row.name == "pool.lease_db") return row.bytes;
        return std::uint64_t(0);
    };
    LeaseDb db;
    constexpr ClientId kClients = 16;
    const auto address = [](ClientId c) {
        return IPv4Address(std::uint32_t(0x0A000000u + c));
    };
    for (ClientId c = 0; c < kClients; ++c)
        db.grant(make_lease(c, address(c), 0, 3600));
    const std::uint64_t bytes = lease_db_bytes();
    ASSERT_GT(bytes, 0u);
    for (std::int64_t step = 1; step <= 10000; ++step) {
        const ClientId c = ClientId(step) % kClients;
        db.grant(make_lease(c, address(c), step, step + 3600));
        if (step % 100 == 0) ASSERT_EQ(lease_db_bytes(), bytes) << "step " << step;
    }
    EXPECT_EQ(db.size(), kClients);
}

TEST(LeaseDb, EmptyDbQueries) {
    LeaseDb db;
    EXPECT_FALSE(db.next_expiry());
    EXPECT_TRUE(db.expire_until(TimePoint{1000}).empty());
    EXPECT_EQ(db.size(), 0u);
}

}  // namespace
}  // namespace dynaddr::pool
