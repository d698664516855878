#include "atlas/datasets.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <sstream>

#include "netcore/error.hpp"

namespace dynaddr::atlas {
namespace {

using net::IPv4Address;
using net::TimePoint;

TEST(PeerAddress, V4RoundTrip) {
    const auto addr = PeerAddress::ipv4(IPv4Address(91, 55, 174, 103));
    EXPECT_EQ(addr.to_string(), "91.55.174.103");
    auto parsed = PeerAddress::parse("91.55.174.103");
    ASSERT_TRUE(parsed);
    EXPECT_EQ(*parsed, addr);
    EXPECT_TRUE(parsed->is_v4());
}

TEST(PeerAddress, V6RoundTrip) {
    const auto addr = PeerAddress::ipv6_token(0xABCD1234);
    const std::string text = addr.to_string();
    EXPECT_NE(text.find(':'), std::string::npos);
    auto parsed = PeerAddress::parse(text);
    ASSERT_TRUE(parsed);
    EXPECT_EQ(*parsed, addr);
    EXPECT_FALSE(parsed->is_v4());
}

TEST(PeerAddress, RejectsGarbage) {
    EXPECT_FALSE(PeerAddress::parse("not-an-address"));
    EXPECT_FALSE(PeerAddress::parse("1.2.3"));
    EXPECT_FALSE(PeerAddress::parse("2001:db8::zz:1"));
    EXPECT_FALSE(PeerAddress::parse(""));
}

TEST(Datasets, ConnectionLogCsvRoundTrip) {
    std::vector<ConnectionLogEntry> entries = {
        {206, TimePoint::from_date(2015, 1, 1),
         TimePoint::from_civil({2015, 1, 1, 17, 34, 11}),
         PeerAddress::ipv4(IPv4Address(91, 55, 169, 37))},
        {206, TimePoint::from_civil({2015, 1, 1, 18, 0, 54}),
         TimePoint::from_civil({2015, 1, 1, 18, 42, 31}),
         PeerAddress::ipv6_token(42)},
    };
    std::stringstream buffer;
    write_connection_log_csv(buffer, entries);
    const auto back = read_connection_log_csv(buffer);
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].probe, 206u);
    EXPECT_EQ(back[0].start, entries[0].start);
    EXPECT_EQ(back[0].end, entries[0].end);
    EXPECT_EQ(back[0].address, entries[0].address);
    EXPECT_EQ(back[1].address, entries[1].address);
}

TEST(Datasets, KRootCsvRoundTrip) {
    std::vector<KRootPingRecord> records = {
        {16893, TimePoint::from_civil({2015, 1, 27, 9, 5, 48}), 3, 0, 151},
        {16893, TimePoint::from_civil({2015, 1, 27, 9, 9, 45}), 3, 3, 86},
    };
    std::stringstream buffer;
    write_kroot_csv(buffer, records);
    const auto back = read_kroot_csv(buffer);
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].success, 0);
    EXPECT_EQ(back[0].lts_seconds, 151);
    EXPECT_EQ(back[1].sent, 3);
}

TEST(Datasets, UptimeCsvRoundTrip) {
    std::vector<UptimeRecord> records = {
        {206, TimePoint::from_civil({2015, 1, 1, 17, 50, 55}), 19},
    };
    std::stringstream buffer;
    write_uptime_csv(buffer, records);
    const auto back = read_uptime_csv(buffer);
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back[0].uptime_seconds, 19u);
}

TEST(Datasets, ProbesCsvRoundTripWithTags) {
    std::vector<ProbeMetadata> probes = {
        {1, ProbeVersion::V3, "DE", {"multihomed", "datacentre"}},
        {2, ProbeVersion::V1, "US", {}},
    };
    std::stringstream buffer;
    write_probes_csv(buffer, probes);
    const auto back = read_probes_csv(buffer);
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].tags, (std::vector<std::string>{"multihomed", "datacentre"}));
    EXPECT_EQ(back[0].version, ProbeVersion::V3);
    EXPECT_TRUE(back[1].tags.empty());
    EXPECT_EQ(back[1].version, ProbeVersion::V1);
}

TEST(Datasets, BundleSortOrdersByProbeThenTime) {
    DatasetBundle bundle;
    bundle.connection_log = {
        {2, TimePoint{100}, TimePoint{200}, PeerAddress::ipv4(IPv4Address(1, 1, 1, 1))},
        {1, TimePoint{300}, TimePoint{400}, PeerAddress::ipv4(IPv4Address(1, 1, 1, 2))},
        {1, TimePoint{100}, TimePoint{200}, PeerAddress::ipv4(IPv4Address(1, 1, 1, 3))},
    };
    bundle.kroot_pings = {{5, TimePoint{50}, 3, 3, 0}, {4, TimePoint{10}, 3, 3, 0}};
    bundle.sort();
    EXPECT_EQ(bundle.connection_log[0].probe, 1u);
    EXPECT_EQ(bundle.connection_log[0].start.unix_seconds(), 100);
    EXPECT_EQ(bundle.connection_log[1].start.unix_seconds(), 300);
    EXPECT_EQ(bundle.connection_log[2].probe, 2u);
    EXPECT_EQ(bundle.kroot_pings[0].probe, 4u);
}

TEST(Datasets, BundleDirectoryRoundTrip) {
    DatasetBundle bundle;
    bundle.connection_log = {{1, TimePoint{0}, TimePoint{10},
                              PeerAddress::ipv4(IPv4Address(9, 9, 9, 9))}};
    bundle.kroot_pings = {{1, TimePoint{5}, 3, 3, 30}};
    bundle.uptime_records = {{1, TimePoint{5}, 1000}};
    bundle.probes = {{1, ProbeVersion::V2, "FR", {"home"}}};
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("dynaddr_bundle_test_" + std::to_string(::getpid()) +
          "_BundleDirectoryRoundTrip"))
            .string();
    write_bundle(dir, bundle);
    const auto back = read_bundle(dir);
    EXPECT_EQ(back.connection_log.size(), 1u);
    EXPECT_EQ(back.kroot_pings.size(), 1u);
    EXPECT_EQ(back.uptime_records.size(), 1u);
    ASSERT_EQ(back.probes.size(), 1u);
    EXPECT_EQ(back.probes[0].country_code, "FR");
    std::filesystem::remove_all(dir);
}

TEST(Datasets, TestingAddressIsRipeNcc) {
    EXPECT_EQ(testing_address().to_string(), "193.0.0.78");
}

}  // namespace
}  // namespace dynaddr::atlas
