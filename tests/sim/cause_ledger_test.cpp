#include "sim/cause_ledger.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>

#include "netcore/error.hpp"

namespace dynaddr::sim {
namespace {

using net::Duration;
using net::IPv4Address;
using net::IPv4Prefix;
using net::TimePoint;

IPv4Address addr(const char* text) { return IPv4Address::parse_or_throw(text); }

/// A ledger with one registered client holding 10.0.0.1 since t=1000.
CauseLedger tenured_ledger() {
    CauseLedger ledger;
    ledger.register_client(7, 1007);
    ledger.acquired(7, TimePoint{1000}, addr("10.0.0.1"));
    return ledger;
}

TEST(CauseLedger, ExactlyOneRecordPerAddressChange) {
    CauseLedger ledger = tenured_ledger();
    // Same address re-bound: a renewal, not a change — no record.
    ledger.acquired(7, TimePoint{2000}, addr("10.0.0.1"));
    EXPECT_EQ(ledger.records().size(), 0u);
    ledger.lost(7, TimePoint{3000}, CauseKind::LeaseExpiry,
                CauseSite::DhcpLeaseTimer);
    ledger.acquired(7, TimePoint{3100}, addr("10.0.0.2"));
    ASSERT_EQ(ledger.records().size(), 1u);
    const CauseRecord& record = ledger.records()[0];
    EXPECT_EQ(record.probe, 1007u);
    EXPECT_EQ(record.client, 7u);
    EXPECT_EQ(record.at, TimePoint{3100});
    EXPECT_EQ(record.lost_at, TimePoint{3000});
    EXPECT_EQ(record.kind, CauseKind::LeaseExpiry);
    EXPECT_EQ(record.site, CauseSite::DhcpLeaseTimer);
    EXPECT_EQ(record.old_addr, addr("10.0.0.1"));
    EXPECT_EQ(record.new_addr, addr("10.0.0.2"));
    EXPECT_EQ(ledger.total_records(), 1u);
}

TEST(CauseLedger, AdminNoteOutranksEverything) {
    CauseLedger ledger = tenured_ledger();
    ledger.note(7, CauseKind::AdminRenumbering, CauseSite::DhcpRetiredPrefix,
                TimePoint{1500});
    ledger.power_down(7, TimePoint{1600}, CauseSite::OutagePower);
    ledger.lost(7, TimePoint{1700}, CauseKind::LeaseExpiry,
                CauseSite::DhcpLeaseTimer);
    ledger.power_up(7, TimePoint{1800});
    ledger.acquired(7, TimePoint{1900}, addr("10.0.9.1"));
    ASSERT_EQ(ledger.records().size(), 1u);
    EXPECT_EQ(ledger.records()[0].kind, CauseKind::AdminRenumbering);
    EXPECT_EQ(ledger.records()[0].site, CauseSite::DhcpRetiredPrefix);
    EXPECT_EQ(ledger.records()[0].root_at, TimePoint{1500});
}

TEST(CauseLedger, RetiredPrefixResolvesWithoutPerClientNote) {
    // PPP subscribers get no per-client evict signal on an administrative
    // retirement; the retired-prefix lookup covers them.
    CauseLedger ledger = tenured_ledger();
    ledger.admin_retire(IPv4Prefix::parse_or_throw("10.0.0.0/24"),
                        TimePoint{1400});
    ledger.lost(7, TimePoint{1500}, CauseKind::SessionExpiry,
                CauseSite::PppSessionTimeout);
    ledger.acquired(7, TimePoint{1600}, addr("10.0.9.1"));
    ASSERT_EQ(ledger.records().size(), 1u);
    EXPECT_EQ(ledger.records()[0].kind, CauseKind::AdminRenumbering);
    EXPECT_EQ(ledger.records()[0].site, CauseSite::AdminEvent);
    EXPECT_EQ(ledger.records()[0].root_at, TimePoint{1400});
}

TEST(CauseLedger, NetworkEpisodeOutranksPowerWhenBothOverlap) {
    CauseLedger ledger = tenured_ledger();
    ledger.power_down(7, TimePoint{2000}, CauseSite::FaultStorm);
    ledger.net_down(7, TimePoint{2100}, CauseSite::OutageNetwork);
    ledger.lost(7, TimePoint{2200}, CauseKind::Unknown, CauseSite::Unspecified);
    ledger.net_up(7, TimePoint{2700});
    ledger.power_up(7, TimePoint{2800});
    ledger.acquired(7, TimePoint{2900}, addr("10.0.0.2"));
    ASSERT_EQ(ledger.records().size(), 1u);
    EXPECT_EQ(ledger.records()[0].kind, CauseKind::NetworkOutage);
    EXPECT_EQ(ledger.records()[0].site, CauseSite::OutageNetwork);
    EXPECT_EQ(ledger.records()[0].root_at, TimePoint{2100});
    EXPECT_EQ(ledger.records()[0].root_duration, Duration{600});
}

TEST(CauseLedger, CompletedEpisodeBeforeLossDoesNotClaimTheChange) {
    CauseLedger ledger = tenured_ledger();
    ledger.power_down(7, TimePoint{1200}, CauseSite::OutagePower);
    ledger.power_up(7, TimePoint{1300});
    // The CPE survived the outage; the later lease expiry is the cause.
    ledger.lost(7, TimePoint{5000}, CauseKind::LeaseExpiry,
                CauseSite::DhcpLeaseTimer);
    ledger.acquired(7, TimePoint{5100}, addr("10.0.0.2"));
    ASSERT_EQ(ledger.records().size(), 1u);
    EXPECT_EQ(ledger.records()[0].kind, CauseKind::LeaseExpiry);
}

TEST(CauseLedger, PreLossBlockingOutranksProtocolLossReason) {
    // The lease ran out *because* every renew met a dead server: the
    // server being down is the root cause, not the lease timer.
    CauseLedger ledger = tenured_ledger();
    ledger.note(7, CauseKind::ServerDown, CauseSite::DhcpServerOffline,
                TimePoint{2000});
    ledger.lost(7, TimePoint{2500}, CauseKind::LeaseExpiry,
                CauseSite::DhcpLeaseTimer);
    ledger.acquired(7, TimePoint{2600}, addr("10.0.0.2"));
    ASSERT_EQ(ledger.records().size(), 1u);
    EXPECT_EQ(ledger.records()[0].kind, CauseKind::ServerDown);
    EXPECT_EQ(ledger.records()[0].site, CauseSite::DhcpServerOffline);
    EXPECT_EQ(ledger.records()[0].root_at, TimePoint{2000});
}

TEST(CauseLedger, PoolExhaustedOutranksServerDownAndMessageFault) {
    CauseLedger ledger = tenured_ledger();
    ledger.note(7, CauseKind::MessageFault, CauseSite::FaultMessage,
                TimePoint{2000});
    ledger.note(7, CauseKind::ServerDown, CauseSite::DhcpServerOffline,
                TimePoint{2100});
    ledger.note(7, CauseKind::PoolExhausted, CauseSite::DhcpPoolExhausted,
                TimePoint{2200});
    ledger.lost(7, TimePoint{2300}, CauseKind::LeaseExpiry,
                CauseSite::DhcpLeaseTimer);
    ledger.acquired(7, TimePoint{2400}, addr("10.0.0.2"));
    ASSERT_EQ(ledger.records().size(), 1u);
    EXPECT_EQ(ledger.records()[0].kind, CauseKind::PoolExhausted);
}

TEST(CauseLedger, PostLossBlockingExplainsAnUnknownLoss) {
    CauseLedger ledger = tenured_ledger();
    ledger.lost(7, TimePoint{2000}, CauseKind::Unknown, CauseSite::Unspecified);
    // Reacquisition kept failing on an exhausted pool.
    ledger.note(7, CauseKind::PoolExhausted, CauseSite::RadiusPoolExhausted,
                TimePoint{2500});
    ledger.acquired(7, TimePoint{3000}, addr("10.0.0.2"));
    ASSERT_EQ(ledger.records().size(), 1u);
    EXPECT_EQ(ledger.records()[0].kind, CauseKind::PoolExhausted);
    EXPECT_EQ(ledger.records()[0].site, CauseSite::RadiusPoolExhausted);
}

TEST(CauseLedger, RenewOkClearsStaleBlockingNotes) {
    CauseLedger ledger = tenured_ledger();
    ledger.note(7, CauseKind::ServerDown, CauseSite::DhcpServerOffline,
                TimePoint{1500});
    ledger.renew_ok(7);  // tenure survived the trouble
    ledger.lost(7, TimePoint{5000}, CauseKind::SessionExpiry,
                CauseSite::PppSessionTimeout);
    ledger.acquired(7, TimePoint{5100}, addr("10.0.0.2"));
    ASSERT_EQ(ledger.records().size(), 1u);
    EXPECT_EQ(ledger.records()[0].kind, CauseKind::SessionExpiry);
}

TEST(CauseLedger, EarliestNotePerKindIsTheRoot) {
    CauseLedger ledger = tenured_ledger();
    ledger.note(7, CauseKind::ServerDown, CauseSite::DhcpServerOffline,
                TimePoint{2000});
    ledger.note(7, CauseKind::ServerDown, CauseSite::DhcpServerOffline,
                TimePoint{2400});  // a later retry meeting the same wall
    ledger.lost(7, TimePoint{2500}, CauseKind::Unknown, CauseSite::Unspecified);
    ledger.acquired(7, TimePoint{2600}, addr("10.0.0.2"));
    ASSERT_EQ(ledger.records().size(), 1u);
    EXPECT_EQ(ledger.records()[0].root_at, TimePoint{2000});
}

TEST(CauseLedger, SinkStreamsWithoutRetaining) {
    struct CountingSink : CauseSink {
        std::vector<CauseRecord> seen;
        void append(const CauseRecord& record) override {
            seen.push_back(record);
        }
    } sink;
    CauseLedgerConfig config;
    config.keep_records = false;
    CauseLedger ledger(config);
    ledger.set_sink(&sink);
    ledger.acquired(7, TimePoint{1000}, addr("10.0.0.1"));
    ledger.lost(7, TimePoint{2000}, CauseKind::SessionExpiry,
                CauseSite::PppSessionTimeout);
    ledger.acquired(7, TimePoint{2100}, addr("10.0.0.2"));
    EXPECT_EQ(ledger.records().size(), 0u);  // nothing retained
    EXPECT_EQ(ledger.total_records(), 1u);
    ASSERT_EQ(sink.seen.size(), 1u);
    EXPECT_EQ(sink.seen[0].kind, CauseKind::SessionExpiry);
}

TEST(CauseLedger, ScopedInstallGatesTheFreeFunctions) {
    // No ledger: hooks are inert.
    cause_acquired(9, TimePoint{100}, addr("10.1.0.1"));
    {
        ScopedCauseLedger scope;
        cause_register_client(9, 1009);
        cause_acquired(9, TimePoint{1000}, addr("10.1.0.1"));
        cause_lost(9, TimePoint{2000}, CauseKind::NightlyReconnect,
                   CauseSite::CpeNightlyReconnect);
        cause_acquired(9, TimePoint{2100}, addr("10.1.0.2"));
        ASSERT_EQ(scope.ledger().records().size(), 1u);
        EXPECT_EQ(scope.ledger().records()[0].kind,
                  CauseKind::NightlyReconnect);
    }
    EXPECT_EQ(cause_ledger(), nullptr);
}

// -- serialization ---------------------------------------------------------

std::vector<CauseRecord> sample_records() {
    std::vector<CauseRecord> records;
    for (int i = 0; i < 5; ++i) {
        CauseRecord r;
        r.probe = 1000u + std::uint64_t(i);
        r.client = 10u + std::uint64_t(i);
        r.at = TimePoint{1420070400 + i * 86400};
        r.lost_at = r.at - Duration{90};
        r.root_at = r.lost_at - Duration{5};
        r.kind = CauseKind(std::size_t(i) % kCauseKindCount);
        r.site = CauseSite(std::size_t(i) % kCauseSiteCount);
        r.old_addr = addr("90.3.1.19");
        r.new_addr = addr("90.3.3.48");
        r.root_duration = Duration{i * 407};
        records.push_back(r);
    }
    return records;
}

TEST(CauseLedgerCodec, CsvRoundTrip) {
    const auto records = sample_records();
    const auto reparsed =
        cause_ledger_from_csv(cause_ledger_to_csv(records), /*strict=*/true);
    EXPECT_EQ(reparsed, records);
}

TEST(CauseLedgerCodec, BinaryRoundTrip) {
    const auto records = sample_records();
    const std::string blob = encode_cause_ledger(records);
    EXPECT_TRUE(is_cause_ledger_binary(blob));
    EXPECT_EQ(decode_cause_ledger(blob, /*strict=*/true), records);
}

TEST(CauseLedgerCodec, BinaryWriterFileEqualsEncode) {
    // The streaming writer and the in-memory encoder share one DCL1
    // layout; 1100 records span three 512-record blocks.
    std::vector<CauseRecord> records;
    for (int round = 0; records.size() < 1100; ++round)
        for (CauseRecord r : sample_records()) {
            r.at = r.at + Duration{round * 600};
            records.push_back(r);
        }
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("dynaddr_dcl1_writer_" + std::to_string(::getpid()) + ".dcl"))
            .string();
    {
        BinaryCauseWriter writer(path);
        for (const auto& r : records) writer.append(r);
        writer.close();
    }
    std::ifstream in(path, std::ios::binary);
    const std::string written((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
    std::filesystem::remove(path);
    EXPECT_TRUE(written == encode_cause_ledger(records));
}

TEST(CauseLedgerCodec, StrictCsvThrowsOnBadRow) {
    const std::string csv = cause_ledger_to_csv(sample_records()) +
                            "1,2,bogus,4,5,flux,nowhere,1.2.3.4,bad,-7\n";
    EXPECT_THROW((void)cause_ledger_from_csv(csv, /*strict=*/true), ParseError);
    CauseDecodeStats stats;
    const auto salvaged = cause_ledger_from_csv(csv, /*strict=*/false, &stats);
    EXPECT_EQ(salvaged.size(), 5u);
    EXPECT_EQ(stats.rows_rejected, 1u);
}

TEST(CauseLedgerCodec, LenientBinarySalvagesTruncatedFile) {
    std::string blob = encode_cause_ledger(sample_records());
    blob.resize(blob.size() - 9);  // tear off the tail magic + footer end
    EXPECT_THROW((void)decode_cause_ledger(blob, /*strict=*/true), ParseError);
    CauseDecodeStats stats;
    (void)decode_cause_ledger(blob, /*strict=*/false, &stats);  // never throws
}

TEST(CauseLedgerCodec, KindAndSiteTokensRoundTrip) {
    for (std::size_t k = 0; k < kCauseKindCount; ++k)
        EXPECT_EQ(cause_kind_from_name(cause_kind_name(CauseKind(k))),
                  CauseKind(k));
    for (std::size_t s = 0; s < kCauseSiteCount; ++s)
        EXPECT_EQ(cause_site_from_name(cause_site_name(CauseSite(s))),
                  CauseSite(s));
    EXPECT_EQ(cause_kind_from_name("flux_capacitor"), std::nullopt);
}

}  // namespace
}  // namespace dynaddr::sim
