// Columnar binary bundle (DAB2): per-dataset round trips, whole-bundle
// file I/O, the streaming writer/reader pair, lenient decoding of
// fault-garbled files, and the error-context contract (dataset + path in
// every failure message).

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "atlas/binary_bundle.hpp"
#include "netcore/error.hpp"
#include "netcore/obs/metrics.hpp"
#include "netcore/rng.hpp"
#include "sim/faults.hpp"

namespace dynaddr::atlas {
namespace {

namespace fs = std::filesystem;

class TempDir {
public:
    explicit TempDir(const std::string& tag)
        : path_(fs::temp_directory_path() /
                ("dynaddr_dab_test_" + tag + "_" +
                 std::to_string(::getpid()))) {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~TempDir() { fs::remove_all(path_); }
    [[nodiscard]] std::string str() const { return path_.string(); }

private:
    fs::path path_;
};

/// A probe-grouped bundle with every encoder feature in play: v4 and v6
/// addresses (dictionary), repeated addresses (dictionary hits), negative
/// lts values (zigzag), multi-block probes (block_records below).
DatasetBundle make_bundle() {
    DatasetBundle bundle;
    net::TimePoint t = net::TimePoint::from_date(2015, 1, 1);
    for (ProbeId probe : {ProbeId(7), ProbeId(12), ProbeId(4000000)}) {
        for (int i = 0; i < 10; ++i) {
            ConnectionLogEntry e;
            e.probe = probe;
            e.start = t + net::Duration::hours(24 * i + int(probe % 7));
            e.end = e.start + net::Duration::minutes(60 + i);
            e.address = (i % 4 == 3)
                            ? PeerAddress::ipv6_token(std::uint64_t(i % 2))
                            : PeerAddress::ipv4(net::IPv4Address{
                                  0x5B37AE00u + std::uint32_t(i % 3)});
            bundle.connection_log.push_back(e);
        }
        for (int i = 0; i < 25; ++i) {
            KRootPingRecord r;
            r.probe = probe;
            r.timestamp = t + net::Duration::minutes(4 * i);
            r.sent = 3;
            r.success = i % 5 == 0 ? 1 : 3;
            r.lts_seconds = i % 6 == 0 ? -1 : 240 + i;
            bundle.kroot_pings.push_back(r);
        }
        for (int i = 0; i < 6; ++i) {
            UptimeRecord r;
            r.probe = probe;
            r.timestamp = t + net::Duration::hours(12 * i);
            r.uptime_seconds = std::uint64_t(i) * 43200u;
            bundle.uptime_records.push_back(r);
        }
        ProbeMetadata meta;
        meta.probe = probe;
        meta.version = probe == 12 ? ProbeVersion::V2 : ProbeVersion::V3;
        meta.country_code = probe == 7 ? "DE" : "NL";
        if (probe == 12) meta.tags = {"multihomed", "home"};
        bundle.probes.push_back(meta);
    }
    return bundle;
}

bool equal(const ConnectionLogEntry& a, const ConnectionLogEntry& b) {
    return a.probe == b.probe && a.start == b.start && a.end == b.end &&
           a.address == b.address;
}
bool equal(const KRootPingRecord& a, const KRootPingRecord& b) {
    return a.probe == b.probe && a.timestamp == b.timestamp &&
           a.sent == b.sent && a.success == b.success &&
           a.lts_seconds == b.lts_seconds;
}
bool equal(const UptimeRecord& a, const UptimeRecord& b) {
    return a.probe == b.probe && a.timestamp == b.timestamp &&
           a.uptime_seconds == b.uptime_seconds;
}
bool equal(const ProbeMetadata& a, const ProbeMetadata& b) {
    return a.probe == b.probe && a.version == b.version &&
           a.country_code == b.country_code && a.tags == b.tags;
}

template <typename Record>
void expect_equal_records(const std::vector<Record>& got,
                          const std::vector<Record>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_TRUE(equal(got[i], want[i])) << "record " << i;
}

TEST(BinaryBundle, ConnectionLogRoundTrip) {
    const auto bundle = make_bundle();
    // block_records=4 forces multiple blocks per probe.
    const std::string blob =
        encode_connection_log_binary(bundle.connection_log, 4);
    expect_equal_records(decode_connection_log_binary(blob),
                         bundle.connection_log);
}

TEST(BinaryBundle, KRootRoundTrip) {
    const auto bundle = make_bundle();
    const std::string blob = encode_kroot_binary(bundle.kroot_pings, 8);
    expect_equal_records(decode_kroot_binary(blob), bundle.kroot_pings);
}

TEST(BinaryBundle, UptimeRoundTrip) {
    const auto bundle = make_bundle();
    const std::string blob = encode_uptime_binary(bundle.uptime_records, 4);
    expect_equal_records(decode_uptime_binary(blob), bundle.uptime_records);
}

TEST(BinaryBundle, ProbesRoundTrip) {
    const auto bundle = make_bundle();
    const std::string blob = encode_probes_binary(bundle.probes, 2);
    expect_equal_records(decode_probes_binary(blob), bundle.probes);
}

TEST(BinaryBundle, EmptyDatasetsRoundTrip) {
    EXPECT_TRUE(decode_connection_log_binary(encode_connection_log_binary({}))
                    .empty());
    EXPECT_TRUE(decode_kroot_binary(encode_kroot_binary({})).empty());
    EXPECT_TRUE(decode_uptime_binary(encode_uptime_binary({})).empty());
    EXPECT_TRUE(decode_probes_binary(encode_probes_binary({})).empty());
}

TEST(BinaryBundle, KindConfusionRejected) {
    // A kroot file fed to the connection-log decoder must be a clean
    // ParseError, not a misdecoded vector.
    const auto bundle = make_bundle();
    const std::string blob = encode_kroot_binary(bundle.kroot_pings);
    EXPECT_THROW((void)decode_connection_log_binary(blob), ParseError);
}

TEST(BinaryBundle, TruncatedAndGarbageInputsRejected) {
    const std::string blob =
        encode_uptime_binary(make_bundle().uptime_records);
    EXPECT_THROW((void)decode_uptime_binary(""), ParseError);
    EXPECT_THROW((void)decode_uptime_binary("DAB2"), ParseError);
    EXPECT_THROW((void)decode_uptime_binary("not a bundle at all"),
                 ParseError);
    EXPECT_THROW(
        (void)decode_uptime_binary(std::string_view(blob).substr(
            0, blob.size() - 13)),
        ParseError);
}

TEST(BinaryBundle, WholeBundleFileRoundTrip) {
    TempDir dir("bundle");
    const auto bundle = make_bundle();
    write_binary_bundle(dir.str(), bundle, 8);
    EXPECT_TRUE(binary_bundle_present(dir.str()));
    const auto back = read_binary_bundle(dir.str());
    expect_equal_records(back.connection_log, bundle.connection_log);
    expect_equal_records(back.kroot_pings, bundle.kroot_pings);
    expect_equal_records(back.uptime_records, bundle.uptime_records);
    expect_equal_records(back.probes, bundle.probes);
}

TEST(BinaryBundle, ReadBundleAutoPrefersBinary) {
    TempDir dir("auto");
    const auto bundle = make_bundle();
    write_binary_bundle(dir.str(), bundle);
    const auto back = read_bundle_auto(dir.str());
    expect_equal_records(back.connection_log, bundle.connection_log);
    EXPECT_FALSE(binary_bundle_present(dir.str() + "/nonexistent"));
}

TEST(BinaryBundle, StreamingWriterMatchesBatchWriter) {
    TempDir dir("writer");
    const auto bundle = make_bundle();
    {
        BinaryBundleWriter writer(dir.str(), 8);
        for (const auto& e : bundle.connection_log) writer.add_connection(e);
        for (const auto& r : bundle.kroot_pings) writer.add_kroot(r);
        for (const auto& r : bundle.uptime_records) writer.add_uptime(r);
        for (const auto& m : bundle.probes) writer.add_probe(m);
        writer.close();
    }
    const auto back = read_binary_bundle(dir.str());
    expect_equal_records(back.connection_log, bundle.connection_log);
    expect_equal_records(back.kroot_pings, bundle.kroot_pings);
    expect_equal_records(back.uptime_records, bundle.uptime_records);
    expect_equal_records(back.probes, bundle.probes);
}

TEST(BinaryBundle, InterleavedProbesStillRoundTrip) {
    // The live simulator tee delivers records in time order, probes
    // interleaved — each probe switch closes a block. Record order per
    // probe must survive; whole-file decode preserves file order.
    std::vector<UptimeRecord> records;
    net::TimePoint t = net::TimePoint::from_date(2015, 1, 1);
    for (int i = 0; i < 40; ++i) {
        UptimeRecord r;
        r.probe = ProbeId(1 + i % 3);
        r.timestamp = t + net::Duration::minutes(i);
        r.uptime_seconds = std::uint64_t(i);
        records.push_back(r);
    }
    const auto back = decode_uptime_binary(encode_uptime_binary(records, 64));
    expect_equal_records(back, records);
}

TEST(BinaryBundle, BatchReadGroupsTeedBundleByProbe) {
    // The simulator tee writes records as they happen, probes
    // interleaved. The batch reader must return each dataset grouped by
    // probe, with each probe's records in their original order — the
    // sequence the streaming reader delivers.
    TempDir dir("teed");
    DatasetBundle teed;
    const net::TimePoint t = net::TimePoint::from_date(2015, 1, 1);
    for (int i = 0; i < 30; ++i) {
        const ProbeId probe = ProbeId(9 - 3 * (i % 3));  // 9, 6, 3, 9, ...
        ConnectionLogEntry e;
        e.probe = probe;
        e.start = t + net::Duration::hours(i);
        e.end = e.start + net::Duration::minutes(30);
        e.address = PeerAddress::ipv4(net::IPv4Address{0x5B37AE00u +
                                                       std::uint32_t(i)});
        teed.connection_log.push_back(e);
        UptimeRecord r;
        r.probe = probe;
        r.timestamp = t + net::Duration::hours(i);
        r.uptime_seconds = std::uint64_t(1000 - i);
        teed.uptime_records.push_back(r);
    }
    {
        BinaryBundleWriter writer(dir.str(), 4);
        for (const auto& e : teed.connection_log) writer.add_connection(e);
        for (const auto& r : teed.uptime_records) writer.add_uptime(r);
        writer.close();
    }

    auto grouped = teed;
    auto by_probe = [](const auto& a, const auto& b) {
        return a.probe < b.probe;
    };
    std::stable_sort(grouped.connection_log.begin(),
                     grouped.connection_log.end(), by_probe);
    std::stable_sort(grouped.uptime_records.begin(),
                     grouped.uptime_records.end(), by_probe);
    const auto back = read_binary_bundle(dir.str());
    expect_equal_records(back.connection_log, grouped.connection_log);
    expect_equal_records(back.uptime_records, grouped.uptime_records);

    struct Collector : BundleStreamHandler {
        DatasetBundle bundle;
        void on_metadata(const ProbeMetadata& meta) override {
            bundle.probes.push_back(meta);
        }
        void on_connection(const ConnectionLogEntry& entry) override {
            bundle.connection_log.push_back(entry);
        }
        void on_kroot(const KRootPingRecord& record) override {
            bundle.kroot_pings.push_back(record);
        }
        void on_uptime(const UptimeRecord& record) override {
            bundle.uptime_records.push_back(record);
        }
        void on_probe_complete(ProbeId) override {}
    } streamed;
    stream_binary_bundle(dir.str(), streamed);
    expect_equal_records(back.connection_log, streamed.bundle.connection_log);
    expect_equal_records(back.uptime_records, streamed.bundle.uptime_records);
}

TEST(BinaryBundle, StreamReadDeliversProbesInAscendingSealedOrder) {
    TempDir dir("stream");
    const auto bundle = make_bundle();
    write_binary_bundle(dir.str(), bundle, 4);

    struct Recorder : BundleStreamHandler {
        std::vector<ProbeId> metadata, sealed;
        std::vector<ConnectionLogEntry> conlog;
        std::size_t kroot = 0, uptime = 0;
        ProbeId current = 0;
        void on_metadata(const ProbeMetadata& meta) override {
            metadata.push_back(meta.probe);
        }
        void on_connection(const ConnectionLogEntry& entry) override {
            // No record may arrive for an already-sealed probe.
            for (ProbeId done : sealed) ASSERT_LT(done, entry.probe);
            conlog.push_back(entry);
        }
        void on_kroot(const KRootPingRecord& record) override {
            for (ProbeId done : sealed) ASSERT_LT(done, record.probe);
            ++kroot;
        }
        void on_uptime(const UptimeRecord& record) override {
            for (ProbeId done : sealed) ASSERT_LT(done, record.probe);
            ++uptime;
        }
        void on_probe_complete(ProbeId probe) override {
            sealed.push_back(probe);
        }
    } recorder;
    stream_binary_bundle(dir.str(), recorder);

    EXPECT_EQ(recorder.metadata, (std::vector<ProbeId>{7, 12, 4000000}));
    EXPECT_EQ(recorder.sealed, (std::vector<ProbeId>{7, 12, 4000000}));
    expect_equal_records(recorder.conlog, bundle.connection_log);
    EXPECT_EQ(recorder.kroot, bundle.kroot_pings.size());
    EXPECT_EQ(recorder.uptime, bundle.uptime_records.size());
}

TEST(BinaryBundle, LenientDecodeDropsGarbledBlocksAndCounts) {
    const auto bundle = make_bundle();
    std::string blob = encode_kroot_binary(bundle.kroot_pings, 8);
    // Stomp the first block's header (right after the 6-byte file
    // header): its probe varint no longer matches the footer index, so
    // the block is structurally rejected and the reader resyncs at the
    // next indexed block. (Corruption inside a column payload can decode
    // into garbage values undetectably — that case is covered by the
    // fault-injection test below, which only asserts losses are counted.)
    blob[6] = char(0xFF);
    EXPECT_THROW((void)decode_kroot_binary(blob), ParseError);
    BinaryDecodeStats stats;
    const auto survivors = decode_kroot_binary(blob, true, &stats);
    EXPECT_EQ(stats.blocks_rejected, 1u);
    EXPECT_EQ(stats.rows_rejected, 8u);
    EXPECT_EQ(survivors.size() + stats.rows_rejected,
              bundle.kroot_pings.size());
    // Survivors are a subsequence of the original records.
    std::size_t cursor = 0;
    for (const auto& record : survivors) {
        while (cursor < bundle.kroot_pings.size() &&
               !equal(bundle.kroot_pings[cursor], record))
            ++cursor;
        ASSERT_LT(cursor, bundle.kroot_pings.size());
        ++cursor;
    }
}

TEST(BinaryBundle, UnreadableFooterIsEmptyInLenientMode) {
    std::string blob = encode_uptime_binary(make_bundle().uptime_records);
    blob.resize(blob.size() - 1);  // no tail magic: nowhere to resync
    BinaryDecodeStats stats;
    EXPECT_TRUE(decode_uptime_binary(blob, true, &stats).empty());
    EXPECT_EQ(stats.blocks_rejected, 1u);
}

TEST(BinaryBundle, FaultInjectedReadIsLenientAndCounted) {
    TempDir dir("faults");
    const auto bundle = make_bundle();
    write_binary_bundle(dir.str(), bundle, 4);

    const double rejected_before =
        obs::counter("faults.binary.rows_rejected").value();
    auto plan = sim::FaultPlan::parse("garbage,csv.rate=0.5,seed=11");
    sim::ScopedFaultInjector scope(plan);
    // The installed CSV garbling plan applies to binary reads too:
    // in-block bytes get stomped, the read degrades to lenient, and the
    // per-dataset losses land on the faults.binary.* counters.
    const auto back = read_binary_bundle(dir.str());
    EXPECT_LT(back.kroot_pings.size(), bundle.kroot_pings.size());
    EXPECT_GT(obs::counter("faults.binary.rows_rejected").value(),
              rejected_before);
}

TEST(BinaryBundle, CsvAndBinaryAgreeUnderFaultFreeRoundTrip) {
    // The two representations must describe the same records: CSV text
    // written from a binary-round-tripped bundle is byte-identical to CSV
    // written from the original.
    TempDir dir("csvdiff");
    const auto bundle = make_bundle();
    write_binary_bundle(dir.str(), bundle);
    const auto back = read_binary_bundle(dir.str());
    std::ostringstream original, reread;
    write_connection_log_csv(original, bundle.connection_log);
    write_connection_log_csv(reread, back.connection_log);
    EXPECT_EQ(original.str(), reread.str());
}

TEST(BinaryBundle, ErrorsNameDatasetAndPath) {
    TempDir dir("errors");
    {
        std::ofstream out(fs::path(dir.str()) / "connection_log.dab",
                          std::ios::binary);
        out << "DAB2 this is not a valid bundle";
    }
    try {
        (void)read_binary_bundle(dir.str());
        FAIL() << "expected Error";
    } catch (const Error& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("connection_log"), std::string::npos) << what;
        EXPECT_NE(what.find(dir.str()), std::string::npos) << what;
    }
    // A valid footer over a corrupt block: the streaming reader fails in
    // the block decode, after the footer parsed, and must name the
    // dataset and path there too.
    TempDir streamed("errors_stream");
    write_binary_bundle(streamed.str(), make_bundle(), 4);
    const fs::path uptime = fs::path(streamed.str()) / "uptime.dab";
    {
        std::fstream file(uptime,
                          std::ios::in | std::ios::out | std::ios::binary);
        file.seekp(6);  // first block's probe varint, right after the header
        file.put(char(0x7F));
    }
    struct Ignore : BundleStreamHandler {
        void on_metadata(const ProbeMetadata&) override {}
        void on_connection(const ConnectionLogEntry&) override {}
        void on_kroot(const KRootPingRecord&) override {}
        void on_uptime(const UptimeRecord&) override {}
        void on_probe_complete(ProbeId) override {}
    } ignore;
    try {
        stream_binary_bundle(streamed.str(), ignore);
        FAIL() << "expected Error";
    } catch (const Error& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("block header disagrees"), std::string::npos)
            << what;
        EXPECT_NE(what.find("dataset uptime"), std::string::npos) << what;
        EXPECT_NE(what.find(uptime.string()), std::string::npos) << what;
    }
    // Missing file: same contract on the open path.
    try {
        (void)read_binary_bundle(dir.str() + "/missing");
        FAIL() << "expected Error";
    } catch (const Error& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("dataset"), std::string::npos) << what;
        EXPECT_NE(what.find("missing"), std::string::npos) << what;
    }
}

TEST(BinaryBundle, MutationPropertyNeverCrashesEitherFormat) {
    // CSV <-> binary property check over deterministically garbled bytes:
    // for any mutation of a valid file, strict decode either succeeds or
    // throws ParseError, and lenient decode returns a subset without
    // throwing. (The open-ended campaign lives in fuzz_regress; this is
    // the quick in-suite version.)
    const auto bundle = make_bundle();
    const std::string blob = encode_kroot_binary(bundle.kroot_pings, 8);
    rng::Stream stream(0xDAB2u);
    for (int round = 0; round < 200; ++round) {
        std::string mutated = blob;
        const int edits = int(stream.uniform_int(1, 8));
        for (int e = 0; e < edits; ++e) {
            const auto at = std::size_t(
                stream.uniform_int(0, std::int64_t(mutated.size()) - 1));
            mutated[at] = char(stream.uniform_int(0, 255));
        }
        std::vector<KRootPingRecord> strict;
        try {
            strict = decode_kroot_binary(mutated);
        } catch (const ParseError&) {
        }
        BinaryDecodeStats stats;
        const auto lenient = decode_kroot_binary(mutated, true, &stats);
        EXPECT_LE(lenient.size(),
                  bundle.kroot_pings.size() + stats.rows_rejected + 64);
    }
}

}  // namespace
}  // namespace dynaddr::atlas
