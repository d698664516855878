#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "netcore/ipv4.hpp"
#include "netcore/ipv6.hpp"
#include "netcore/time.hpp"

namespace dynaddr::atlas {

/// RIPE Atlas probe identifier.
using ProbeId = std::uint32_t;

/// Probe hardware generations. v1/v2 are vulnerable to
/// memory-fragmentation reboots when establishing TCP connections, which
/// is why the paper excludes them from power-outage analysis.
enum class ProbeVersion { V1 = 1, V2 = 2, V3 = 3 };

/// Peer address as seen by the central controller. The paper filters
/// dual-stack probes out of the IPv4 analysis; the IPv6 side additionally
/// feeds the RFC 4941 privacy-extension analysis the paper names as
/// future work.
struct PeerAddress {
    enum class Family { IPv4, IPv6 };
    Family family = Family::IPv4;
    net::IPv4Address v4;  ///< valid when family == IPv4
    net::IPv6Address v6;  ///< valid when family == IPv6

    static PeerAddress ipv4(net::IPv4Address a) {
        return {Family::IPv4, a, net::IPv6Address{}};
    }
    static PeerAddress ipv6(net::IPv6Address a) {
        return {Family::IPv6, net::IPv4Address{}, a};
    }
    /// Convenience for tests and opaque generators: a documentation-range
    /// (2001:db8::/32) address carrying `token` in its interface id.
    static PeerAddress ipv6_token(std::uint64_t token) {
        return ipv6(net::IPv6Address{0x20010db800000000ULL, token});
    }

    [[nodiscard]] bool is_v4() const { return family == Family::IPv4; }

    /// "91.55.174.103" or RFC 5952 IPv6 text.
    [[nodiscard]] std::string to_string() const;

    /// Parses either family (presence of ':' selects IPv6).
    static std::optional<PeerAddress> parse(std::string_view text);

    friend bool operator==(const PeerAddress&, const PeerAddress&) = default;
};

/// One row of the RIPE Atlas connection-logs dataset (paper Table 1):
/// one TCP connection from the probe to its central controller.
struct ConnectionLogEntry {
    ProbeId probe = 0;
    net::TimePoint start;  ///< connection establishment
    net::TimePoint end;    ///< last receipt of data
    PeerAddress address;   ///< publicly visible (CPE) address
};

/// One row of the k-root ping dataset (paper Table 3): every four minutes
/// the probe sends three pings to the k-root DNS server and reports the
/// outcome together with its "last time synchronised" age.
struct KRootPingRecord {
    ProbeId probe = 0;
    net::TimePoint timestamp;
    int sent = 3;
    int success = 3;
    std::int64_t lts_seconds = 0;  ///< seconds since last controller sync
};

/// One row of the SOS-uptime dataset (paper Table 4): the probe's
/// seconds-since-boot counter, reported on each new controller connection.
struct UptimeRecord {
    ProbeId probe = 0;
    net::TimePoint timestamp;
    std::uint64_t uptime_seconds = 0;
};

/// Probe metadata from the RIPE Atlas probe archive: the analysis uses the
/// country for geographic grouping and the voluntary tags for multihomed
/// filtering — both public metadata the paper also used.
struct ProbeMetadata {
    ProbeId probe = 0;
    ProbeVersion version = ProbeVersion::V3;
    std::string country_code;        ///< ISO 3166-1 alpha-2
    std::vector<std::string> tags;   ///< e.g. "multihomed", "datacentre"
};

/// The bundle of datasets one simulation run (or one real-data import)
/// produces; exactly what the paper's authors had to work with.
struct DatasetBundle {
    std::vector<ConnectionLogEntry> connection_log;
    std::vector<KRootPingRecord> kroot_pings;
    std::vector<UptimeRecord> uptime_records;
    std::vector<ProbeMetadata> probes;

    /// Sorts every dataset by (probe, time) — emitters append per-probe,
    /// so a global sort makes downstream scans deterministic.
    void sort();
};

/// CSV serialization, one file per dataset. Schemas:
///   connection_log: probe,start,end,address
///   kroot:          probe,timestamp,sent,success,lts
///   uptime:         probe,timestamp,uptime
///   probes:         probe,version,country,tags  (tags ';'-separated)
void write_connection_log_csv(std::ostream& out,
                              const std::vector<ConnectionLogEntry>& entries);
std::vector<ConnectionLogEntry> read_connection_log_csv(std::istream& in);

void write_kroot_csv(std::ostream& out, const std::vector<KRootPingRecord>& records);
std::vector<KRootPingRecord> read_kroot_csv(std::istream& in);

void write_uptime_csv(std::ostream& out, const std::vector<UptimeRecord>& records);
std::vector<UptimeRecord> read_uptime_csv(std::istream& in);

void write_probes_csv(std::ostream& out, const std::vector<ProbeMetadata>& probes);
std::vector<ProbeMetadata> read_probes_csv(std::istream& in);

/// Writes/reads the whole bundle to a directory (connection_log.csv,
/// kroot.csv, uptime.csv, probes.csv). read_bundle returns each dataset
/// grouped by probe, ascending, with the file's record order kept within
/// a probe — the same contract as read_binary_bundle — so files re-sorted
/// by time (as per-measurement exports arrive) analyze like probe-sorted
/// ones.
void write_bundle(const std::string& directory, const DatasetBundle& bundle);
DatasetBundle read_bundle(const std::string& directory);

/// The RIPE NCC testing address probes ship with (paper §3.3).
[[nodiscard]] net::IPv4Address testing_address();

}  // namespace dynaddr::atlas
