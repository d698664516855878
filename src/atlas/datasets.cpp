#include "atlas/datasets.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string_view>

#include "netcore/csv.hpp"
#include "netcore/error.hpp"
#include "netcore/obs/log.hpp"
#include "netcore/obs/metrics.hpp"
#include "netcore/obs/trace.hpp"
#include "sim/faults.hpp"

DYNADDR_LOG_MODULE(datasets);

namespace dynaddr::atlas {

namespace {

std::int64_t parse_i64(std::string_view text) {
    std::int64_t value = 0;
    auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc{} || ptr != text.data() + text.size())
        throw ParseError("bad integer '" + std::string(text) + "'");
    return value;
}

net::TimePoint parse_time(std::string_view text) {
    auto t = net::TimePoint::parse(text);
    if (!t) throw ParseError("bad timestamp '" + std::string(text) + "'");
    return *t;
}

std::ofstream open_out(const std::filesystem::path& path,
                       const char* dataset) {
    std::ofstream out(path);
    if (!out)
        throw Error("cannot open " + path.string() +
                    " for writing (dataset " + dataset + ")");
    return out;
}

std::ifstream open_in(const std::filesystem::path& path, const char* dataset) {
    std::ifstream in(path);
    if (!in)
        throw Error("cannot open " + path.string() +
                    " for reading (dataset " + dataset + ")");
    return in;
}

/// With CSV faults planned, slurps the stream and mutilates its data rows
/// (header preserved); the caller then parses leniently. Returns nullopt
/// when faults are off, keeping the strict streaming path untouched.
std::optional<std::istringstream> faulted_stream(std::istream& in) {
    sim::FaultInjector* injector = sim::fault_injector();
    if (injector == nullptr || !injector->plan().csv.any()) return std::nullopt;
    std::string text{std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>()};
    injector->corrupt_csv(text);
    return std::istringstream(std::move(text));
}

/// Iterates `reader`, handing each row to `fn`. Strict mode propagates
/// ParseError; lenient mode (fault-garbled input) drops the offending row
/// and keeps going — ScanReader::next_row() advances past a malformed row
/// before throwing, so resuming is safe.
template <typename Fn>
void for_each_row(csv::ScanReader& reader, bool lenient, Fn&& fn) {
    while (true) {
        try {
            const auto* row = reader.next_row();
            if (row == nullptr) return;
            fn(*row);
        } catch (const ParseError&) {
            if (!lenient) throw;
            obs::counter("faults.csv.rows_rejected").inc();
        }
    }
}

/// Groups `records` by probe, ascending, keeping the file's record order
/// within a probe — the contract both bundle readers share. A per-probe
/// sorted file (what write_bundle of a sorted bundle produces) is already
/// grouped and skips the sort.
template <typename Record>
void group_by_probe(std::vector<Record>& records) {
    const auto by_probe = [](const Record& a, const Record& b) {
        return a.probe < b.probe;
    };
    if (!std::is_sorted(records.begin(), records.end(), by_probe))
        std::stable_sort(records.begin(), records.end(), by_probe);
}

}  // namespace

std::string PeerAddress::to_string() const {
    return family == Family::IPv4 ? v4.to_string() : v6.to_string();
}

std::optional<PeerAddress> PeerAddress::parse(std::string_view text) {
    if (text.find(':') == std::string_view::npos) {
        auto parsed = net::IPv4Address::parse(text);
        if (!parsed) return std::nullopt;
        return ipv4(*parsed);
    }
    auto parsed = net::IPv6Address::parse(text);
    if (!parsed) return std::nullopt;
    return ipv6(*parsed);
}

void DatasetBundle::sort() {
    auto by_probe_time = [](const auto& a, const auto& b) {
        if (a.probe != b.probe) return a.probe < b.probe;
        return a.timestamp < b.timestamp;
    };
    std::sort(connection_log.begin(), connection_log.end(),
              [](const ConnectionLogEntry& a, const ConnectionLogEntry& b) {
                  if (a.probe != b.probe) return a.probe < b.probe;
                  return a.start < b.start;
              });
    std::sort(kroot_pings.begin(), kroot_pings.end(), by_probe_time);
    std::sort(uptime_records.begin(), uptime_records.end(), by_probe_time);
    std::sort(probes.begin(), probes.end(),
              [](const ProbeMetadata& a, const ProbeMetadata& b) {
                  return a.probe < b.probe;
              });
}

void write_connection_log_csv(std::ostream& out,
                              const std::vector<ConnectionLogEntry>& entries) {
    csv::Writer writer(out, {"probe", "start", "end", "address"});
    for (const auto& e : entries)
        writer.write_row({std::to_string(e.probe), e.start.to_string(),
                          e.end.to_string(), e.address.to_string()});
}

std::vector<ConnectionLogEntry> read_connection_log_csv(std::istream& in) {
    auto faulted = faulted_stream(in);
    csv::ScanReader reader(faulted ? *faulted : in);
    const auto c_probe = reader.column("probe");
    const auto c_start = reader.column("start");
    const auto c_end = reader.column("end");
    const auto c_addr = reader.column("address");
    std::vector<ConnectionLogEntry> entries;
    for_each_row(reader, faulted.has_value(), [&](const auto& row) {
        ConnectionLogEntry entry;
        entry.probe = ProbeId(parse_i64(row[c_probe]));
        entry.start = parse_time(row[c_start]);
        entry.end = parse_time(row[c_end]);
        auto addr = PeerAddress::parse(row[c_addr]);
        if (!addr)
            throw ParseError("bad peer address '" + std::string(row[c_addr]) +
                             "'");
        entry.address = *addr;
        entries.push_back(entry);
    });
    return entries;
}

void write_kroot_csv(std::ostream& out, const std::vector<KRootPingRecord>& records) {
    csv::Writer writer(out, {"probe", "timestamp", "sent", "success", "lts"});
    for (const auto& r : records)
        writer.write_row({std::to_string(r.probe), r.timestamp.to_string(),
                          std::to_string(r.sent), std::to_string(r.success),
                          std::to_string(r.lts_seconds)});
}

std::vector<KRootPingRecord> read_kroot_csv(std::istream& in) {
    auto faulted = faulted_stream(in);
    csv::ScanReader reader(faulted ? *faulted : in);
    const auto c_probe = reader.column("probe");
    const auto c_ts = reader.column("timestamp");
    const auto c_sent = reader.column("sent");
    const auto c_success = reader.column("success");
    const auto c_lts = reader.column("lts");
    std::vector<KRootPingRecord> records;
    for_each_row(reader, faulted.has_value(), [&](const auto& row) {
        KRootPingRecord r;
        r.probe = ProbeId(parse_i64(row[c_probe]));
        r.timestamp = parse_time(row[c_ts]);
        r.sent = int(parse_i64(row[c_sent]));
        r.success = int(parse_i64(row[c_success]));
        r.lts_seconds = parse_i64(row[c_lts]);
        records.push_back(r);
    });
    return records;
}

void write_uptime_csv(std::ostream& out, const std::vector<UptimeRecord>& records) {
    csv::Writer writer(out, {"probe", "timestamp", "uptime"});
    for (const auto& r : records)
        writer.write_row({std::to_string(r.probe), r.timestamp.to_string(),
                          std::to_string(r.uptime_seconds)});
}

std::vector<UptimeRecord> read_uptime_csv(std::istream& in) {
    auto faulted = faulted_stream(in);
    csv::ScanReader reader(faulted ? *faulted : in);
    const auto c_probe = reader.column("probe");
    const auto c_ts = reader.column("timestamp");
    const auto c_uptime = reader.column("uptime");
    std::vector<UptimeRecord> records;
    for_each_row(reader, faulted.has_value(), [&](const auto& row) {
        UptimeRecord r;
        r.probe = ProbeId(parse_i64(row[c_probe]));
        r.timestamp = parse_time(row[c_ts]);
        r.uptime_seconds = std::uint64_t(parse_i64(row[c_uptime]));
        records.push_back(r);
    });
    return records;
}

void write_probes_csv(std::ostream& out, const std::vector<ProbeMetadata>& probes) {
    csv::Writer writer(out, {"probe", "version", "country", "tags"});
    for (const auto& p : probes) {
        std::string tags;
        for (std::size_t i = 0; i < p.tags.size(); ++i) {
            if (i > 0) tags.push_back(';');
            tags += p.tags[i];
        }
        writer.write_row({std::to_string(p.probe), std::to_string(int(p.version)),
                          p.country_code, tags});
    }
}

std::vector<ProbeMetadata> read_probes_csv(std::istream& in) {
    auto faulted = faulted_stream(in);
    csv::ScanReader reader(faulted ? *faulted : in);
    const auto c_probe = reader.column("probe");
    const auto c_version = reader.column("version");
    const auto c_country = reader.column("country");
    const auto c_tags = reader.column("tags");
    std::vector<ProbeMetadata> probes;
    for_each_row(reader, faulted.has_value(), [&](const auto& row) {
        ProbeMetadata p;
        p.probe = ProbeId(parse_i64(row[c_probe]));
        const int version = int(parse_i64(row[c_version]));
        if (version < 1 || version > 3) throw ParseError("bad probe version");
        p.version = ProbeVersion(version);
        p.country_code = std::string(row[c_country]);
        const std::string_view tags = row[c_tags];
        std::size_t pos = 0;
        while (pos < tags.size()) {
            auto sep = tags.find(';', pos);
            if (sep == std::string_view::npos) sep = tags.size();
            if (sep > pos)
                p.tags.push_back(std::string(tags.substr(pos, sep - pos)));
            pos = sep + 1;
        }
        probes.push_back(p);
    });
    return probes;
}

void write_bundle(const std::string& directory, const DatasetBundle& bundle) {
    obs::ObsSpan span("datasets.write_bundle", "io",
                      &obs::latency_histogram("datasets.write_bundle"));
    const std::filesystem::path dir(directory);
    std::filesystem::create_directories(dir);
    {
        auto out = open_out(dir / "connection_log.csv", "connection_log");
        write_connection_log_csv(out, bundle.connection_log);
    }
    {
        auto out = open_out(dir / "kroot.csv", "kroot");
        write_kroot_csv(out, bundle.kroot_pings);
    }
    {
        auto out = open_out(dir / "uptime.csv", "uptime");
        write_uptime_csv(out, bundle.uptime_records);
    }
    {
        auto out = open_out(dir / "probes.csv", "probes");
        write_probes_csv(out, bundle.probes);
    }
}

DatasetBundle read_bundle(const std::string& directory) {
    obs::ObsSpan span("datasets.read_bundle", "io",
                      &obs::latency_histogram("datasets.read_bundle"));
    const std::filesystem::path dir(directory);
    DatasetBundle bundle;
    {
        obs::ObsSpan part("datasets.read_connection_log", "io");
        auto in = open_in(dir / "connection_log.csv", "connection_log");
        bundle.connection_log = read_connection_log_csv(in);
        group_by_probe(bundle.connection_log);
    }
    {
        obs::ObsSpan part("datasets.read_kroot", "io");
        auto in = open_in(dir / "kroot.csv", "kroot");
        bundle.kroot_pings = read_kroot_csv(in);
        group_by_probe(bundle.kroot_pings);
    }
    {
        obs::ObsSpan part("datasets.read_uptime", "io");
        auto in = open_in(dir / "uptime.csv", "uptime");
        bundle.uptime_records = read_uptime_csv(in);
        group_by_probe(bundle.uptime_records);
    }
    {
        obs::ObsSpan part("datasets.read_probes", "io");
        auto in = open_in(dir / "probes.csv", "probes");
        bundle.probes = read_probes_csv(in);
        group_by_probe(bundle.probes);
    }
    obs::counter("datasets.rows_read")
        .inc(bundle.connection_log.size() + bundle.kroot_pings.size() +
             bundle.uptime_records.size() + bundle.probes.size());
    DYNADDR_LOG(Info, datasets, "read bundle from ", directory, ": ",
                bundle.connection_log.size(), " connections, ",
                bundle.kroot_pings.size(), " kroot pings, ",
                bundle.uptime_records.size(), " uptime records, ",
                bundle.probes.size(), " probes");
    return bundle;
}

net::IPv4Address testing_address() { return net::IPv4Address{193, 0, 0, 78}; }

}  // namespace dynaddr::atlas
