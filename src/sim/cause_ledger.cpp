#include "sim/cause_ledger.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>

#include "netcore/error.hpp"
#include "netcore/obs/metrics.hpp"
#include "netcore/varint.hpp"

namespace dynaddr::sim {

namespace {

constexpr const char* kKindNames[kCauseKindCount] = {
    "unknown",          "session_expiry", "lease_expiry",
    "nightly_reconnect", "max_age_eviction", "admin_renumbering",
    "cross_as_move",    "server_amnesia", "server_down",
    "pool_exhausted",   "power_outage",   "network_outage",
    "message_fault",
};

constexpr const char* kSiteNames[kCauseSiteCount] = {
    "unspecified",
    "ppp_session_timeout",
    "dhcp_lease_timer",
    "cpe_nightly_reconnect",
    "dhcp_max_age",
    "dhcp_retired_prefix",
    "dhcp_amnesia_crash",
    "dhcp_server_offline",
    "dhcp_pool_exhausted",
    "radius_server_offline",
    "radius_pool_exhausted",
    "outage_power",
    "outage_network",
    "fault_storm",
    "fault_radius_crash",
    "fault_exhaustion",
    "fault_message",
    "admin_event",
    "scenario_mover",
};

/// Live `causes.*` counters. Created on first ledger construction so a
/// ledger-free process never grows its metrics registry.
struct CauseCounters {
    obs::Counter& records = obs::counter("causes.records");
    std::array<obs::Counter*, kCauseKindCount> by_kind{};

    CauseCounters() {
        obs::metrics_block("causes");
        for (std::size_t k = 0; k < kCauseKindCount; ++k)
            by_kind[k] = &obs::counter(std::string("causes.") + kKindNames[k]);
    }
};

CauseCounters& cause_counters() {
    static CauseCounters counters;
    return counters;
}

}  // namespace

const char* cause_kind_name(CauseKind kind) {
    const auto k = std::size_t(kind);
    return k < kCauseKindCount ? kKindNames[k] : "?";
}

const char* cause_site_name(CauseSite site) {
    const auto s = std::size_t(site);
    return s < kCauseSiteCount ? kSiteNames[s] : "?";
}

std::optional<CauseKind> cause_kind_from_name(std::string_view name) {
    for (std::size_t k = 0; k < kCauseKindCount; ++k)
        if (name == kKindNames[k]) return CauseKind(k);
    return std::nullopt;
}

std::optional<CauseSite> cause_site_from_name(std::string_view name) {
    for (std::size_t s = 0; s < kCauseSiteCount; ++s)
        if (name == kSiteNames[s]) return CauseSite(s);
    return std::nullopt;
}

// -- ledger ---------------------------------------------------------------

CauseLedger::CauseLedger(CauseLedgerConfig config) : config_(config) {
    cause_counters();  // materialize the causes.* block up front
}

CauseLedger::ClientState& CauseLedger::state(std::uint64_t client) {
    return clients_[client];
}

void CauseLedger::register_client(std::uint64_t client, std::uint64_t probe) {
    state(client).probe = probe;
}

void CauseLedger::clear_tenure_state(ClientState& s) {
    s.lost = false;
    s.loss_kind = CauseKind::Unknown;
    s.loss_site = CauseSite::Unspecified;
    s.amnesia.set = s.max_age.set = s.admin.set = s.mover.set = false;
    s.server_down.set = s.pool_exhausted.set = s.message_fault.set = false;
    // A completed environment episode is consumed with the tenure; an
    // episode still in progress stays relevant for the next change.
    if (s.power && !s.power->active()) s.power.reset();
    if (s.net && !s.net->active()) s.net.reset();
}

void CauseLedger::lost(std::uint64_t client, net::TimePoint t, CauseKind kind,
                       CauseSite site) {
    ClientState& s = state(client);
    if (s.lost) return;  // the tenure already ended; keep the first verdict
    s.lost = true;
    s.lost_at = t;
    s.loss_kind = kind;
    s.loss_site = site;
}

void CauseLedger::renew_ok(std::uint64_t client) {
    ClientState& s = state(client);
    // The tenure survived: whatever was blocking exchanges (or claimed to
    // have forgotten the lease) did not end it.
    s.amnesia.set = s.max_age.set = false;
    s.server_down.set = s.pool_exhausted.set = s.message_fault.set = false;
}

void CauseLedger::note(std::uint64_t client, CauseKind kind, CauseSite site,
                       net::TimePoint t) {
    ClientState& s = state(client);
    Note* slot = nullptr;
    switch (kind) {
        case CauseKind::ServerAmnesia: slot = &s.amnesia; break;
        case CauseKind::MaxAgeEviction: slot = &s.max_age; break;
        case CauseKind::AdminRenumbering: slot = &s.admin; break;
        case CauseKind::CrossAsMove: slot = &s.mover; break;
        case CauseKind::ServerDown: slot = &s.server_down; break;
        case CauseKind::PoolExhausted: slot = &s.pool_exhausted; break;
        case CauseKind::MessageFault: slot = &s.message_fault; break;
        default: return;  // other kinds are loss reasons, not notes
    }
    // Keep the earliest observation per kind: the root is when the
    // condition first bit, not the latest retry that met it.
    if (slot->set) return;
    slot->set = true;
    slot->at = t;
    slot->site = site;
}

void CauseLedger::power_down(std::uint64_t client, net::TimePoint t,
                             CauseSite site) {
    ClientState& s = state(client);
    if (s.power && s.power->active()) return;
    s.power = Episode{t, std::nullopt, site};
}

void CauseLedger::power_up(std::uint64_t client, net::TimePoint t) {
    ClientState& s = state(client);
    if (s.power && s.power->active()) s.power->end = t;
}

void CauseLedger::net_down(std::uint64_t client, net::TimePoint t,
                           CauseSite site) {
    ClientState& s = state(client);
    if (s.net && s.net->active()) return;
    s.net = Episode{t, std::nullopt, site};
}

void CauseLedger::net_up(std::uint64_t client, net::TimePoint t) {
    ClientState& s = state(client);
    if (s.net && s.net->active()) s.net->end = t;
}

void CauseLedger::admin_retire(net::IPv4Prefix prefix, net::TimePoint when) {
    retired_.emplace_back(prefix, when);
}

void CauseLedger::emit(const ClientState& s, std::uint64_t client,
                       net::TimePoint t, net::IPv4Address addr, CauseKind kind,
                       CauseSite site, net::TimePoint root_at,
                       net::Duration root_duration) {
    CauseRecord record;
    record.probe = s.probe;
    record.client = client;
    record.at = t;
    record.lost_at = s.lost ? s.lost_at : t;
    record.root_at = root_at;
    record.kind = kind;
    record.site = site;
    record.old_addr = s.addr;
    record.new_addr = addr;
    record.root_duration = root_duration;
    ++total_;
    CauseCounters& counters = cause_counters();
    counters.records.inc();
    counters.by_kind[std::size_t(kind)]->inc();
    if (sink_ != nullptr) sink_->append(record);
    if (config_.keep_records) records_.push_back(record);
}

void CauseLedger::acquired(std::uint64_t client, net::TimePoint t,
                           net::IPv4Address addr) {
    ClientState& s = state(client);
    if (s.has_addr && addr != s.addr) {
        // Resolve exactly one root cause. Priority ladder (DESIGN.md §11):
        // administrative verdicts, then mover, then server-side tenure
        // verdicts, then environment episodes overlapping the gap, then
        // blocking observations that preceded (and so caused) the loss,
        // then the protocol's own definitive loss reason, then blocking
        // observations during reacquisition, else unknown.
        const net::TimePoint lost_at = s.lost ? s.lost_at : t;
        CauseKind kind = CauseKind::Unknown;
        CauseSite site = s.loss_site;
        net::TimePoint root_at = lost_at;
        net::Duration root_duration{0};

        auto overlap = [&](const std::optional<Episode>& e) {
            return e && e->begin <= t && (e->active() || *e->end >= lost_at);
        };
        auto pick_note = [&](const Note& note, CauseKind k) {
            kind = k;
            site = note.site;
            root_at = note.at;
        };
        auto pick_episode = [&](const Episode& e, CauseKind k) {
            kind = k;
            site = e.site;
            root_at = e.begin;
            root_duration = e.end.value_or(t) - e.begin;
        };
        // Blocking observations in `window`, most decisive first.
        auto pick_blocking = [&](const net::TimeInterval& window) {
            auto in = [&](const Note& note) {
                return note.set && window.begin <= note.at &&
                       note.at <= window.end;
            };
            if (in(s.pool_exhausted))
                pick_note(s.pool_exhausted, CauseKind::PoolExhausted);
            else if (in(s.server_down))
                pick_note(s.server_down, CauseKind::ServerDown);
            else if (in(s.message_fault))
                pick_note(s.message_fault, CauseKind::MessageFault);
            return kind != CauseKind::Unknown;
        };
        auto admin_retired = [&]() -> const net::TimePoint* {
            for (const auto& [prefix, when] : retired_)
                if (prefix.contains(s.addr) && when <= t) return &when;
            return nullptr;
        };

        if (s.admin.set) {
            pick_note(s.admin, CauseKind::AdminRenumbering);
        } else if (const net::TimePoint* when = admin_retired()) {
            kind = CauseKind::AdminRenumbering;
            site = CauseSite::AdminEvent;
            root_at = *when;
        } else if (s.mover.set) {
            pick_note(s.mover, CauseKind::CrossAsMove);
        } else if (s.amnesia.set) {
            pick_note(s.amnesia, CauseKind::ServerAmnesia);
        } else if (s.max_age.set) {
            pick_note(s.max_age, CauseKind::MaxAgeEviction);
        } else if (overlap(s.net)) {
            // Network before power when both overlap, matching the
            // analysis-side §3.6 priority.
            pick_episode(*s.net, CauseKind::NetworkOutage);
        } else if (overlap(s.power)) {
            pick_episode(*s.power, CauseKind::PowerOutage);
        } else if (pick_blocking({s.acquired_at, lost_at})) {
            // blocking observation ended the tenure (e.g. the lease ran
            // out because every renew met a dead server)
        } else if (s.loss_kind != CauseKind::Unknown) {
            kind = s.loss_kind;
            site = s.loss_site;
            root_at = lost_at;
        } else if (pick_blocking({lost_at, t})) {
            // blocking observation explains the gap after an otherwise
            // unexplained loss
        }
        emit(s, client, t, addr, kind, site, root_at, root_duration);
    }
    s.has_addr = true;
    s.addr = addr;
    s.acquired_at = t;
    clear_tenure_state(s);
}

// -- global install -------------------------------------------------------

namespace detail {
CauseLedger* g_cause_ledger = nullptr;
}

void install_cause_ledger(CauseLedger* ledger) {
    detail::g_cause_ledger = ledger;
}

// -- CSV ------------------------------------------------------------------

namespace {

constexpr std::string_view kCsvHeader =
    "probe,client,at,lost_at,root_at,kind,site,old_addr,new_addr,"
    "root_duration_s";

void append_csv_row(std::string& out, const CauseRecord& r) {
    out += std::to_string(r.probe);
    out += ',';
    out += std::to_string(r.client);
    out += ',';
    out += std::to_string(r.at.unix_seconds());
    out += ',';
    out += std::to_string(r.lost_at.unix_seconds());
    out += ',';
    out += std::to_string(r.root_at.unix_seconds());
    out += ',';
    out += cause_kind_name(r.kind);
    out += ',';
    out += cause_site_name(r.site);
    out += ',';
    out += r.old_addr.to_string();
    out += ',';
    out += r.new_addr.to_string();
    out += ',';
    out += std::to_string(r.root_duration.count());
    out += '\n';
}

std::optional<std::int64_t> parse_i64(std::string_view field) {
    std::int64_t value = 0;
    const char* begin = field.data();
    const char* end = begin + field.size();
    auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc() || ptr != end) return std::nullopt;
    return value;
}

std::optional<CauseRecord> parse_csv_row(std::string_view line) {
    std::array<std::string_view, 10> fields;
    std::size_t count = 0;
    while (count < fields.size()) {
        const std::size_t comma = line.find(',');
        fields[count++] = line.substr(0, comma);
        if (comma == std::string_view::npos) break;
        line.remove_prefix(comma + 1);
    }
    if (count != fields.size() ||
        fields.back().find(',') != std::string_view::npos)
        return std::nullopt;
    CauseRecord r;
    const auto probe = parse_i64(fields[0]);
    const auto client = parse_i64(fields[1]);
    const auto at = parse_i64(fields[2]);
    const auto lost = parse_i64(fields[3]);
    const auto root = parse_i64(fields[4]);
    const auto kind = cause_kind_from_name(fields[5]);
    const auto site = cause_site_from_name(fields[6]);
    const auto old_addr = net::IPv4Address::parse(std::string(fields[7]));
    const auto new_addr = net::IPv4Address::parse(std::string(fields[8]));
    const auto duration = parse_i64(fields[9]);
    if (!probe || !client || !at || !lost || !root || !kind || !site ||
        !old_addr || !new_addr || !duration || *probe < 0 || *client < 0 ||
        *duration < 0)
        return std::nullopt;
    r.probe = std::uint64_t(*probe);
    r.client = std::uint64_t(*client);
    r.at = net::TimePoint{*at};
    r.lost_at = net::TimePoint{*lost};
    r.root_at = net::TimePoint{*root};
    r.kind = *kind;
    r.site = *site;
    r.old_addr = *old_addr;
    r.new_addr = *new_addr;
    r.root_duration = net::Duration{*duration};
    return r;
}

}  // namespace

std::string cause_ledger_to_csv(const std::vector<CauseRecord>& records) {
    std::string out{kCsvHeader};
    out += '\n';
    for (const auto& r : records) append_csv_row(out, r);
    return out;
}

std::vector<CauseRecord> cause_ledger_from_csv(std::string_view text,
                                               bool strict,
                                               CauseDecodeStats* stats) {
    std::vector<CauseRecord> records;
    bool saw_header = false;
    std::size_t lineno = 0;
    while (!text.empty()) {
        ++lineno;
        const std::size_t nl = text.find('\n');
        std::string_view line = text.substr(0, nl);
        text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
        if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
        if (line.empty()) continue;
        if (!saw_header) {
            saw_header = true;
            if (line == kCsvHeader) continue;
            if (strict)
                throw ParseError("cause ledger CSV: bad header at line 1");
            if (stats != nullptr) ++stats->rows_rejected;
            continue;
        }
        if (auto record = parse_csv_row(line)) {
            records.push_back(*record);
        } else if (strict) {
            throw ParseError("cause ledger CSV: bad row at line " +
                             std::to_string(lineno));
        } else if (stats != nullptr) {
            ++stats->rows_rejected;
        }
    }
    return records;
}

// -- DCL1 columnar block format ------------------------------------------
//
// Layout:
//   header  'D' 'C' 'L' '1'
//   block   0xB1, varint payload_len, payload:
//             varint count, then per-column arrays over `count` rows:
//             probe/client/at as zigzag deltas (reset per block),
//             at-lost_at and at-root_at as zigzag, kind/site raw bytes,
//             old/new address as u32 varints, root_duration as zigzag.
//   footer  0xFE, varint block_count, varint absolute block offsets
//   tail    u64 LE footer offset, 'D' 'C' 'L' 'E'
//
// Strict decode demands contiguous blocks, a valid footer index and
// in-range enum values; lenient decode walks blocks sequentially and
// drops what does not parse.

namespace {

using net::ByteCursor;
using net::put_varint;
using net::put_varint_signed;

constexpr char kMagic[4] = {'D', 'C', 'L', '1'};
constexpr char kTailMagic[4] = {'D', 'C', 'L', 'E'};
constexpr std::uint8_t kBlockTag = 0xB1;
constexpr std::uint8_t kFooterTag = 0xFE;
constexpr std::size_t kTailSize = 12;  // u64 footer offset + magic

void encode_block(std::string& out, const CauseRecord* rows, std::size_t n) {
    std::string payload;
    put_varint(payload, n);
    std::int64_t prev_probe = 0, prev_client = 0, prev_at = 0;
    for (std::size_t i = 0; i < n; ++i) {
        put_varint_signed(payload, std::int64_t(rows[i].probe) - prev_probe);
        prev_probe = std::int64_t(rows[i].probe);
    }
    for (std::size_t i = 0; i < n; ++i) {
        put_varint_signed(payload, std::int64_t(rows[i].client) - prev_client);
        prev_client = std::int64_t(rows[i].client);
    }
    for (std::size_t i = 0; i < n; ++i) {
        put_varint_signed(payload, rows[i].at.unix_seconds() - prev_at);
        prev_at = rows[i].at.unix_seconds();
    }
    for (std::size_t i = 0; i < n; ++i)
        put_varint_signed(payload, (rows[i].at - rows[i].lost_at).count());
    for (std::size_t i = 0; i < n; ++i)
        put_varint_signed(payload, (rows[i].at - rows[i].root_at).count());
    for (std::size_t i = 0; i < n; ++i)
        payload.push_back(char(std::uint8_t(rows[i].kind)));
    for (std::size_t i = 0; i < n; ++i)
        payload.push_back(char(std::uint8_t(rows[i].site)));
    for (std::size_t i = 0; i < n; ++i)
        put_varint(payload, rows[i].old_addr.value());
    for (std::size_t i = 0; i < n; ++i)
        put_varint(payload, rows[i].new_addr.value());
    for (std::size_t i = 0; i < n; ++i)
        put_varint_signed(payload, rows[i].root_duration.count());
    out.push_back(char(kBlockTag));
    put_varint(out, payload.size());
    out += payload;
}

/// Appends footer and tail for blocks at `offsets`; the footer starts at
/// absolute offset `footer_at`.
void put_footer(std::string& out, std::uint64_t footer_at,
                const std::vector<std::uint64_t>& offsets) {
    out.push_back(char(kFooterTag));
    put_varint(out, offsets.size());
    for (std::uint64_t offset : offsets) put_varint(out, offset);
    net::put_u64_le(out, footer_at);
    out.append(kTailMagic, 4);
}

/// The footer offset named by an intact tail, if it points inside the
/// file past the header.
std::optional<std::uint64_t> footer_offset(std::string_view bytes) {
    if (bytes.size() < sizeof kMagic + kTailSize ||
        bytes.substr(bytes.size() - 4) != std::string_view(kTailMagic, 4))
        return std::nullopt;
    const std::uint64_t footer_at =
        ByteCursor(bytes.substr(bytes.size() - kTailSize)).u64_le();
    if (footer_at < sizeof kMagic || footer_at > bytes.size() - kTailSize)
        return std::nullopt;
    return footer_at;
}

/// Decodes one block payload. `strict` rejects out-of-range enums with
/// ParseError; lenient drops those rows into `stats`.
void decode_block_payload(ByteCursor cursor, std::vector<CauseRecord>& out,
                          bool strict, CauseDecodeStats* stats) {
    const std::uint64_t n = cursor.varint();
    // A row costs at least 10 bytes across its columns; this bounds
    // hostile counts before any allocation.
    if (n > cursor.remaining())
        throw ParseError("cause ledger: block count exceeds payload");
    std::vector<CauseRecord> rows(n);
    std::int64_t probe = 0, client = 0, at = 0;
    for (auto& r : rows) {
        probe += cursor.varint_signed();
        r.probe = std::uint64_t(probe);
    }
    for (auto& r : rows) {
        client += cursor.varint_signed();
        r.client = std::uint64_t(client);
    }
    for (auto& r : rows) {
        at += cursor.varint_signed();
        r.at = net::TimePoint{at};
    }
    for (auto& r : rows)
        r.lost_at = r.at - net::Duration{cursor.varint_signed()};
    for (auto& r : rows)
        r.root_at = r.at - net::Duration{cursor.varint_signed()};
    for (auto& r : rows) r.kind = CauseKind(cursor.u8());
    for (auto& r : rows) r.site = CauseSite(cursor.u8());
    for (auto& r : rows) r.old_addr = net::IPv4Address{std::uint32_t(cursor.varint())};
    for (auto& r : rows) r.new_addr = net::IPv4Address{std::uint32_t(cursor.varint())};
    for (auto& r : rows)
        r.root_duration = net::Duration{cursor.varint_signed()};
    if (cursor.remaining() != 0)
        throw ParseError("cause ledger: trailing bytes in block payload");
    for (auto& r : rows) {
        const bool valid = std::size_t(r.kind) < kCauseKindCount &&
                           std::size_t(r.site) < kCauseSiteCount;
        if (valid) {
            out.push_back(r);
        } else if (strict) {
            throw ParseError("cause ledger: out-of-range cause enum");
        } else if (stats != nullptr) {
            ++stats->rows_rejected;
        }
    }
}

}  // namespace

bool is_cause_ledger_binary(std::string_view bytes) {
    return bytes.size() >= 4 &&
           std::equal(kMagic, kMagic + 4, bytes.begin());
}

std::string encode_cause_ledger(const std::vector<CauseRecord>& records) {
    constexpr std::size_t kBlockRecords = 512;
    std::string out(kMagic, 4);
    std::vector<std::uint64_t> offsets;
    for (std::size_t i = 0; i < records.size(); i += kBlockRecords) {
        offsets.push_back(out.size());
        encode_block(out, records.data() + i,
                     std::min(kBlockRecords, records.size() - i));
    }
    put_footer(out, out.size(), offsets);
    return out;
}

namespace {

std::vector<CauseRecord> decode_strict(std::string_view bytes) {
    if (!is_cause_ledger_binary(bytes))
        throw ParseError("cause ledger: bad magic");
    const std::optional<std::uint64_t> footer_at = footer_offset(bytes);
    if (!footer_at)
        throw ParseError("cause ledger: bad tail or footer offset");
    ByteCursor footer(
        bytes.substr(*footer_at, bytes.size() - kTailSize - *footer_at));
    if (footer.u8() != kFooterTag)
        throw ParseError("cause ledger: bad footer tag");
    const std::uint64_t block_count = footer.varint();
    if (block_count > bytes.size())
        throw ParseError("cause ledger: absurd block count");
    std::vector<std::uint64_t> offsets(block_count);
    for (auto& offset : offsets) offset = footer.varint();
    if (footer.remaining() != 0)
        throw ParseError("cause ledger: trailing bytes after footer");

    std::vector<CauseRecord> records;
    std::uint64_t expect = 4;  // first block starts right after the header
    for (std::uint64_t offset : offsets) {
        if (offset != expect)
            throw ParseError("cause ledger: non-contiguous block offset");
        ByteCursor cursor(bytes.substr(offset, *footer_at - offset));
        if (cursor.u8() != kBlockTag)
            throw ParseError("cause ledger: bad block tag");
        const std::string_view payload =
            cursor.bytes(cursor.length(cursor.remaining()));
        decode_block_payload(ByteCursor(payload), records, /*strict=*/true,
                             nullptr);
        expect = offset + cursor.offset();
    }
    if (expect != *footer_at)
        throw ParseError("cause ledger: gap between blocks and footer");
    return records;
}

std::vector<CauseRecord> decode_lenient(std::string_view bytes,
                                        CauseDecodeStats* stats) {
    std::vector<CauseRecord> records;
    if (!is_cause_ledger_binary(bytes)) {
        if (stats != nullptr) ++stats->blocks_rejected;
        return records;
    }
    // A torn file (no tail yet) is walked to its end.
    ByteCursor cursor(
        bytes.substr(0, footer_offset(bytes).value_or(bytes.size())));
    cursor.seek(4);
    while (cursor.remaining() > 0) {
        try {
            const std::uint8_t tag = cursor.u8();
            if (tag == kFooterTag) break;
            if (tag != kBlockTag) {
                if (stats != nullptr) ++stats->blocks_rejected;
                break;  // framing lost; no resync marker inside blocks
            }
            // Past the payload either way: the next block is framed by
            // this one's length, not by its contents.
            const std::string_view payload =
                cursor.bytes(cursor.length(cursor.remaining()));
            try {
                decode_block_payload(ByteCursor(payload), records,
                                     /*strict=*/false, stats);
            } catch (const ParseError&) {
                if (stats != nullptr) ++stats->blocks_rejected;
            }
        } catch (const ParseError&) {
            if (stats != nullptr) ++stats->blocks_rejected;
            break;
        }
    }
    return records;
}

}  // namespace

std::vector<CauseRecord> decode_cause_ledger(std::string_view bytes,
                                             bool strict,
                                             CauseDecodeStats* stats) {
    return strict ? decode_strict(bytes) : decode_lenient(bytes, stats);
}

std::vector<CauseRecord> read_cause_ledger_file(const std::string& path,
                                                CauseDecodeStats* stats) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw Error("cannot open cause ledger: " + path);
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    if (is_cause_ledger_binary(data))
        return decode_cause_ledger(data, /*strict=*/false, stats);
    return cause_ledger_from_csv(data, /*strict=*/false, stats);
}

// -- streaming writers ----------------------------------------------------

struct CsvCauseWriter::Impl {
    std::ofstream out;
    std::string buffer;
};

CsvCauseWriter::CsvCauseWriter(const std::string& path)
    : impl_(std::make_unique<Impl>()) {
    impl_->out.open(path, std::ios::binary | std::ios::trunc);
    if (!impl_->out) throw Error("cannot write cause ledger: " + path);
    impl_->out << kCsvHeader << '\n';
}

CsvCauseWriter::~CsvCauseWriter() = default;

void CsvCauseWriter::append(const CauseRecord& record) {
    impl_->buffer.clear();
    append_csv_row(impl_->buffer, record);
    impl_->out << impl_->buffer;
}

void CsvCauseWriter::close() { impl_->out.flush(); }

struct BinaryCauseWriter::Impl {
    std::ofstream out;
    std::size_t block_records;
    std::vector<CauseRecord> pending;
    std::vector<std::uint64_t> offsets;
    std::uint64_t written = 0;
    bool closed = false;

    void flush_block() {
        if (pending.empty()) return;
        std::string bytes;
        encode_block(bytes, pending.data(), pending.size());
        offsets.push_back(written);
        out.write(bytes.data(), std::streamsize(bytes.size()));
        written += bytes.size();
        pending.clear();
    }
};

BinaryCauseWriter::BinaryCauseWriter(const std::string& path,
                                     std::size_t block_records)
    : impl_(std::make_unique<Impl>()) {
    impl_->block_records = std::max<std::size_t>(1, block_records);
    impl_->out.open(path, std::ios::binary | std::ios::trunc);
    if (!impl_->out) throw Error("cannot write cause ledger: " + path);
    impl_->out.write(kMagic, 4);
    impl_->written = 4;
}

BinaryCauseWriter::~BinaryCauseWriter() = default;

void BinaryCauseWriter::append(const CauseRecord& record) {
    impl_->pending.push_back(record);
    if (impl_->pending.size() >= impl_->block_records) impl_->flush_block();
}

void BinaryCauseWriter::close() {
    if (impl_->closed) return;
    impl_->closed = true;
    impl_->flush_block();
    std::string tail;
    put_footer(tail, impl_->written, impl_->offsets);
    impl_->out.write(tail.data(), std::streamsize(tail.size()));
    impl_->out.flush();
}

}  // namespace dynaddr::sim
