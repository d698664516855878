#include "atlas/binary_bundle.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <tuple>

#include "netcore/bytesource.hpp"
#include "netcore/error.hpp"
#include "netcore/obs/log.hpp"
#include "netcore/obs/memaccount.hpp"
#include "netcore/obs/metrics.hpp"
#include "netcore/obs/trace.hpp"
#include "netcore/varint.hpp"
#include "sim/faults.hpp"

DYNADDR_LOG_MODULE(binary_bundle);

namespace dynaddr::atlas {

namespace {

namespace fs = std::filesystem;
using net::ByteCursor;
using net::put_varint;
using net::put_varint_signed;

constexpr char kHeaderMagic[4] = {'D', 'A', 'B', '2'};
constexpr char kTailMagic[4] = {'D', 'A', 'B', 'E'};
constexpr std::uint8_t kFormatVersion = 1;
constexpr std::size_t kHeaderSize = 6;
constexpr std::size_t kTailSize = 12;  // u64 footer offset + magic

/// Deterministic address dictionary: indexes assigned in first-appearance
/// order, so an encode of the same record sequence is byte-stable.
class AddressDict {
public:
    std::uint64_t index_of(const PeerAddress& address) {
        const Key key = key_of(address);
        auto [it, inserted] = index_.try_emplace(key, entries_.size());
        if (inserted) entries_.push_back(address);
        return it->second;
    }

    void encode(std::string& out) const {
        put_varint(out, entries_.size());
        for (const auto& address : entries_) {
            if (address.is_v4()) {
                out.push_back(char(4));
                const std::uint32_t value = address.v4.value();
                for (int shift = 24; shift >= 0; shift -= 8)
                    out.push_back(char((value >> shift) & 0xFF));
            } else {
                out.push_back(char(16));
                for (const std::uint64_t half :
                     {address.v6.hi(), address.v6.lo()})
                    for (int shift = 56; shift >= 0; shift -= 8)
                        out.push_back(char((half >> shift) & 0xFF));
            }
        }
    }

private:
    using Key = std::tuple<int, std::uint32_t, std::uint64_t, std::uint64_t>;
    static Key key_of(const PeerAddress& a) {
        return a.is_v4() ? Key{4, a.v4.value(), 0, 0}
                         : Key{16, 0, a.v6.hi(), a.v6.lo()};
    }
    std::map<Key, std::uint64_t> index_;
    std::vector<PeerAddress> entries_;
};

std::vector<PeerAddress> decode_dict(ByteCursor& cursor) {
    const std::size_t count = cursor.length(cursor.remaining());
    std::vector<PeerAddress> dict;
    dict.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const std::uint8_t family = cursor.u8();
        if (family == 4) {
            const std::string_view raw = cursor.bytes(4);
            std::uint32_t value = 0;
            for (const char byte : raw)
                value = (value << 8) | std::uint8_t(byte);
            dict.push_back(PeerAddress::ipv4(net::IPv4Address{value}));
        } else if (family == 16) {
            const std::string_view raw = cursor.bytes(16);
            std::uint64_t hi = 0, lo = 0;
            for (int i8 = 0; i8 < 8; ++i8) hi = (hi << 8) | std::uint8_t(raw[i8]);
            for (int i8 = 8; i8 < 16; ++i8) lo = (lo << 8) | std::uint8_t(raw[i8]);
            dict.push_back(PeerAddress::ipv6(net::IPv6Address{hi, lo}));
        } else {
            throw ParseError("binary bundle: bad address family " +
                             std::to_string(int(family)) + " in dictionary");
        }
    }
    return dict;
}

// -- codecs ------------------------------------------------------------------
// One per dataset kind: record type, kind byte, dataset name (the file is
// `<name>.dab`) and the block payload in both directions. `decode` fills
// rows whose probe is already set, column by column, reading exactly the
// bytes `encode` wrote.

using Dict = std::vector<PeerAddress>;

/// Delta-zigzag time column, the first column of every timed kind.
template <typename Record>
void put_times(std::string& out, std::span<const Record> block,
               net::TimePoint Record::*field) {
    std::int64_t previous = 0;
    for (const auto& r : block) {
        put_varint_signed(out, (r.*field).unix_seconds() - previous);
        previous = (r.*field).unix_seconds();
    }
}

template <typename Record>
void get_times(ByteCursor& in, std::span<Record> rows,
               net::TimePoint Record::*field) {
    std::int64_t previous = 0;
    for (auto& r : rows) {
        previous += in.varint_signed();
        r.*field = net::TimePoint(previous);
    }
}

/// Kinds without an address dictionary write an empty one in the footer.
struct NoDict {
    static constexpr bool has_dict = false;
    static void encode_dict(std::string& out) { put_varint(out, 0); }
};

struct ConnectionCodec {
    using Record = ConnectionLogEntry;
    static constexpr std::uint8_t kind = 1;
    static constexpr const char* name = "connection_log";
    static constexpr bool has_dict = true;
    AddressDict dict;  ///< encode side; decode gets the footer's

    void encode_dict(std::string& out) const { dict.encode(out); }
    void encode(std::string& out, std::span<const Record> block) {
        put_times(out, block, &Record::start);
        for (const auto& e : block)
            put_varint_signed(out,
                              e.end.unix_seconds() - e.start.unix_seconds());
        for (const auto& e : block) put_varint(out, dict.index_of(e.address));
    }
    static void decode(ByteCursor& in, std::span<Record> rows,
                       const Dict& dict) {
        get_times(in, rows, &Record::start);
        for (auto& e : rows)
            e.end = net::TimePoint(e.start.unix_seconds() + in.varint_signed());
        for (auto& e : rows) {
            const std::uint64_t index = in.varint();
            if (index >= dict.size())
                throw ParseError("binary bundle: address index " +
                                 std::to_string(index) +
                                 " outside dictionary of " +
                                 std::to_string(dict.size()));
            e.address = dict[std::size_t(index)];
        }
    }
};

struct KRootCodec : NoDict {
    using Record = KRootPingRecord;
    static constexpr std::uint8_t kind = 2;
    static constexpr const char* name = "kroot";

    static void encode(std::string& out, std::span<const Record> block) {
        put_times(out, block, &Record::timestamp);
        for (const auto& r : block) put_varint_signed(out, r.sent);
        for (const auto& r : block) put_varint_signed(out, r.success);
        for (const auto& r : block) put_varint_signed(out, r.lts_seconds);
    }
    static void decode(ByteCursor& in, std::span<Record> rows, const Dict&) {
        get_times(in, rows, &Record::timestamp);
        for (auto& r : rows) r.sent = int(in.varint_signed());
        for (auto& r : rows) r.success = int(in.varint_signed());
        for (auto& r : rows) r.lts_seconds = in.varint_signed();
    }
};

struct UptimeCodec : NoDict {
    using Record = UptimeRecord;
    static constexpr std::uint8_t kind = 3;
    static constexpr const char* name = "uptime";

    static void encode(std::string& out, std::span<const Record> block) {
        put_times(out, block, &Record::timestamp);
        for (const auto& r : block) put_varint(out, r.uptime_seconds);
    }
    static void decode(ByteCursor& in, std::span<Record> rows, const Dict&) {
        get_times(in, rows, &Record::timestamp);
        for (auto& r : rows) r.uptime_seconds = in.varint();
    }
};

struct ProbesCodec : NoDict {
    using Record = ProbeMetadata;
    static constexpr std::uint8_t kind = 4;
    static constexpr const char* name = "probes";

    static void encode(std::string& out, std::span<const Record> block) {
        for (const auto& p : block) {
            out.push_back(char(int(p.version)));
            put_varint(out, p.country_code.size());
            out.append(p.country_code);
            put_varint(out, p.tags.size());
            for (const auto& tag : p.tags) {
                put_varint(out, tag.size());
                out.append(tag);
            }
        }
    }
    static void decode(ByteCursor& in, std::span<Record> rows, const Dict&) {
        auto string = [&] { return in.bytes(in.length(in.remaining())); };
        for (auto& meta : rows) {
            const int version = int(in.u8());
            if (version < 1 || version > 3)
                throw ParseError("binary bundle: bad probe version " +
                                 std::to_string(version));
            meta.version = ProbeVersion(version);
            meta.country_code = std::string(string());
            const std::size_t tags = in.length(in.remaining());
            meta.tags.reserve(tags);
            for (std::size_t t = 0; t < tags; ++t)
                meta.tags.emplace_back(string());
        }
    }
};

template <typename Codec>
std::string file_name() {
    return std::string(Codec::name) + ".dab";
}

// -- encoding ----------------------------------------------------------------

/// One dataset file being encoded: records buffer per probe and become a
/// block when the probe changes or the block fills; finish() appends the
/// footer and tail.
template <typename Codec>
class DatasetEncoder {
public:
    using Record = typename Codec::Record;

    explicit DatasetEncoder(std::size_t block_records)
        : block_records_(std::max<std::size_t>(1, block_records)) {
        body_.append(kHeaderMagic, sizeof kHeaderMagic);
        body_.push_back(char(Codec::kind));
        body_.push_back(char(kFormatVersion));
    }

    void add(const Record& record) {
        if (!buffer_.empty() && (record.probe != buffer_.back().probe ||
                                 buffer_.size() >= block_records_))
            flush();
        buffer_.push_back(record);
    }

    /// The complete file body; the encoder is spent afterwards.
    std::string finish() {
        flush();
        const std::uint64_t footer_offset = body_.size();
        codec_.encode_dict(body_);
        put_varint(body_, index_.size());
        std::uint64_t previous = 0;
        for (const auto& entry : index_) {
            put_varint(body_, entry.probe);
            put_varint(body_, entry.offset - previous);
            previous = entry.offset;
            put_varint(body_, entry.count);
        }
        net::put_u64_le(body_, footer_offset);
        body_.append(kTailMagic, sizeof kTailMagic);
        return std::move(body_);
    }

    /// finish() written to `<directory>/<name>.dab`.
    void write(const fs::path& directory) {
        const fs::path path = directory / file_name<Codec>();
        const std::string body = finish();
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        if (!out)
            throw Error("cannot open " + path.string() +
                        " for writing (dataset " + Codec::name + ")");
        out.write(body.data(), std::streamsize(body.size()));
        out.flush();
        if (!out)
            throw Error("write failed on " + path.string() + " (dataset " +
                        Codec::name + ")");
    }

    /// Heap held: accumulated body, block index and the per-probe record
    /// buffer. For memory accounting.
    [[nodiscard]] std::size_t memory_bytes() const {
        return body_.capacity() + index_.capacity() * sizeof(IndexEntry) +
               buffer_.capacity() * sizeof(Record);
    }

private:
    void flush() {
        if (buffer_.empty()) return;
        const ProbeId probe = buffer_.back().probe;
        index_.push_back({probe, body_.size(), buffer_.size()});
        put_varint(body_, probe);
        put_varint(body_, buffer_.size());
        codec_.encode(body_, buffer_);
        buffer_.clear();
    }

    struct IndexEntry {
        ProbeId probe;
        std::uint64_t offset;
        std::uint64_t count;
    };
    Codec codec_;
    std::string body_;  ///< header + blocks so far
    std::vector<IndexEntry> index_;
    std::vector<Record> buffer_;
    std::size_t block_records_;
};

template <typename Codec>
std::string encode_dataset(std::span<const typename Codec::Record> records,
                           std::size_t block_records) {
    DatasetEncoder<Codec> encoder(block_records);
    for (const auto& record : records) encoder.add(record);
    return encoder.finish();
}

// -- decoding ----------------------------------------------------------------

struct Block {
    ProbeId probe;
    std::uint64_t count;
    std::size_t offset;  ///< absolute, at the block's probe varint
    std::size_t size;    ///< bytes up to the next block / footer
};

/// A parsed .dab file: the footer's dictionary and block index. Block
/// bytes stay in `data`, decoded on demand.
struct Container {
    std::string_view data;
    Dict dict;
    std::vector<Block> blocks;  ///< file order; DatasetFile sorts by probe
};

/// The tail's footer offset; `data` holds at least the tail.
std::uint64_t footer_offset(std::string_view data) {
    return ByteCursor(data.substr(data.size() - kTailSize)).u64_le();
}

/// Parses header, tail and footer; blocks stay untouched.
template <typename Codec>
Container parse_container(std::string_view data) {
    if (data.size() < kHeaderSize + kTailSize)
        throw ParseError("binary bundle: file too small (" +
                         std::to_string(data.size()) + " bytes)");
    if (data.compare(0, 4, kHeaderMagic, 4) != 0)
        throw ParseError("binary bundle: bad header magic");
    if (std::uint8_t(data[4]) != Codec::kind)
        throw ParseError("binary bundle: dataset kind mismatch (file says " +
                         std::to_string(int(std::uint8_t(data[4]))) +
                         ", expected " + Codec::name + ")");
    if (std::uint8_t(data[5]) != kFormatVersion)
        throw ParseError("binary bundle: unsupported format version " +
                         std::to_string(int(std::uint8_t(data[5]))));
    if (data.compare(data.size() - 4, 4, kTailMagic, 4) != 0)
        throw ParseError("binary bundle: bad tail magic (truncated file?)");
    const std::uint64_t footer = footer_offset(data);
    if (footer < kHeaderSize || footer > data.size() - kTailSize)
        throw ParseError("binary bundle: footer offset " +
                         std::to_string(footer) + " out of range");

    Container parsed;
    parsed.data = data;
    ByteCursor cursor(data);
    cursor.seek(std::size_t(footer));
    if constexpr (Codec::has_dict) {
        parsed.dict = decode_dict(cursor);
    } else if (cursor.varint() != 0) {
        throw ParseError("binary bundle: unexpected dictionary in " +
                         std::string(Codec::name));
    }
    const std::size_t block_count = cursor.length(cursor.remaining());
    parsed.blocks.reserve(block_count);
    std::uint64_t offset = 0;
    for (std::size_t i = 0; i < block_count; ++i) {
        Block block;
        block.probe = ProbeId(cursor.varint());
        offset += cursor.varint();
        block.offset = std::size_t(offset);
        block.count = cursor.varint();
        parsed.blocks.push_back(block);
    }
    // Block extents: ascending offsets inside [header, footer).
    for (std::size_t i = 0; i < parsed.blocks.size(); ++i) {
        auto& block = parsed.blocks[i];
        const std::size_t end = i + 1 < parsed.blocks.size()
                                    ? parsed.blocks[i + 1].offset
                                    : std::size_t(footer);
        if (block.offset < kHeaderSize || end > footer || block.offset >= end)
            throw ParseError("binary bundle: block " + std::to_string(i) +
                             " extent [" + std::to_string(block.offset) +
                             ", " + std::to_string(end) + ") out of range");
        block.size = end - block.offset;
        // Every record consumes at least one payload byte per column, so a
        // count above the byte extent is garbage; rejecting it here caps
        // the decoders' per-block allocations at the file size.
        if (block.count > block.size)
            throw ParseError("binary bundle: block " + std::to_string(i) +
                             " claims " + std::to_string(block.count) +
                             " records in " + std::to_string(block.size) +
                             " bytes");
    }
    return parsed;
}

/// parse_container, except that lenient mode turns an unreadable footer
/// into an empty container and one rejected block: without the index
/// there is nothing to resync on, so the whole file is lost.
template <typename Codec>
Container open_container(std::string_view data, bool lenient,
                         BinaryDecodeStats& stats) {
    try {
        return parse_container<Codec>(data);
    } catch (const ParseError&) {
        if (!lenient) throw;
        ++stats.blocks_rejected;
        return {};
    }
}

/// Appends the records of `blocks` to `out`, checking each block's header
/// against its index entry. A block that fails to parse is removed whole
/// — never half-emitted — then lenient mode counts it and moves on to the
/// next indexed block, and strict mode rethrows.
template <typename Codec>
void decode_blocks(const Container& parsed, std::span<const Block> blocks,
                   bool lenient, BinaryDecodeStats& stats,
                   std::vector<typename Codec::Record>& out) {
    for (const Block& block : blocks) {
        const std::size_t mark = out.size();
        try {
            ByteCursor in(parsed.data.substr(block.offset, block.size));
            const ProbeId probe = ProbeId(in.varint());
            const std::uint64_t count = in.varint();
            if (probe != block.probe || count != block.count)
                throw ParseError(
                    "binary bundle: block header disagrees with index");
            out.resize(mark + std::size_t(count));
            const std::span<typename Codec::Record> rows(out.data() + mark,
                                                         std::size_t(count));
            for (auto& row : rows) row.probe = probe;
            Codec::decode(in, rows, parsed.dict);
        } catch (const ParseError&) {
            out.resize(mark);
            if (!lenient) throw;
            stats.rows_rejected += std::size_t(block.count);
            ++stats.blocks_rejected;
        }
    }
}

/// In-memory decode, in file order (the fuzz round-trip oracle compares
/// against exactly that order).
template <typename Codec>
std::vector<typename Codec::Record> decode_dataset(std::string_view data,
                                                   bool lenient,
                                                   BinaryDecodeStats* stats) {
    BinaryDecodeStats local;
    BinaryDecodeStats& tally = stats != nullptr ? *stats : local;
    const Container parsed = open_container<Codec>(data, lenient, tally);
    std::vector<typename Codec::Record> records;
    decode_blocks<Codec>(parsed, parsed.blocks, lenient, tally, records);
    return records;
}

void count_rejections(const BinaryDecodeStats& stats) {
    if (stats.rows_rejected > 0)
        obs::counter("faults.binary.rows_rejected").inc(stats.rows_rejected);
    if (stats.blocks_rejected > 0)
        obs::counter("faults.binary.blocks_rejected")
            .inc(stats.blocks_rejected);
}

/// One dataset file opened for reading: the load path both bundle readers
/// share. It maps the file; garbles the block region under an installed
/// fault plan with CSV faults (header, footer and tail stay intact,
/// mirroring the CSV corrupter's header-preserving contract) and then
/// reads leniently; parses the footer; and stable-sorts the block index by
/// probe, so a probe's blocks come out grouped, in file order, however
/// the writer interleaved them. Every error names the dataset and path.
template <typename Codec>
class DatasetFile {
public:
    using Record = typename Codec::Record;

    DatasetFile(const fs::path& directory, bool lenient)
        : path_(directory / file_name<Codec>()), lenient_(lenient) {
        try {
            source_ = net::ByteSource::map_file(path_.string());
        } catch (const Error& e) {
            throw Error("cannot open " + path_.string() +
                        " for reading (dataset " + Codec::name +
                        "): " + e.what());
        }
        std::string_view data = source_.view();
        sim::FaultInjector* injector = sim::fault_injector();
        if (injector != nullptr && injector->plan().csv.any()) {
            garbled_ = std::string(data);
            lenient_ = true;
            if (garbled_.size() >= kHeaderSize + kTailSize)
                injector->corrupt_binary(
                    garbled_, kHeaderSize,
                    std::size_t(std::min<std::uint64_t>(
                        footer_offset(garbled_), garbled_.size() - kTailSize)));
            data = garbled_;
        }
        BinaryDecodeStats stats;
        try {
            parsed_ = open_container<Codec>(data, lenient_, stats);
        } catch (const ParseError& e) {
            throw named(e);
        }
        count_rejections(stats);
        std::stable_sort(
            parsed_.blocks.begin(), parsed_.blocks.end(),
            [](const Block& a, const Block& b) { return a.probe < b.probe; });
    }
    DatasetFile(const DatasetFile&) = delete;
    DatasetFile& operator=(const DatasetFile&) = delete;

    /// The block index in ascending probe order.
    [[nodiscard]] std::span<const Block> blocks() const {
        return parsed_.blocks;
    }

    /// decode_blocks with this file's leniency; rejections land on the
    /// faults.binary.* counters.
    void decode(std::span<const Block> blocks, std::vector<Record>& out) const {
        BinaryDecodeStats stats;
        try {
            decode_blocks<Codec>(parsed_, blocks, lenient_, stats, out);
        } catch (const ParseError& e) {
            throw named(e);
        }
        count_rejections(stats);
    }

private:
    [[nodiscard]] Error named(const ParseError& e) const {
        return Error("reading dataset " + std::string(Codec::name) + " (" +
                     path_.string() + "): " + e.what());
    }

    fs::path path_;
    bool lenient_;
    net::ByteSource source_;
    std::string garbled_;  ///< the fault-garbled copy `parsed_` views, if any
    Container parsed_;
};

/// The batch read of one dataset, blocks in probe order.
template <typename Codec>
std::vector<typename Codec::Record> read_dataset(const fs::path& directory,
                                                 bool lenient) {
    obs::ObsSpan span(std::string("datasets.read_") + Codec::name, "io");
    const DatasetFile<Codec> file(directory, lenient);
    std::vector<typename Codec::Record> records;
    file.decode(file.blocks(), records);
    return records;
}

/// Hands the records of `blocks` to `emit` one block at a time, each only
/// once its whole block has parsed: a lenient drop must not leave half a
/// block in a handler that cannot un-see it.
template <typename Codec, typename Emit>
void emit_blocks(const DatasetFile<Codec>& file, std::span<const Block> blocks,
                 Emit& emit) {
    std::vector<typename Codec::Record> staged;
    for (const Block& block : blocks) {
        staged.clear();
        file.decode({&block, 1}, staged);
        for (const auto& record : staged) emit(record);
    }
}

/// One record channel of the streaming reader's ascending-probe merge.
template <typename Codec, typename Emit>
class MergeChannel {
public:
    MergeChannel(const DatasetFile<Codec>& file, Emit emit)
        : file_(file), emit_(std::move(emit)) {}

    [[nodiscard]] bool pending() const {
        return next_ < file_.blocks().size();
    }
    /// The next block's probe; max() once drained.
    [[nodiscard]] ProbeId head() const {
        return pending() ? file_.blocks()[next_].probe
                         : std::numeric_limits<ProbeId>::max();
    }
    /// Emits every block of `probe` at the head of the channel.
    void drain(ProbeId probe) {
        const auto blocks = file_.blocks();
        std::size_t end = next_;
        while (end < blocks.size() && blocks[end].probe == probe) ++end;
        emit_blocks(file_, blocks.subspan(next_, end - next_), emit_);
        next_ = end;
    }

private:
    const DatasetFile<Codec>& file_;
    Emit emit_;
    std::size_t next_ = 0;
};

}  // namespace

// -- in-memory codecs --------------------------------------------------------

std::string encode_connection_log_binary(
    std::span<const ConnectionLogEntry> entries, std::size_t block_records) {
    return encode_dataset<ConnectionCodec>(entries, block_records);
}

std::string encode_kroot_binary(std::span<const KRootPingRecord> records,
                                std::size_t block_records) {
    return encode_dataset<KRootCodec>(records, block_records);
}

std::string encode_uptime_binary(std::span<const UptimeRecord> records,
                                 std::size_t block_records) {
    return encode_dataset<UptimeCodec>(records, block_records);
}

std::string encode_probes_binary(std::span<const ProbeMetadata> probes,
                                 std::size_t block_records) {
    return encode_dataset<ProbesCodec>(probes, block_records);
}

std::vector<ConnectionLogEntry> decode_connection_log_binary(
    std::string_view data, bool lenient, BinaryDecodeStats* stats) {
    return decode_dataset<ConnectionCodec>(data, lenient, stats);
}

std::vector<KRootPingRecord> decode_kroot_binary(std::string_view data,
                                                 bool lenient,
                                                 BinaryDecodeStats* stats) {
    return decode_dataset<KRootCodec>(data, lenient, stats);
}

std::vector<UptimeRecord> decode_uptime_binary(std::string_view data,
                                               bool lenient,
                                               BinaryDecodeStats* stats) {
    return decode_dataset<UptimeCodec>(data, lenient, stats);
}

std::vector<ProbeMetadata> decode_probes_binary(std::string_view data,
                                                bool lenient,
                                                BinaryDecodeStats* stats) {
    return decode_dataset<ProbesCodec>(data, lenient, stats);
}

// -- writer ------------------------------------------------------------------

struct BinaryBundleWriter::Impl {
    fs::path directory;
    DatasetEncoder<ConnectionCodec> connections;
    DatasetEncoder<KRootCodec> kroot;
    DatasetEncoder<UptimeCodec> uptime;
    DatasetEncoder<ProbesCodec> probes;
    bool closed = false;
    /// Capacity accounting (mem.atlas.dab2_writer): the four encoders'
    /// bodies + buffers, published every 1024 records and at close.
    obs::MemRegistration mem{"atlas.dab2_writer"};
    std::size_t mem_ops = 0;
    std::uint64_t records_added = 0;

    void note_record() {
        ++records_added;
        if ((++mem_ops & 1023) == 0) publish_mem();
    }
    void publish_mem() {
        mem.report(connections.memory_bytes() + kroot.memory_bytes() +
                       uptime.memory_bytes() + probes.memory_bytes(),
                   records_added);
    }

    Impl(std::string dir, std::size_t block_records)
        : directory(std::move(dir)),
          connections(block_records),
          kroot(block_records),
          uptime(block_records),
          probes(block_records) {
        fs::create_directories(directory);
    }
};

BinaryBundleWriter::BinaryBundleWriter(const std::string& directory,
                                       std::size_t block_records)
    : impl_(std::make_unique<Impl>(directory, block_records)) {}

BinaryBundleWriter::~BinaryBundleWriter() {
    try {
        close();
    } catch (const Error&) {
        // Destructor path: the files stay tail-less and readers reject
        // them loudly; callers wanting the error call close() themselves.
    }
}

void BinaryBundleWriter::add_connection(const ConnectionLogEntry& entry) {
    impl_->connections.add(entry);
    impl_->note_record();
}

void BinaryBundleWriter::add_kroot(const KRootPingRecord& record) {
    impl_->kroot.add(record);
    impl_->note_record();
}

void BinaryBundleWriter::add_uptime(const UptimeRecord& record) {
    impl_->uptime.add(record);
    impl_->note_record();
}

void BinaryBundleWriter::add_probe(const ProbeMetadata& meta) {
    impl_->probes.add(meta);
    impl_->note_record();
}

void BinaryBundleWriter::close() {
    if (impl_->closed) return;
    impl_->closed = true;
    impl_->publish_mem();
    impl_->connections.write(impl_->directory);
    impl_->kroot.write(impl_->directory);
    impl_->uptime.write(impl_->directory);
    impl_->probes.write(impl_->directory);
}

// -- collector ---------------------------------------------------------------

namespace {

/// push_back that reports whether `dataset` reallocated.
template <typename Record>
bool push_grew(std::vector<Record>& dataset, const Record& record) {
    const std::size_t capacity = dataset.capacity();
    dataset.push_back(record);
    return dataset.capacity() != capacity;
}

}  // namespace

void BundleCollector::add_connection(const ConnectionLogEntry& entry) {
    if (push_grew(bundle_->connection_log, entry)) publish_mem();
    if (forward_ != nullptr) forward_->add_connection(entry);
}

void BundleCollector::add_kroot(const KRootPingRecord& record) {
    if (push_grew(bundle_->kroot_pings, record)) publish_mem();
    if (forward_ != nullptr) forward_->add_kroot(record);
}

void BundleCollector::add_uptime(const UptimeRecord& record) {
    if (push_grew(bundle_->uptime_records, record)) publish_mem();
    if (forward_ != nullptr) forward_->add_uptime(record);
}

void BundleCollector::add_probe(const ProbeMetadata& meta) {
    if (push_grew(bundle_->probes, meta)) publish_mem();
    if (forward_ != nullptr) forward_->add_probe(meta);
}

void BundleCollector::publish_mem() {
    const DatasetBundle& b = *bundle_;
    mem_.report(b.connection_log.capacity() * sizeof(ConnectionLogEntry) +
                    b.kroot_pings.capacity() * sizeof(KRootPingRecord) +
                    b.uptime_records.capacity() * sizeof(UptimeRecord) +
                    b.probes.capacity() * sizeof(ProbeMetadata),
                b.connection_log.size() + b.kroot_pings.size() +
                    b.uptime_records.size() + b.probes.size());
}

// -- whole-bundle I/O --------------------------------------------------------

void write_binary_bundle(const std::string& directory,
                         const DatasetBundle& bundle,
                         std::size_t block_records) {
    obs::ObsSpan span("datasets.write_binary_bundle", "io",
                      &obs::latency_histogram("datasets.write_binary_bundle"));
    BinaryBundleWriter writer(directory, block_records);
    for (const auto& entry : bundle.connection_log) writer.add_connection(entry);
    for (const auto& record : bundle.kroot_pings) writer.add_kroot(record);
    for (const auto& record : bundle.uptime_records) writer.add_uptime(record);
    for (const auto& meta : bundle.probes) writer.add_probe(meta);
    writer.close();
}

DatasetBundle read_binary_bundle(const std::string& directory, bool lenient) {
    obs::ObsSpan span("datasets.read_binary_bundle", "io",
                      &obs::latency_histogram("datasets.read_binary_bundle"));
    const fs::path dir(directory);
    DatasetBundle bundle;
    bundle.connection_log = read_dataset<ConnectionCodec>(dir, lenient);
    bundle.kroot_pings = read_dataset<KRootCodec>(dir, lenient);
    bundle.uptime_records = read_dataset<UptimeCodec>(dir, lenient);
    bundle.probes = read_dataset<ProbesCodec>(dir, lenient);
    obs::counter("datasets.rows_read")
        .inc(bundle.connection_log.size() + bundle.kroot_pings.size() +
             bundle.uptime_records.size() + bundle.probes.size());
    DYNADDR_LOG(Info, binary_bundle, "read binary bundle from ", directory,
                ": ", bundle.connection_log.size(), " connections, ",
                bundle.kroot_pings.size(), " kroot pings, ",
                bundle.uptime_records.size(), " uptime records, ",
                bundle.probes.size(), " probes");
    return bundle;
}

bool binary_bundle_present(const std::string& directory) {
    return fs::exists(fs::path(directory) / file_name<ConnectionCodec>());
}

DatasetBundle read_bundle_auto(const std::string& directory) {
    return binary_bundle_present(directory) ? read_binary_bundle(directory)
                                            : read_bundle(directory);
}

void stream_binary_bundle(const std::string& directory,
                          BundleStreamHandler& handler, bool lenient) {
    obs::ObsSpan span("datasets.stream_binary_bundle", "io",
                      &obs::latency_histogram("datasets.stream_binary_bundle"));
    const fs::path dir(directory);
    const DatasetFile<ConnectionCodec> connections(dir, lenient);
    const DatasetFile<KRootCodec> kroot(dir, lenient);
    const DatasetFile<UptimeCodec> uptime(dir, lenient);
    const DatasetFile<ProbesCodec> probes(dir, lenient);

    // Metadata first: every probe's version is known before any seals.
    auto on_metadata = [&](const ProbeMetadata& m) { handler.on_metadata(m); };
    emit_blocks(probes, probes.blocks(), on_metadata);

    MergeChannel c(connections, [&](const ConnectionLogEntry& e) {
        handler.on_connection(e);
    });
    MergeChannel k(kroot,
                   [&](const KRootPingRecord& r) { handler.on_kroot(r); });
    MergeChannel u(uptime, [&](const UptimeRecord& r) { handler.on_uptime(r); });
    while (c.pending() || k.pending() || u.pending()) {
        const ProbeId next = std::min({c.head(), k.head(), u.head()});
        c.drain(next);
        k.drain(next);
        u.drain(next);
        handler.on_probe_complete(next);
    }
}

}  // namespace dynaddr::atlas
