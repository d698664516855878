#pragma once

// Columnar binary dataset bundle ("DAB2"), the I/O-bound companion to the
// CSV bundle. One .dab file per dataset, same base names as the CSV side
// (connection_log.dab, ...). Layout per file:
//
//   header   "DAB2" | kind u8 | format u8
//   blocks   repeated: varint probe | varint count | columnar payload
//   footer   address dictionary (connection log only; empty elsewhere)
//            + block index: per block (varint probe, varint offset delta,
//              varint count), in file order
//   tail     u64 LE footer offset | "DABE"  (fixed 12 bytes)
//
// Columns are delta-varint timestamps (zigzag start deltas, zigzag
// durations) and dictionary-coded peer addresses, cutting the connection
// log to a fraction of its CSV size. Blocks hold at most `block_records`
// records of ONE probe, so the footer index supports per-probe reads: the
// streaming analysis path walks probes in ascending id order touching
// O(block) bytes at a time, and shards can divide the probe space without
// parsing each other's blocks.
//
// Both file readers return each dataset grouped by probe, ascending, with
// record order within a probe preserved exactly (a probe's blocks in file
// order, records in block order). So CSV -> binary -> CSV round-trips
// bundles written per-probe sorted (DatasetBundle::sort() and `dynaddr
// convert` both qualify) byte-identically, and a bundle teed from the
// simulator, probes interleaved, still reads back grouped by probe.
//
// Lenient decoding (fault-garbled input) drops the offending block,
// counts its rows as rejected — the binary analogue of the CSV readers'
// faults.csv.rows_rejected — and resumes at the next indexed block.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "atlas/datasets.hpp"
#include "netcore/obs/memaccount.hpp"

namespace dynaddr::atlas {

/// Push-based consumer of dataset records: the simulator's one emission
/// path. run_scenario emits every dataset record into a BundleCollector,
/// which keeps the in-memory bundle and tees into the caller's sink (a
/// BinaryBundleWriter, say) as records happen.
class BundleSink {
public:
    virtual ~BundleSink() = default;
    virtual void add_connection(const ConnectionLogEntry& entry) = 0;
    virtual void add_kroot(const KRootPingRecord& record) = 0;
    virtual void add_uptime(const UptimeRecord& record) = 0;
    virtual void add_probe(const ProbeMetadata& meta) = 0;
};

/// Appends every record to `bundle` in arrival order and forwards it to
/// `forward` when one is set, so the in-memory bundle and the forwarded
/// sink see the same record sequence. Both must outlive the collector.
class BundleCollector final : public BundleSink {
public:
    explicit BundleCollector(DatasetBundle& bundle,
                             BundleSink* forward = nullptr)
        : bundle_(&bundle), forward_(forward) {}

    void add_connection(const ConnectionLogEntry& entry) override;
    void add_kroot(const KRootPingRecord& record) override;
    void add_uptime(const UptimeRecord& record) override;
    void add_probe(const ProbeMetadata& meta) override;

private:
    void publish_mem();

    DatasetBundle* bundle_;
    BundleSink* forward_;
    /// Capacity accounting (mem.atlas.dataset_buffers): the collected
    /// datasets at per-record struct size, republished whenever one of
    /// them reallocates.
    obs::MemRegistration mem_{"atlas.dataset_buffers"};
};

/// Incremental writer: appends records into per-probe columnar blocks,
/// closing a block when it reaches `block_records` records or the
/// incoming probe id changes. Blocks are held in memory; close() (or
/// destruction) writes every file, footer and tail included, and until
/// then nothing is on disk.
class BinaryBundleWriter final : public BundleSink {
public:
    explicit BinaryBundleWriter(const std::string& directory,
                                std::size_t block_records = 512);
    ~BinaryBundleWriter() override;
    BinaryBundleWriter(const BinaryBundleWriter&) = delete;
    BinaryBundleWriter& operator=(const BinaryBundleWriter&) = delete;

    void add_connection(const ConnectionLogEntry& entry) override;
    void add_kroot(const KRootPingRecord& record) override;
    void add_uptime(const UptimeRecord& record) override;
    void add_probe(const ProbeMetadata& meta) override;

    /// Flushes pending blocks and writes footer + tail on every dataset
    /// file. Idempotent; throws Error on I/O failure.
    void close();

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/// Decode-side tallies (lenient mode).
struct BinaryDecodeStats {
    std::size_t rows_rejected = 0;    ///< records inside rejected blocks
    std::size_t blocks_rejected = 0;  ///< blocks dropped for parse errors
};

// -- in-memory single-dataset codecs ----------------------------------------
// The encoded string IS the .dab file body; the file paths below are thin
// wrappers. Exposed for the fuzz harness and the microbenchmarks.

std::string encode_connection_log_binary(
    std::span<const ConnectionLogEntry> entries,
    std::size_t block_records = 512);
std::string encode_kroot_binary(std::span<const KRootPingRecord> records,
                                std::size_t block_records = 512);
std::string encode_uptime_binary(std::span<const UptimeRecord> records,
                                 std::size_t block_records = 512);
std::string encode_probes_binary(std::span<const ProbeMetadata> probes,
                                 std::size_t block_records = 512);

/// Strict mode throws ParseError on the first malformed byte; lenient
/// mode skips bad blocks via the footer index and tallies into `stats`.
std::vector<ConnectionLogEntry> decode_connection_log_binary(
    std::string_view data, bool lenient = false,
    BinaryDecodeStats* stats = nullptr);
std::vector<KRootPingRecord> decode_kroot_binary(
    std::string_view data, bool lenient = false,
    BinaryDecodeStats* stats = nullptr);
std::vector<UptimeRecord> decode_uptime_binary(
    std::string_view data, bool lenient = false,
    BinaryDecodeStats* stats = nullptr);
std::vector<ProbeMetadata> decode_probes_binary(
    std::string_view data, bool lenient = false,
    BinaryDecodeStats* stats = nullptr);

// -- whole-bundle file I/O ---------------------------------------------------

/// Writes all four datasets as .dab files (directory created if needed).
void write_binary_bundle(const std::string& directory,
                         const DatasetBundle& bundle,
                         std::size_t block_records = 512);

/// Reads a binary bundle, each dataset grouped by probe (see above).
/// Strict by default; with an installed fault injector whose CSV fault
/// rate is active, the blobs are garbled like the CSV readers' rows and
/// decoded leniently, counting the faults.binary.rows_rejected metric.
/// Errors name both the dataset and the offending path.
DatasetBundle read_binary_bundle(const std::string& directory,
                                 bool lenient = false);

/// True when `directory` holds a binary bundle (connection_log.dab).
[[nodiscard]] bool binary_bundle_present(const std::string& directory);

/// Reads whichever format the directory holds (binary preferred).
DatasetBundle read_bundle_auto(const std::string& directory);

/// Visitor for the probe-ordered streaming read path.
class BundleStreamHandler {
public:
    virtual ~BundleStreamHandler() = default;
    virtual void on_metadata(const ProbeMetadata& meta) = 0;
    virtual void on_connection(const ConnectionLogEntry& entry) = 0;
    virtual void on_kroot(const KRootPingRecord& record) = 0;
    virtual void on_uptime(const UptimeRecord& record) = 0;
    /// No further records will arrive for probes <= `probe`.
    virtual void on_probe_complete(ProbeId probe) = 0;
};

/// Streams a binary bundle in ascending-probe order: all metadata first,
/// then each probe's connection/kroot/uptime records
/// followed by on_probe_complete — exactly the StreamingPipeline feed
/// contract — touching O(block) bytes at a time via the footer index.
void stream_binary_bundle(const std::string& directory,
                          BundleStreamHandler& handler, bool lenient = false);

}  // namespace dynaddr::atlas
