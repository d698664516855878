#pragma once

// Memory accounting: the capacity half of the observability layer. Every
// owning subsystem (event-queue slab and heap, pool bitmaps, lease tables,
// DIR-24-8 tables, streaming-pipeline buffers, DAB2 writer blocks,
// flight-recorder rings) registers a MemSource and *publishes* its byte
// and item figures into it at its own mutation points.
//
// Ownership rule (the one that keeps concurrent /top polling TSan-clean):
// the registry never reaches into a subsystem. A MemSource is a pair of
// relaxed atomics; the owner stores into them on its own thread, amortized
// at whatever cadence its hot path can afford (capacity changes, every
// N ops, phase boundaries), and readers — the stats server, --mem-report,
// the mem.* gauges — only ever load those atomics. Reading a vector's
// capacity from another thread while the owner grows it would be a data
// race; publishing the computed figure through an atomic is not. The
// price is bounded staleness (a source lags its owner by at most one
// publish interval), which a capacity report can afford.
//
// The report is two-sided on purpose: accounted bytes (sum of sources)
// next to process RSS and peak RSS from /proc/self/statm + getrusage, with
// the residual = RSS − accounted reported explicitly. Un-accounted growth
// shows up as a growing residual instead of hiding — the instrument every
// scaling PR reads before trusting its "peak RSS bounded" claim.
//
// Pure observer: registration and publishing touch no simulation state and
// draw no randomness; LiveObsDeterminism covers it.

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dynaddr::obs {

/// Live figures for one accounted subsystem instance. Owned by the
/// registry; the owning subsystem holds it through a MemRegistration.
class MemSource {
public:
    /// The owner's publish point: two relaxed stores.
    void report(std::uint64_t bytes, std::uint64_t items = 0) {
        bytes_.store(bytes, std::memory_order_relaxed);
        items_.store(items, std::memory_order_relaxed);
    }

    [[nodiscard]] const std::string& name() const { return name_; }
    [[nodiscard]] std::uint64_t bytes() const {
        return bytes_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t items() const {
        return items_.load(std::memory_order_relaxed);
    }

    /// Construction goes through MemRegistration; the registry owns every
    /// instance.
    explicit MemSource(std::string name) : name_(std::move(name)) {}

private:
    std::string name_;
    std::atomic<std::uint64_t> bytes_{0};
    std::atomic<std::uint64_t> items_{0};
};

/// RAII registration: constructing adds a source under `name` (several
/// instances may share a name — a scenario has many pools — and aggregate
/// in the report), destroying removes it. Move-only; a default-constructed
/// registration is empty and report() on it is a no-op, so subsystems can
/// hold one unconditionally.
class MemRegistration {
public:
    MemRegistration() = default;
    explicit MemRegistration(std::string_view name);
    ~MemRegistration();
    MemRegistration(MemRegistration&& other) noexcept
        : source_(other.source_) {
        other.source_ = nullptr;
    }
    MemRegistration& operator=(MemRegistration&& other) noexcept;
    MemRegistration(const MemRegistration&) = delete;
    MemRegistration& operator=(const MemRegistration&) = delete;

    void report(std::uint64_t bytes, std::uint64_t items = 0) {
        if (source_ != nullptr) source_->report(bytes, items);
    }
    [[nodiscard]] bool empty() const { return source_ == nullptr; }

private:
    MemSource* source_ = nullptr;
};

/// One aggregated row of the report (same-name sources summed).
struct MemSubsystem {
    std::string name;
    std::uint64_t bytes = 0;
    std::uint64_t items = 0;
    std::size_t sources = 0;  ///< live instances aggregated into this row
};

/// Accounted-vs-process view at one instant.
struct MemReport {
    std::vector<MemSubsystem> subsystems;     ///< sorted by bytes, descending
    std::uint64_t accounted_bytes = 0;        ///< sum over subsystems
    std::uint64_t process_rss_bytes = 0;      ///< /proc/self/statm resident
    std::uint64_t process_peak_rss_bytes = 0; ///< getrusage ru_maxrss
    /// process_rss_bytes − accounted_bytes: what no subsystem owns up to
    /// (allocator slack, code+stacks, raw dataset payloads, un-instrumented
    /// growth). Reported, never hidden.
    [[nodiscard]] std::int64_t residual_bytes() const {
        return std::int64_t(process_rss_bytes) - std::int64_t(accounted_bytes);
    }
};

/// Current resident set from /proc/self/statm (0 when unreadable).
[[nodiscard]] std::uint64_t process_rss_bytes();
/// Lifetime peak resident set from getrusage(RUSAGE_SELF).
[[nodiscard]] std::uint64_t process_peak_rss_bytes();

/// Snapshot of every live source plus the process figures.
[[nodiscard]] MemReport mem_report();

/// Pushes the report into the metrics registry as gauges:
/// `mem.<subsystem>.bytes` / `.items` per row, plus `mem.process.rss_bytes`,
/// `mem.process.peak_rss_bytes`, `mem.accounted_bytes`,
/// `mem.residual_bytes`. The stats server calls this before serving
/// /metrics and /top so scrapes always see fresh capacity gauges.
void publish_mem_gauges();

/// `{"accounted_bytes": ..., "process_rss_bytes": ..., ...,
///   "subsystems": [{"name", "bytes", "items", "sources"}, ...]}` —
/// the --mem-report artifact and the "memory" object of /top.
void write_mem_report_json(std::ostream& out, const MemReport& report);

/// Freezes mem_report() as the "final" snapshot. The scenario runner calls
/// this at the end of the plan, while every subsystem is still alive —
/// the instant --mem-report wants, since by the time the CLI writes its
/// outputs the RAII registrations have already been torn down.
void mem_capture_final();

/// The last mem_capture_final() snapshot, if one was taken this process.
[[nodiscard]] std::optional<MemReport> mem_final_report();

/// Writes the final snapshot (falling back to the live mem_report() when
/// none was captured) to `path` as JSON. Throws Error on open failure.
void write_mem_report_file(const std::string& path);

}  // namespace dynaddr::obs
