#pragma once

#include <vector>

#include "atlas/binary_bundle.hpp"
#include "atlas/datasets.hpp"
#include "netcore/obs/memaccount.hpp"
#include "netcore/rng.hpp"
#include "sim/simulation.hpp"

namespace dynaddr::atlas {

class Probe;

/// The RIPE Atlas central controller.
///
/// Collects connection-log and uptime records from registered probes and
/// distributes firmware releases. A release marks every probe
/// pending-install (installed at its next natural connection break); a
/// per-probe forced install at release + U(force_min, force_max) catches
/// probes whose connections never break, which spreads installs over the
/// 2-3 day spikes visible in the paper's Figure 6.
class Controller {
public:
    explicit Controller(sim::Simulation& sim, rng::Stream rng);

    /// Registers a probe for firmware pushes. The probe must outlive the
    /// controller's scheduled events.
    void register_probe(Probe& probe);

    /// Schedules a firmware release at `release` (absolute time).
    void schedule_firmware_release(net::TimePoint release);

    /// Bounds for the forced-install nudge after a release.
    void set_force_window(net::Duration min, net::Duration max);

    // -- record sinks (called by probes) -----------------------------------
    void record_connection(const ConnectionLogEntry& entry);
    void record_uptime(const UptimeRecord& record);

    /// Tees every recorded connection/uptime record into `sink` as it
    /// happens (nullptr clears). A BinaryBundleWriter installed here
    /// encodes blocks as records arrive but holds them in memory until
    /// its close(). The sink must outlive the controller's recording.
    void set_sink(BundleSink* sink) { sink_ = sink; }

    [[nodiscard]] const std::vector<ConnectionLogEntry>& connection_log() const {
        return connection_log_;
    }
    [[nodiscard]] const std::vector<UptimeRecord>& uptime_records() const {
        return uptime_records_;
    }
    [[nodiscard]] const std::vector<net::TimePoint>& firmware_releases() const {
        return releases_;
    }

    /// Moves the collected records into a bundle (leaves this empty).
    void drain_into(DatasetBundle& bundle);

private:
    void release_firmware(net::TimePoint when);

    sim::Simulation* sim_;
    rng::Stream rng_;
    std::vector<Probe*> probes_;
    std::vector<ConnectionLogEntry> connection_log_;
    std::vector<UptimeRecord> uptime_records_;
    std::vector<net::TimePoint> releases_;
    net::Duration force_min_ = net::Duration::hours(12);
    net::Duration force_max_ = net::Duration::hours(60);
    BundleSink* sink_ = nullptr;
    /// Capacity accounting (mem.atlas.dataset_buffers): the centrally
    /// buffered connection/uptime records — the dominant growth of a
    /// non-streaming run — published amortized from the record sinks.
    void note_mem_op() {
        if ((++mem_ops_ & 1023) == 0) publish_mem();
    }
    void publish_mem() {
        mem_.report(connection_log_.capacity() * sizeof(ConnectionLogEntry) +
                        uptime_records_.capacity() * sizeof(UptimeRecord),
                    connection_log_.size() + uptime_records_.size());
    }
    std::size_t mem_ops_ = 0;
    obs::MemRegistration mem_{"atlas.dataset_buffers"};
};

}  // namespace dynaddr::atlas
