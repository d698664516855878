#pragma once

#include <vector>

#include "atlas/binary_bundle.hpp"
#include "atlas/datasets.hpp"
#include "netcore/rng.hpp"
#include "sim/simulation.hpp"

namespace dynaddr::atlas {

class Probe;

/// The RIPE Atlas central controller.
///
/// Forwards connection-log and uptime records from registered probes to its
/// sink and distributes firmware releases. A release marks every probe
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

    /// Forwards every recorded connection/uptime record to `sink` as it
    /// happens (nullptr drops them); the controller keeps no copy.
    /// run_scenario installs its BundleCollector here. The sink must
    /// outlive the controller's recording.
    void set_sink(BundleSink* sink) { sink_ = sink; }

    [[nodiscard]] const std::vector<net::TimePoint>& firmware_releases() const {
        return releases_;
    }

private:
    void release_firmware(net::TimePoint when);

    sim::Simulation* sim_;
    rng::Stream rng_;
    std::vector<Probe*> probes_;
    std::vector<net::TimePoint> releases_;
    net::Duration force_min_ = net::Duration::hours(12);
    net::Duration force_max_ = net::Duration::hours(60);
    BundleSink* sink_ = nullptr;
};

}  // namespace dynaddr::atlas
