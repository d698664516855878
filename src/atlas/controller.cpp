#include "atlas/controller.hpp"

#include "atlas/probe.hpp"
#include "netcore/error.hpp"

namespace dynaddr::atlas {

Controller::Controller(sim::Simulation& sim, rng::Stream rng)
    : sim_(&sim), rng_(rng) {}

void Controller::register_probe(Probe& probe) { probes_.push_back(&probe); }

void Controller::schedule_firmware_release(net::TimePoint release) {
    releases_.push_back(release);
    sim_->at(release, [this](net::TimePoint when) { release_firmware(when); });
}

void Controller::set_force_window(net::Duration min, net::Duration max) {
    if (max < min) throw Error("force window max < min");
    force_min_ = min;
    force_max_ = max;
}

void Controller::record_connection(const ConnectionLogEntry& entry) {
    if (sink_ != nullptr) sink_->add_connection(entry);
}

void Controller::record_uptime(const UptimeRecord& record) {
    if (sink_ != nullptr) sink_->add_uptime(record);
}

void Controller::release_firmware(net::TimePoint) {
    for (Probe* probe : probes_) {
        probe->firmware_released();
        const net::Duration nudge{
            rng_.uniform_int(force_min_.count(), force_max_.count())};
        sim_->after(nudge, [probe](net::TimePoint) {
            probe->force_firmware_install();
        });
    }
}

}  // namespace dynaddr::atlas
