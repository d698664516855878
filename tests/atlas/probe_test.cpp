#include "atlas/probe.hpp"

#include <gtest/gtest.h>

#include "atlas/binary_bundle.hpp"
#include "atlas/controller.hpp"

namespace dynaddr::atlas {
namespace {

using net::Duration;
using net::IPv4Address;
using net::TimePoint;

PeerAddress v4(int last_octet) {
    return PeerAddress::ipv4(IPv4Address(10, 0, 0, std::uint8_t(last_octet)));
}

struct Rig {
    explicit Rig(ProbeVersion version = ProbeVersion::V3,
                 double frag_probability = 0.0)
        : sim(TimePoint{0}),
          controller(sim, rng::Stream(1)),
          timeline(7),
          probe(make_config(version, frag_probability), sim, rng::Stream(2),
                controller, timeline) {
        controller.register_probe(probe);
        controller.set_sink(&collector);
    }

    static ProbeConfig make_config(ProbeVersion version, double frag) {
        ProbeConfig config;
        config.id = 7;
        config.version = version;
        config.frag_reboot_probability = frag;
        return config;
    }

    /// Boots the probe and attaches a WAN address, running time forward.
    void bring_up(PeerAddress address) {
        probe.power_on(RebootCause::InitialPowerOn);
        sim.run_until(sim.now() + Duration::seconds(200));  // boot finishes
        probe.wan_update(address);
        sim.run_until(sim.now() + Duration::seconds(200));  // connect fires
    }

    DatasetBundle records;  ///< what the controller forwarded
    BundleCollector collector{records};
    sim::Simulation sim;
    Controller controller;
    Timeline timeline;
    Probe probe;
};

TEST(Probe, ConnectsAfterBootAndReportsUptime) {
    Rig rig;
    rig.bring_up(v4(1));
    EXPECT_TRUE(rig.probe.connected());
    ASSERT_EQ(rig.records.uptime_records.size(), 1u);
    const auto& record = rig.records.uptime_records[0];
    // Uptime counts from boot start (t=0).
    EXPECT_EQ(record.uptime_seconds,
              std::uint64_t(record.timestamp.unix_seconds()));
}

TEST(Probe, AddressChangeBreaksConnectionAfterTcpTimeout) {
    Rig rig;
    rig.bring_up(v4(1));
    const TimePoint change_at = rig.sim.now();
    rig.probe.wan_update(v4(2));
    EXPECT_TRUE(rig.probe.connected()) << "TCP lingers until retransmission death";
    rig.sim.run_until(change_at + Duration::minutes(40));
    ASSERT_EQ(rig.records.connection_log.size(), 1u);
    // A copy: the second entry below may reallocate the log.
    const ConnectionLogEntry entry = rig.records.connection_log[0];
    EXPECT_EQ(entry.address, v4(1));
    // End is logged at/just before the change (last receipt of data).
    EXPECT_LE(entry.end, change_at);
    EXPECT_GE(entry.end, change_at - Duration::seconds(180));
    // New connection runs from the new address.
    EXPECT_TRUE(rig.probe.connected());
    // The inter-connection gap is the paper's 15-25 minute TCP timeout.
    rig.probe.power_off();  // flush second entry
    const auto& second = rig.records.connection_log[1];
    EXPECT_EQ(second.address, v4(2));
    const auto gap = second.start - entry.end;
    EXPECT_GE(gap, Duration::minutes(15) - Duration::seconds(180));
    EXPECT_LE(gap, Duration::minutes(25) + Duration::seconds(300));
}

TEST(Probe, ShortBlipOnSameAddressKeepsConnection) {
    Rig rig;
    rig.bring_up(v4(1));
    // 5-minute connectivity loss, address unchanged afterwards.
    rig.probe.wan_update(std::nullopt);
    rig.sim.run_until(rig.sim.now() + Duration::minutes(5));
    rig.probe.wan_update(v4(1));
    rig.sim.run_until(rig.sim.now() + Duration::hours(1));
    EXPECT_TRUE(rig.probe.connected());
    EXPECT_TRUE(rig.records.connection_log.empty())
        << "surviving connection produces no log entry";
}

TEST(Probe, LongOutageBreaksEvenWithSameAddress) {
    Rig rig;
    rig.bring_up(v4(1));
    rig.probe.wan_update(std::nullopt);
    rig.sim.run_until(rig.sim.now() + Duration::hours(1));
    EXPECT_FALSE(rig.probe.connected());
    EXPECT_EQ(rig.records.connection_log.size(), 1u);
    rig.probe.wan_update(v4(1));
    rig.sim.run_until(rig.sim.now() + Duration::minutes(5));
    EXPECT_TRUE(rig.probe.connected());
}

TEST(Probe, PowerCycleRecordsBootAndDownInterval) {
    Rig rig;
    rig.bring_up(v4(1));
    const TimePoint off_at = rig.sim.now();
    rig.probe.power_off();
    EXPECT_FALSE(rig.probe.connected());
    EXPECT_EQ(rig.records.connection_log.size(), 1u);
    rig.sim.run_until(off_at + Duration::minutes(10));
    rig.probe.power_on(RebootCause::PowerCycle);
    rig.sim.run_until(rig.sim.now() + Duration::minutes(10));
    EXPECT_TRUE(rig.probe.connected());
    rig.timeline.finalize(rig.sim.now());
    // Boots: initial + power cycle.
    ASSERT_EQ(rig.timeline.boots().size(), 2u);
    EXPECT_EQ(rig.timeline.boots()[1].cause, RebootCause::PowerCycle);
    // Probe-down intervals: pre-boot and the outage window.
    ASSERT_GE(rig.timeline.probe_down_intervals().size(), 2u);
    // Uptime counter reset: second uptime record is smaller than elapsed.
    ASSERT_EQ(rig.records.uptime_records.size(), 2u);
    EXPECT_LT(rig.records.uptime_records[1].uptime_seconds,
              std::uint64_t(rig.sim.now().unix_seconds()));
}

TEST(Probe, FirmwareInstallsOnNextConnectionBreak) {
    Rig rig;
    rig.bring_up(v4(1));
    rig.probe.firmware_released();
    rig.sim.run_until(rig.sim.now() + Duration::hours(1));
    // Nothing happens while the connection lives.
    rig.timeline.finalize(rig.sim.now());
    EXPECT_EQ(rig.timeline.boots().size(), 1u);
}

TEST(Probe, FirmwareRebootAfterBreak) {
    Rig rig;
    rig.bring_up(v4(1));
    rig.probe.firmware_released();
    // Address change breaks the connection -> reboot-to-install follows.
    rig.probe.wan_update(v4(2));
    rig.sim.run_until(rig.sim.now() + Duration::hours(2));
    rig.timeline.finalize(rig.sim.now());
    ASSERT_GE(rig.timeline.boots().size(), 2u);
    EXPECT_EQ(rig.timeline.boots()[1].cause, RebootCause::Firmware);
    // And it reconnects afterwards.
    EXPECT_TRUE(rig.probe.connected());
}

TEST(Probe, ForcedFirmwareInstallRebootsIdleProbe) {
    Rig rig;
    rig.bring_up(v4(1));
    rig.probe.firmware_released();
    rig.probe.force_firmware_install();
    rig.sim.run_until(rig.sim.now() + Duration::minutes(30));
    rig.timeline.finalize(rig.sim.now());
    ASSERT_EQ(rig.timeline.boots().size(), 2u);
    EXPECT_EQ(rig.timeline.boots()[1].cause, RebootCause::Firmware);
    EXPECT_TRUE(rig.probe.connected());
    // Second install attempt is a no-op (flag consumed).
    rig.probe.force_firmware_install();
    rig.sim.run_until(rig.sim.now() + Duration::minutes(30));
}

TEST(Probe, V1FragmentationRebootsAfterConnecting) {
    Rig rig(ProbeVersion::V1, /*frag_probability=*/1.0);
    rig.bring_up(v4(1));
    rig.sim.run_until(rig.sim.now() + Duration::minutes(10));
    rig.timeline.finalize(rig.sim.now());
    // Boot 1: initial. Boot 2+: fragmentation reboots (each reconnect
    // triggers another since probability is 1).
    ASSERT_GE(rig.timeline.boots().size(), 2u);
    EXPECT_EQ(rig.timeline.boots()[1].cause, RebootCause::MemoryFragmentation);
}

TEST(Probe, V3NeverFragmentReboots) {
    Rig rig(ProbeVersion::V3, /*frag_probability=*/1.0);
    rig.bring_up(v4(1));
    rig.sim.run_until(rig.sim.now() + Duration::hours(2));
    rig.timeline.finalize(rig.sim.now());
    EXPECT_EQ(rig.timeline.boots().size(), 1u);
}

TEST(Controller, FirmwareReleaseReachesAllProbes) {
    sim::Simulation sim(TimePoint{0});
    Controller controller(sim, rng::Stream(1));
    controller.set_force_window(Duration::hours(1), Duration::hours(2));
    Timeline t1(1), t2(2);
    ProbeConfig c1;
    c1.id = 1;
    ProbeConfig c2;
    c2.id = 2;
    Probe p1(c1, sim, rng::Stream(2), controller, t1);
    Probe p2(c2, sim, rng::Stream(3), controller, t2);
    controller.register_probe(p1);
    controller.register_probe(p2);
    p1.power_on(RebootCause::InitialPowerOn);
    p2.power_on(RebootCause::InitialPowerOn);
    sim.run_until(TimePoint{300});
    p1.wan_update(v4(1));
    p2.wan_update(v4(2));
    controller.schedule_firmware_release(TimePoint{3600});
    sim.run_until(TimePoint{4 * 3600 + 7200});
    t1.finalize(sim.now());
    t2.finalize(sim.now());
    // Both probes eventually install via the forced nudge.
    ASSERT_EQ(t1.boots().size(), 2u);
    EXPECT_EQ(t1.boots()[1].cause, RebootCause::Firmware);
    ASSERT_EQ(t2.boots().size(), 2u);
    EXPECT_EQ(t2.boots()[1].cause, RebootCause::Firmware);
}

}  // namespace
}  // namespace dynaddr::atlas
