#include <deque>
#include <unordered_map>

#include "atlas/controller.hpp"
#include "atlas/probe.hpp"
#include "dhcp/server.hpp"
#include "isp/world.hpp"
#include "netcore/error.hpp"
#include "netcore/obs/log.hpp"
#include "netcore/obs/memaccount.hpp"
#include "netcore/obs/metrics.hpp"
#include "netcore/obs/progress.hpp"
#include "netcore/obs/trace.hpp"
#include "sim/cause_ledger.hpp"
#include "sim/simulation.hpp"

DYNADDR_LOG_MODULE(scenario);

namespace dynaddr::isp {

namespace {

/// All heap-pinned simulation objects; deques keep addresses stable.
struct World {
    explicit World(net::TimePoint start, rng::Stream rng)
        : sim(start), controller(sim, rng) {}

    sim::Simulation sim;
    atlas::Controller controller;
    std::deque<pool::AddressPool> pools;
    std::deque<dhcp::Server> dhcp_servers;
    std::deque<ppp::RadiusServer> radius_servers;
    std::deque<atlas::Timeline> timelines;
    std::deque<atlas::Probe> probes;
    std::deque<atlas::Cpe> cpes;
};

/// Per-(ISP, cohort) backend servers sharing the ISP's pool.
struct CohortBackend {
    dhcp::Server* dhcp = nullptr;
    ppp::RadiusServer* radius = nullptr;
};

void validate_isp(const IspSpec& isp) {
    if (isp.asn == 0) throw Error("ISP '" + isp.name + "' needs an ASN");
    if (isp.pool_prefixes.empty())
        throw Error("ISP '" + isp.name + "' needs pool prefixes");
    if (isp.cohorts.empty()) throw Error("ISP '" + isp.name + "' needs cohorts");
    for (const auto& event : isp.admin_events) {
        if (event.retire_pool_index >= isp.pool_prefixes.size() ||
            event.enable_pool_index >= isp.pool_prefixes.size() ||
            event.retire_pool_index == event.enable_pool_index)
            throw Error("bad admin renumbering indices for '" + isp.name + "'");
    }
    for (const auto& pool_prefix : isp.pool_prefixes) {
        int covering = 0;
        for (const auto& agg : isp.announced_prefixes)
            if (agg.contains(pool_prefix)) ++covering;
        if (covering != 1)
            throw Error("pool prefix " + pool_prefix.to_string() + " of '" +
                        isp.name + "' must lie inside exactly one announced prefix");
    }
}

atlas::ProbeVersion draw_version(const Cohort& cohort, rng::Stream& rng) {
    if (!rng.bernoulli(cohort.v1v2_fraction)) return atlas::ProbeVersion::V3;
    return rng.bernoulli(0.5) ? atlas::ProbeVersion::V1 : atlas::ProbeVersion::V2;
}

atlas::CpeConfig make_cpe_config(const Cohort& cohort, rng::Stream& rng) {
    atlas::CpeConfig config;
    config.wan = cohort.protocol;
    config.ppp.skip_renumber_probability = cohort.skip_renumber_probability;
    if (cohort.protocol == atlas::CpeConfig::Wan::Ppp &&
        rng.bernoulli(cohort.fraction_nightly_reconnect)) {
        config.daily_reconnect_hour =
            int(rng.uniform_int(cohort.nightly_hour_min, cohort.nightly_hour_max));
    }
    return config;
}

const char* kSpecialCountries[] = {"DE", "FR", "NL", "GB", "US", "IT", "RU",
                                   "SE", "CZ", "AT", "CH", "BE", "PL", "ES"};

}  // namespace

ScenarioResult run_scenario(const ScenarioConfig& config) {
    if (config.window.empty()) throw Error("scenario window is empty");
    for (const auto& isp : config.isps) validate_isp(isp);

    obs::ObsSpan scenario_span("scenario.run", "scenario",
                               &obs::latency_histogram("scenario.run"));
    // Plan horizon for the progress telemetry (/top, `dynaddr top`).
    obs::progress_begin_plan(config.window.begin, config.window.end);
    DYNADDR_LOG(Info, scenario, "scenario start: ", config.isps.size(),
                " ISPs, window ", config.window.begin.to_string(), " .. ",
                config.window.end.to_string());

    // Fault layer: a CLI-installed process-global injector wins; otherwise
    // one is scoped to this run when the config carries a plan. With
    // neither, every gate below stays a null check.
    std::optional<sim::ScopedFaultInjector> scoped_faults;
    if (config.faults && sim::fault_injector() == nullptr)
        scoped_faults.emplace(*config.faults);
    sim::FaultInjector* faults = sim::fault_injector();
    if (faults != nullptr) faults->set_window(config.window);

    rng::Stream root(config.seed);
    ScenarioResult result;
    // The one emission path: every dataset record lands in result.bundle
    // and, when the caller installed one, in config.bundle_sink.
    atlas::BundleCollector emit(result.bundle, config.bundle_sink);
    World world(config.window.begin, root.child("controller"));
    world.controller.set_sink(&emit);
    // Phase boundaries recorded manually: the build/run/emit phases are
    // sequential regions of this one function, not nested scopes.
    const std::uint64_t build_start_us = obs::trace_now_us();

    // -- BGP state ----------------------------------------------------------
    const bgp::MonthKey first_month = bgp::month_key_of(config.window.begin);
    const bgp::MonthKey last_month =
        bgp::month_key_of(config.window.end - net::Duration::seconds(1));
    for (const auto& isp : config.isps) {
        result.registry.add({isp.asn, isp.name,
                             isp.countries.empty() ? "" : isp.countries.front(),
                             isp.continent});
        for (const auto& announced : isp.announced_prefixes) {
            // Administrative renumbering moves aggregates in/out of the
            // routing table: a retired block's aggregate vanishes from the
            // event's month onward; the new block's appears there.
            bgp::MonthKey start = first_month;
            bgp::MonthKey end = last_month;
            for (const auto& event : isp.admin_events) {
                const bgp::MonthKey boundary = bgp::month_key_of(event.when);
                if (announced.contains(isp.pool_prefixes[event.retire_pool_index]))
                    end = std::min(end, boundary);
                if (announced.contains(isp.pool_prefixes[event.enable_pool_index]))
                    start = std::max(start, boundary);
            }
            if (start <= end)
                result.prefix_table.announce_range(start, end, announced, isp.asn);
        }
    }

    // -- build ISPs, cohorts, probes ----------------------------------------
    atlas::ProbeId next_probe = 1000;
    pool::ClientId next_client = 1;
    std::vector<std::vector<CohortBackend>> backends(config.isps.size());
    // CPEs behind each BRAS/RADIUS pair: a RADIUS crash is a network
    // outage for exactly these subscribers.
    std::unordered_map<ppp::RadiusServer*, std::vector<atlas::Cpe*>>
        cpes_by_radius;

    for (std::size_t i = 0; i < config.isps.size(); ++i) {
        const IspSpec& isp = config.isps[i];
        auto isp_rng = root.child("isp").child(isp.asn);
        std::vector<std::size_t> disabled;
        for (const auto& event : isp.admin_events)
            disabled.push_back(event.enable_pool_index);
        world.pools.emplace_back(
            pool::PoolConfig{isp.pool_prefixes, isp.strategy, isp.churn_per_hour,
                             isp.locality_bias, std::move(disabled)},
            isp_rng.child("pool"));
        pool::AddressPool& pool = world.pools.back();
        for (const auto& event : isp.admin_events) {
            const auto retire = event.retire_pool_index;
            const auto enable = event.enable_pool_index;
            const net::IPv4Prefix retired_pfx = isp.pool_prefixes[retire];
            world.sim.at(event.when,
                         [&pool, retire, enable, retired_pfx](net::TimePoint now) {
                             // PPP subscribers get no per-client evict signal;
                             // the ledger resolves their next change against
                             // this retired-prefix record instead.
                             sim::cause_admin_retire(retired_pfx, now);
                             pool.enable_prefix(enable);
                             pool.retire_prefix(retire);
                         });
        }

        for (std::size_t c = 0; c < isp.cohorts.size(); ++c) {
            const Cohort& cohort = isp.cohorts[c];
            CohortBackend backend;
            if (cohort.protocol == atlas::CpeConfig::Wan::Dhcp) {
                world.dhcp_servers.emplace_back(
                    dhcp::ServerConfig{cohort.dhcp_lease, cohort.dhcp_max_age,
                                       cohort.dhcp_max_age_jitter},
                    pool, world.sim);
                backend.dhcp = &world.dhcp_servers.back();
            } else {
                world.radius_servers.emplace_back(
                    ppp::RadiusConfig{cohort.session_timeout}, pool, world.sim);
                backend.radius = &world.radius_servers.back();
            }
            backends[i].push_back(backend);

            for (int k = 0; k < cohort.probe_count; ++k) {
                auto probe_rng = isp_rng.child("probe").child(
                    std::uint64_t(c) << 32 | std::uint64_t(k));
                const atlas::ProbeId probe_id = next_probe++;
                const pool::ClientId client_id = next_client++;
                sim::cause_register_client(client_id, probe_id);

                world.timelines.emplace_back(probe_id);
                atlas::Timeline& timeline = world.timelines.back();

                atlas::ProbeConfig probe_config;
                probe_config.id = probe_id;
                probe_config.version = draw_version(cohort, probe_rng);
                world.probes.emplace_back(probe_config, world.sim,
                                          probe_rng.child("dev"), world.controller,
                                          timeline);
                atlas::Probe& probe = world.probes.back();
                world.controller.register_probe(probe);

                world.cpes.emplace_back(make_cpe_config(cohort, probe_rng),
                                        client_id, world.sim,
                                        probe_rng.child("cpe"), probe, timeline,
                                        backend.dhcp, backend.radius);
                atlas::Cpe& cpe = world.cpes.back();
                if (backend.radius != nullptr)
                    cpes_by_radius[backend.radius].push_back(&cpe);

                ProbeTruth truth;
                truth.probe = probe_id;
                truth.asn = isp.asn;
                truth.cohort = int(c);
                truth.protocol = cohort.protocol;
                if (cohort.protocol == atlas::CpeConfig::Wan::Ppp)
                    truth.configured_period = cohort.session_timeout;
                truth.outages = schedule_outages(world.sim, cpe, cohort.outages,
                                                 config.window,
                                                 probe_rng.child("outage"));
                result.truths.push_back(std::move(truth));

                // Stagger installs across the first day so free-running
                // periodic clocks de-synchronize.
                const net::Duration stagger{probe_rng.uniform_int(0, 86399)};
                world.sim.at(config.window.begin + stagger,
                             [&cpe](net::TimePoint) { cpe.start(); });

                // Probe metadata (archive dataset).
                atlas::ProbeMetadata meta;
                meta.probe = probe_id;
                meta.version = probe_config.version;
                const auto& countries =
                    isp.countries.empty()
                        ? std::vector<std::string>{std::string("DE")}
                        : isp.countries;
                meta.country_code = countries[std::size_t(probe_rng.uniform_int(
                    0, std::int64_t(countries.size()) - 1))];
                emit.add_probe(meta);
            }
        }
    }

    // -- cross-AS movers ------------------------------------------------------
    if (config.cross_as_movers > 0 && config.isps.size() >= 2) {
        for (int m = 0; m < config.cross_as_movers; ++m) {
            const std::size_t from = std::size_t(m) % config.isps.size();
            const std::size_t to = (from + 1) % config.isps.size();
            const IspSpec& isp_a = config.isps[from];
            const IspSpec& isp_b = config.isps[to];
            const Cohort& cohort_a = isp_a.cohorts.front();
            const Cohort& cohort_b = isp_b.cohorts.front();
            auto probe_rng = root.child("mover").child(std::uint64_t(m));

            const atlas::ProbeId probe_id = next_probe++;
            const pool::ClientId client_id = next_client++;
            sim::cause_register_client(client_id, probe_id);
            world.timelines.emplace_back(probe_id);
            atlas::Timeline& timeline = world.timelines.back();

            atlas::ProbeConfig probe_config;
            probe_config.id = probe_id;
            world.probes.emplace_back(probe_config, world.sim,
                                      probe_rng.child("dev"), world.controller,
                                      timeline);
            atlas::Probe& probe = world.probes.back();
            world.controller.register_probe(probe);

            world.cpes.emplace_back(make_cpe_config(cohort_a, probe_rng),
                                    client_id, world.sim, probe_rng.child("cpe"),
                                    probe, timeline, backends[from][0].dhcp,
                                    backends[from][0].radius);
            atlas::Cpe& cpe = world.cpes.back();
            if (backends[from][0].radius != nullptr)
                cpes_by_radius[backends[from][0].radius].push_back(&cpe);

            world.sim.at(config.window.begin, [&cpe](net::TimePoint) { cpe.start(); });
            // Move house somewhere in the middle third of the window.
            const std::int64_t span = config.window.length().count();
            const net::Duration when{span / 3 +
                                     probe_rng.uniform_int(0, span / 3)};
            const auto wan_b = cohort_b.protocol;
            auto* dhcp_b = backends[to][0].dhcp;
            auto* radius_b = backends[to][0].radius;
            world.sim.at(config.window.begin + when,
                         [&cpe, dhcp_b, radius_b, wan_b](net::TimePoint) {
                             cpe.switch_backend(dhcp_b, radius_b, wan_b);
                         });

            ProbeTruth truth;
            truth.probe = probe_id;
            truth.asn = isp_a.asn;
            truth.cohort = 0;
            truth.protocol = cohort_a.protocol;
            truth.mover = true;
            truth.mover_second_asn = isp_b.asn;
            result.truths.push_back(std::move(truth));

            atlas::ProbeMetadata meta;
            meta.probe = probe_id;
            meta.version = probe_config.version;
            meta.country_code = isp_a.countries.empty() ? "DE" : isp_a.countries.front();
            emit.add_probe(meta);
        }
    }

    // -- firmware -------------------------------------------------------------
    for (net::TimePoint release : config.firmware_releases)
        world.controller.schedule_firmware_release(release);

    // -- component fault schedules --------------------------------------------
    // Generated once per component, deterministically; scheduling order
    // cannot perturb the draws (each schedule has its own stream).
    if (faults != nullptr) {
        obs::Counter& dhcp_crashes = obs::counter("faults.dhcp_server.crashes");
        obs::Counter& radius_crashes =
            obs::counter("faults.radius_server.crashes");
        obs::Counter& exhaustions = obs::counter("faults.pool.exhaustions");
        obs::Counter& power_cycles = obs::counter("faults.cpe.power_cycles");

        std::uint64_t index = 0;
        for (auto& server : world.dhcp_servers) {
            // A DHCP server crash is silent for subscribers: held leases
            // keep working, and clients meet the dead server (as silence)
            // at their next exchange.
            for (const auto& event : faults->crash_schedule(
                     sim::FaultSite::DhcpServer, index, config.window)) {
                world.sim.at(event.at, [&server, &dhcp_crashes,
                                        amnesia = event.amnesia](net::TimePoint) {
                    dhcp_crashes.inc();
                    server.crash(amnesia);
                });
                world.sim.at(event.at + event.downtime,
                             [&server](net::TimePoint) { server.restart(); });
            }
            ++index;
        }
        index = 0;
        for (auto& server : world.radius_servers) {
            // A BRAS/RADIUS crash takes the access network down for its
            // subscribers: sessions drop (their Accounting-Stops go
            // nowhere — the server is dead) and redial on restore.
            std::vector<atlas::Cpe*> attached;
            if (auto it = cpes_by_radius.find(&server);
                it != cpes_by_radius.end())
                attached = it->second;
            for (const auto& event : faults->crash_schedule(
                     sim::FaultSite::RadiusServer, index, config.window)) {
                world.sim.at(event.at,
                             [&server, &radius_crashes, attached,
                              amnesia = event.amnesia](net::TimePoint) {
                                 radius_crashes.inc();
                                 server.crash(amnesia);
                                 for (atlas::Cpe* cpe : attached)
                                     cpe->net_fail(
                                         sim::CauseSite::FaultRadiusCrash);
                             });
                world.sim.at(event.at + event.downtime,
                             [&server, attached](net::TimePoint) {
                                 server.restart();
                                 for (atlas::Cpe* cpe : attached)
                                     cpe->net_restore();
                             });
            }
            ++index;
        }
        index = 0;
        for (auto& pool : world.pools) {
            for (const auto& window : faults->exhaustion_schedule(
                     index, config.window)) {
                world.sim.at(window.at, [&pool, &exhaustions](net::TimePoint) {
                    exhaustions.inc();
                    pool.set_fault_exhausted(true);
                });
                world.sim.at(window.at + window.duration, [&pool](net::TimePoint) {
                    pool.set_fault_exhausted(false);
                });
            }
            ++index;
        }
        const auto storms = faults->storm_schedule(config.window);
        for (std::size_t s = 0; s < storms.size(); ++s) {
            std::uint64_t cpe_index = 0;
            for (auto& cpe : world.cpes) {
                if (auto hit = faults->storm_hit(s, cpe_index)) {
                    world.sim.at(storms[s] + hit->offset,
                                 [&cpe, &power_cycles](net::TimePoint) {
                                     power_cycles.inc();
                                     cpe.power_fail(sim::CauseSite::FaultStorm);
                                 });
                    world.sim.at(storms[s] + hit->offset + hit->downtime,
                                 [&cpe](net::TimePoint) { cpe.power_restore(); });
                }
                ++cpe_index;
            }
        }
        if (!storms.empty())
            DYNADDR_LOG(Info, scenario, "fault layer scheduled ",
                        storms.size(), " power-cycle storms");
    }

    // -- run -------------------------------------------------------------------
    const std::uint64_t run_start_us = obs::trace_now_us();
    if (obs::trace_enabled())
        obs::record_complete_event("scenario.build", "scenario",
                                   build_start_us,
                                   run_start_us - build_start_us);
    world.sim.run_until(config.window.end);
    result.sim_events = world.sim.executed();
    const std::uint64_t emit_start_us = obs::trace_now_us();
    if (obs::trace_enabled())
        obs::record_complete_event("scenario.sim_run", "scenario",
                                   run_start_us, emit_start_us - run_start_us);
    DYNADDR_LOG(Info, scenario, "simulation ran ", result.sim_events,
                " events");

    // A log scrape at window end sees still-open connections too.
    for (auto& probe : world.probes) probe.flush_open_connection(config.window.end);

    for (auto& timeline : world.timelines) timeline.finalize(config.window.end);

    if (config.kroot) {
        for (const auto& timeline : world.timelines)
            for (const auto& record : atlas::emit_kroot_records(
                     timeline, config.window, *config.kroot,
                     root.child("kroot").child(timeline.probe())))
                emit.add_kroot(record);
    }

    // -- special probes ---------------------------------------------------------
    auto add_specials = [&](int count, atlas::SpecialBehaviour behaviour,
                            const std::vector<std::string>& tags) {
        for (int k = 0; k < count; ++k) {
            auto sp_rng = root.child("special").child(
                (std::uint64_t(int(behaviour)) << 32) | std::uint64_t(k));
            atlas::SpecialProbeSpec spec;
            spec.id = next_probe++;
            spec.behaviour = behaviour;
            // Unannounced test range; these probes are filtered before any
            // AS mapping happens.
            spec.base_address =
                net::IPv4Address{std::uint32_t(0xC6120000u) |  // 198.18.0.0
                                 std::uint32_t(sp_rng.uniform_int(0, 0xFFFF))};
            // ~90 % of v6-capable hosts run RFC 4941 privacy extensions
            // (Plonka & Berger's ephemeral fraction, cited by the paper);
            // dual-stack probes also reconnect often, as the paper notes.
            spec.v6_privacy_extensions = sp_rng.bernoulli(0.9);
            if (behaviour == atlas::SpecialBehaviour::DualStack ||
                behaviour == atlas::SpecialBehaviour::Ipv6Only)
                spec.mean_session = net::Duration::hours(8);
            auto log = atlas::generate_special_probe_log(spec, config.window,
                                                         sp_rng.child("log"));
            for (const auto& entry : log) emit.add_connection(entry);
            atlas::ProbeMetadata meta;
            meta.probe = spec.id;
            meta.version = atlas::ProbeVersion::V3;
            meta.country_code = kSpecialCountries[sp_rng.uniform_int(
                0, std::int64_t(std::size(kSpecialCountries)) - 1)];
            meta.tags = tags;
            emit.add_probe(meta);

            ProbeTruth truth;
            truth.probe = spec.id;
            truth.special = true;
            result.truths.push_back(std::move(truth));
        }
    };
    const SpecialMix& mix = config.specials;
    add_specials(mix.never_changed, atlas::SpecialBehaviour::NeverChanged, {});
    add_specials(mix.dual_stack, atlas::SpecialBehaviour::DualStack, {});
    add_specials(mix.ipv6_only, atlas::SpecialBehaviour::Ipv6Only, {});
    add_specials(mix.tagged_alternating,
                 atlas::SpecialBehaviour::MultihomedAlternating, {"multihomed"});
    add_specials(mix.tagged_stable, atlas::SpecialBehaviour::NeverChanged,
                 {"datacentre"});
    add_specials(mix.untagged_alternating,
                 atlas::SpecialBehaviour::MultihomedAlternating, {});
    add_specials(mix.testing_then_stable,
                 atlas::SpecialBehaviour::TestingAddressThenStable, {});

    // -- RADIUS ground truth ------------------------------------------------
    for (std::size_t i = 0; i < config.isps.size(); ++i) {
        for (const auto& backend : backends[i]) {
            if (backend.radius == nullptr) continue;
            auto& sink = result.radius_records[config.isps[i].asn];
            const auto& records = backend.radius->records();
            sink.insert(sink.end(), records.begin(), records.end());
        }
    }

    // -- ground-truth timelines ----------------------------------------------
    result.timelines.assign(world.timelines.begin(), world.timelines.end());

    result.bundle.sort();
    if (obs::trace_enabled())
        obs::record_complete_event("scenario.emit", "scenario", emit_start_us,
                                   obs::trace_now_us() - emit_start_us);
    obs::counter("scenario.runs").inc();
    obs::counter("scenario.sim_events").inc(result.sim_events);
    // Freeze the capacity figures while every subsystem is still alive —
    // this is the snapshot --mem-report writes after teardown.
    obs::mem_capture_final();
    obs::progress_end_plan();
    return result;
}

}  // namespace dynaddr::isp
