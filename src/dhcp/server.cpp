#include "dhcp/server.hpp"

#include "netcore/error.hpp"
#include "netcore/obs/log.hpp"
#include "netcore/obs/metrics.hpp"
#include "netcore/rng.hpp"
#include "sim/cause_ledger.hpp"

DYNADDR_LOG_MODULE(dhcp);

namespace dynaddr::dhcp {

namespace {

/// DHCP message counters across every simulated server.
struct DhcpMetrics {
    obs::Counter& discover = obs::counter("dhcp.discover");
    obs::Counter& offer = obs::counter("dhcp.offer");
    obs::Counter& request = obs::counter("dhcp.request");
    obs::Counter& renew = obs::counter("dhcp.renew");
    obs::Counter& ack = obs::counter("dhcp.ack");
    obs::Counter& nak = obs::counter("dhcp.nak");
    obs::Counter& released = obs::counter("dhcp.released");
    obs::Counter& evicted = obs::counter("dhcp.evicted");
    obs::Counter& expired = obs::counter("dhcp.expired");
};

DhcpMetrics& dhcp_metrics() {
    static DhcpMetrics metrics;
    return metrics;
}

}  // namespace

Server::Server(ServerConfig config, pool::AddressPool& pool, sim::Simulation& sim)
    : config_(config), pool_(&pool), sim_(&sim) {}

net::Duration Server::jittered_max_age(pool::ClientId client,
                                       net::TimePoint hold_started) const {
    const net::Duration max_age = *config_.max_address_age;
    if (config_.max_age_jitter <= 0.0) return max_age;
    // Deterministic per-tenure factor in [1-j, 1+j].
    std::uint64_t state = (std::uint64_t(client) << 32) ^
                          std::uint64_t(hold_started.unix_seconds());
    const double unit = double(rng::splitmix64(state) >> 11) * 0x1.0p-53;
    const double factor = 1.0 + config_.max_age_jitter * (2.0 * unit - 1.0);
    return net::Duration{std::int64_t(double(max_age.count()) * factor)};
}

void Server::crash(bool amnesia) {
    if (!online_) return;
    online_ = false;
    // No process, no expiry sweeps.
    if (sweep_event_) {
        sim_->cancel(*sweep_event_);
        sweep_event_.reset();
    }
    if (amnesia) {
        const net::TimePoint now = sim_->now();
        for (const auto& lease : leases_.all()) {
            sim::cause_note(lease.client, sim::CauseKind::ServerAmnesia,
                            sim::CauseSite::DhcpAmnesiaCrash, now);
            leases_.revoke(lease.client);
            leases_.mark_absent(lease.client, now);
            pool_->release(lease.client);
        }
        DYNADDR_LOG(Warn, dhcp, "server crashed with lease-state amnesia");
    } else {
        DYNADDR_LOG(Warn, dhcp, "server crashed (leases intact)");
    }
}

void Server::restart() {
    if (online_) return;
    online_ = true;
    expire_leases();
    schedule_expiry_sweep();
    DYNADDR_LOG(Info, dhcp, "server restarted");
}

std::optional<Offer> Server::handle_discover(pool::ClientId client) {
    if (!online_) throw Error("DHCP exchange with offline server");
    dhcp_metrics().discover.inc();
    expire_leases();
    // If the client already holds a lease (it may have rebooted and
    // forgotten), offer the same address per §4.3.1 — unless the block
    // was administratively retired.
    if (auto lease = leases_.find(client)) {
        if (!pool_->is_retired(lease->address)) {
            dhcp_metrics().offer.inc();
            return Offer{lease->address, config_.lease_duration};
        }
        sim::cause_note(client, sim::CauseKind::AdminRenumbering,
                        sim::CauseSite::DhcpRetiredPrefix, sim_->now());
        evict(client);
    }
    auto addr = pool_->allocate(client, sim_->now(), std::nullopt,
                                leases_.absent_since(client));
    if (!addr) {
        DYNADDR_LOG(Warn, dhcp, "no address to offer client ", client);
        return std::nullopt;
    }
    dhcp_metrics().offer.inc();
    DYNADDR_LOG(Debug, dhcp, "offer ", addr->to_string(), " to client ",
                client);
    // The OFFER reserves the address; a client that never REQUESTs keeps it
    // reserved until the lease would expire — we simplify by granting at
    // REQUEST time and releasing the reservation if the REQUEST never
    // comes. The pool already holds it for this client either way.
    return Offer{*addr, config_.lease_duration};
}

RequestResult Server::handle_request(pool::ClientId client,
                                     net::IPv4Address requested) {
    if (!online_) throw Error("DHCP exchange with offline server");
    dhcp_metrics().request.inc();
    expire_leases();
    if (pool_->is_retired(requested)) {
        // Administrative renumbering: never re-grant a retired block.
        if (auto held = pool_->address_of(client); held && *held == requested) {
            sim::cause_note(client, sim::CauseKind::AdminRenumbering,
                            sim::CauseSite::DhcpRetiredPrefix, sim_->now());
            evict(client);
        }
        return RequestResult{};
    }
    // Existing lease on the same address: treat as re-request, refresh.
    if (auto lease = leases_.find(client); lease && lease->address == requested)
        return grant(client, requested);
    // Address currently allocated to this client in the pool (fresh OFFER
    // or INIT-REBOOT inside the lease window).
    if (auto held = pool_->address_of(client); held && *held == requested)
        return grant(client, requested);
    // INIT-REBOOT for an address the pool can still give this client.
    auto addr = pool_->allocate(client, sim_->now(), requested,
                                leases_.absent_since(client));
    if (addr && *addr == requested) return grant(client, requested);
    // Couldn't honour the request; a real server NAKs and the client
    // restarts from INIT. If we allocated some other address, return it to
    // the pool so INIT sees a clean slate.
    if (addr) {
        pool_->release(client);
        leases_.mark_absent(client, sim_->now());
    }
    dhcp_metrics().nak.inc();
    DYNADDR_LOG(Debug, dhcp, "nak client ", client, " requesting ",
                requested.to_string());
    return RequestResult{};
}

RequestResult Server::handle_renew(pool::ClientId client, net::IPv4Address addr) {
    if (!online_) throw Error("DHCP exchange with offline server");
    dhcp_metrics().renew.inc();
    expire_leases();
    auto lease = leases_.find(client);
    if (!lease || lease->address != addr) return RequestResult{};
    // Administrative renumbering: the whole block was retired; evict.
    if (pool_->is_retired(addr)) {
        sim::cause_note(client, sim::CauseKind::AdminRenumbering,
                        sim::CauseSite::DhcpRetiredPrefix, sim_->now());
        return evict(client);
    }
    if (config_.max_address_age) {
        const net::TimePoint started = *leases_.held_since(client);
        if (sim_->now() + config_.lease_duration - started >
            jittered_max_age(client, started)) {
            // Administrative age cap: refuse to extend past it.
            sim::cause_note(client, sim::CauseKind::MaxAgeEviction,
                            sim::CauseSite::DhcpMaxAge, sim_->now());
            return evict(client);
        }
    }
    return grant(client, addr);
}

RequestResult Server::evict(pool::ClientId client) {
    // NAK: the client restarts from INIT and the binding is forgotten so
    // it draws a fresh address.
    dhcp_metrics().evicted.inc();
    DYNADDR_LOG(Debug, dhcp, "evict client ", client);
    leases_.revoke(client);
    leases_.mark_absent(client, sim_->now());
    pool_->release(client);
    pool_->forget_binding(client);
    return RequestResult{};
}

void Server::handle_release(pool::ClientId client) {
    if (!online_) throw Error("DHCP exchange with offline server");
    dhcp_metrics().released.inc();
    expire_leases();
    if (leases_.revoke(client)) {
        leases_.mark_absent(client, sim_->now());
        pool_->release(client);
    }
}

std::optional<pool::Lease> Server::lease_of(pool::ClientId client) const {
    return leases_.find(client);
}

RequestResult Server::grant(pool::ClientId client, net::IPv4Address addr) {
    const net::TimePoint now = sim_->now();
    pool::Lease lease{client, addr, now, now + config_.lease_duration};
    leases_.grant(lease);
    schedule_expiry_sweep();
    dhcp_metrics().ack.inc();
    return RequestResult{true, addr, lease.granted, lease.expiry};
}

void Server::expire_leases() {
    for (const auto& lease : leases_.expire_until(sim_->now())) {
        dhcp_metrics().expired.inc();
        pool_->release(lease.client);
    }
}

void Server::schedule_expiry_sweep() {
    // One pending sweep at the earliest expiry keeps pool state current
    // even when no client interaction happens for a long time. The sweep
    // is batched: grants only touch the timer when their expiry precedes
    // the pending sweep, instead of cancelling and rescheduling one event
    // per lease.
    auto next = leases_.next_expiry();
    if (!next) return;
    if (sweep_event_) {
        if (sweep_at_ <= *next) return;  // pending sweep is early enough
        sim_->cancel(*sweep_event_);
    }
    sweep_at_ = *next;
    sweep_event_ = sim_->at(*next, [this](net::TimePoint) {
        sweep_event_.reset();
        expire_leases();
        schedule_expiry_sweep();
    });
}

}  // namespace dynaddr::dhcp
