#pragma once

#include <functional>
#include <optional>

#include "dhcp/messages.hpp"
#include "pool/address_pool.hpp"
#include "pool/lease_db.hpp"
#include "sim/simulation.hpp"

namespace dynaddr::dhcp {

/// DHCP server behaviour knobs.
struct ServerConfig {
    net::Duration lease_duration = net::Duration::hours(4);
    /// When set, the server NAKs renewals once the client has held the
    /// same address this long — an administrative session cap some ISPs
    /// impose even over DHCP. Unset = renew forever (the RFC's intent).
    std::optional<net::Duration> max_address_age;
    /// Relative jitter on the age cap, in [0, 1). Each (client, tenure)
    /// gets a deterministic threshold in max_age·[1-j, 1+j], so
    /// administrative renumbering spreads over weeks instead of forming a
    /// sharp periodic mode — the North American pattern in the paper's
    /// Figure 1.
    double max_age_jitter = 0.0;
};

/// A single-subnet DHCP server backed by an AddressPool.
///
/// Address preservation follows RFC 2131 §4.3.1: the server prefers (1)
/// the client's existing lease, (2) its remembered previous binding, (3)
/// the address in the client's request, in that order — all delegated to
/// the pool's Sticky strategy. Expired leases return their address to the
/// pool, where background churn may hand it to another subscriber.
class Server {
public:
    /// The pool must outlive the server. `sim` drives lease-expiry sweeps.
    Server(ServerConfig config, pool::AddressPool& pool, sim::Simulation& sim);

    /// DISCOVER -> OFFER. Returns nullopt when the pool is exhausted.
    std::optional<Offer> handle_discover(pool::ClientId client);

    /// REQUEST in SELECTING or INIT-REBOOT state: the client asks for a
    /// specific address. ACKs when the address is (still) assignable to
    /// this client, otherwise NAKs.
    RequestResult handle_request(pool::ClientId client, net::IPv4Address requested);

    /// REQUEST in RENEWING/REBINDING state: extend the current lease.
    /// NAKs when the client holds no lease on `addr` or the administrative
    /// age cap is reached.
    RequestResult handle_renew(pool::ClientId client, net::IPv4Address addr);

    /// RELEASE: client gives the address back voluntarily.
    void handle_release(pool::ClientId client);

    /// Whether the server process is up. Exchanges with an offline server
    /// throw — callers (the client, which models the network) must check
    /// first and treat downtime as silence. Always true without fault
    /// injection.
    [[nodiscard]] bool online() const { return online_; }

    /// Fault injection: the server process dies. With `amnesia` the
    /// in-memory lease table is lost — addresses return to the pool (whose
    /// remembered bindings survive, so sticky reallocation tends to re-offer
    /// the same address), and clients renew into a server that has never
    /// heard of them.
    void crash(bool amnesia);

    /// Fault injection: the server comes back and resumes expiry sweeps.
    void restart();

    /// Active lease count.
    [[nodiscard]] std::size_t active_leases() const { return leases_.size(); }

    /// Every active lease (chaos-test invariant checks).
    [[nodiscard]] std::vector<pool::Lease> leases() const { return leases_.all(); }

    /// The lease a client currently holds, if any.
    [[nodiscard]] std::optional<pool::Lease> lease_of(pool::ClientId client) const;

    [[nodiscard]] const ServerConfig& config() const { return config_; }

private:
    RequestResult grant(pool::ClientId client, net::IPv4Address addr);
    /// NAKs the client's lease and forgets its binding (administrative).
    RequestResult evict(pool::ClientId client);
    void expire_leases();
    void schedule_expiry_sweep();
    /// The (deterministically jittered) age cap for one tenure.
    [[nodiscard]] net::Duration jittered_max_age(pool::ClientId client,
                                                 net::TimePoint hold_started) const;

    ServerConfig config_;
    pool::AddressPool* pool_;
    sim::Simulation* sim_;
    /// Every client's state: its lease, when its current hold began (the
    /// administrative age cap) and when it last left (the churn model).
    pool::LeaseDb leases_;
    std::optional<sim::EventId> sweep_event_;
    /// Fire time of the pending sweep event (valid while sweep_event_ is
    /// set); the batching comparison point.
    net::TimePoint sweep_at_;
    bool online_ = true;
};

}  // namespace dynaddr::dhcp
