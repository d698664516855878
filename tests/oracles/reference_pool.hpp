#pragma once

// The original map-based AddressPool and LeaseDb, kept verbatim (minus the
// obs metrics plumbing) as differential-test oracles for the bitmap IPAM
// and the open-addressing lease table — the same pattern as
// sim::ReferenceEventQueue. These are *specifications*: every rng draw and
// every ordering decision here defines the behaviour the fast
// implementations must reproduce bit for bit. Not used outside tests and
// benches; do not optimize.

#include <map>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "netcore/ipv4.hpp"
#include "netcore/rng.hpp"
#include "netcore/time.hpp"
#include "pool/address_pool.hpp"
#include "pool/lease_db.hpp"

namespace dynaddr::pool {

/// Pre-bitmap AddressPool: per-address hash-map bookkeeping over the same
/// PoolConfig. Identical draw sequence and allocation order by
/// construction; see tests/pool/pool_diff_test.cpp.
class ReferenceAddressPool {
public:
    ReferenceAddressPool(PoolConfig config, rng::Stream rng);

    std::optional<net::IPv4Address> allocate(
        ClientId client, net::TimePoint now,
        std::optional<net::IPv4Address> hint = std::nullopt,
        std::optional<net::TimePoint> absent_since = std::nullopt);

    void release(ClientId client);

    [[nodiscard]] std::optional<net::IPv4Address> address_of(ClientId client) const;

    void forget_binding(ClientId client);

    void retire_prefix(std::size_t index);

    void enable_prefix(std::size_t index);

    [[nodiscard]] bool is_retired(net::IPv4Address addr) const;

    void set_fault_exhausted(bool exhausted) { fault_exhausted_ = exhausted; }
    [[nodiscard]] bool fault_exhausted() const { return fault_exhausted_; }

    [[nodiscard]] std::size_t free_count() const { return total_free_; }
    [[nodiscard]] std::size_t allocated_count() const { return holder_by_addr_.size(); }
    [[nodiscard]] std::size_t capacity() const { return total_free_ + allocated_count(); }
    [[nodiscard]] const PoolConfig& config() const { return config_; }

private:
    bool binding_survives(net::Duration absent);

    [[nodiscard]] bool is_free(net::IPv4Address addr) const;
    void take(net::IPv4Address addr, ClientId client);
    std::optional<net::IPv4Address> pick_sequential();
    std::optional<net::IPv4Address> pick_random();
    std::optional<net::IPv4Address> pick_in_prefix(std::size_t index);
    std::optional<net::IPv4Address> pick_random_spread(
        std::optional<net::IPv4Address> previous);
    std::optional<net::IPv4Address> pick_prefix_hop(
        std::optional<net::IPv4Address> previous);

    [[nodiscard]] int prefix_index_of(net::IPv4Address addr) const;

    PoolConfig config_;
    rng::Stream rng_;
    bool fault_exhausted_ = false;
    std::vector<bool> prefix_enabled_;
    std::vector<std::vector<net::IPv4Address>> free_by_prefix_;
    std::unordered_map<net::IPv4Address, std::pair<std::size_t, std::size_t>> free_pos_;
    std::size_t total_free_ = 0;
    std::unordered_map<net::IPv4Address, ClientId> holder_by_addr_;
    std::unordered_map<ClientId, net::IPv4Address> addr_by_holder_;
    std::unordered_map<ClientId, net::IPv4Address> remembered_binding_;
};

/// Pre-open-addressing LeaseDb: unordered_maps plus a std::multimap expiry
/// index. Defines expiry ordering: by expiry time, ties in grant order.
class ReferenceLeaseDb {
public:
    ReferenceLeaseDb() = default;
    ReferenceLeaseDb(const ReferenceLeaseDb&) = delete;
    ReferenceLeaseDb& operator=(const ReferenceLeaseDb&) = delete;

    void grant(const Lease& lease);
    std::optional<Lease> revoke(ClientId client);
    [[nodiscard]] std::optional<Lease> find(ClientId client) const;
    [[nodiscard]] std::optional<Lease> find_by_address(net::IPv4Address addr) const;
    std::vector<Lease> expire_until(net::TimePoint now);
    [[nodiscard]] std::optional<net::TimePoint> next_expiry() const;
    [[nodiscard]] std::vector<Lease> all() const;
    [[nodiscard]] std::size_t size() const { return by_client_.size(); }

private:
    void unindex(const Lease& lease);

    std::unordered_map<ClientId, Lease> by_client_;
    std::unordered_map<net::IPv4Address, ClientId> client_by_addr_;
    std::multimap<net::TimePoint, ClientId> by_expiry_;
};

}  // namespace dynaddr::pool
