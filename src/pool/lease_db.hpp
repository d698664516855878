#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "netcore/ipv4.hpp"
#include "netcore/obs/memaccount.hpp"
#include "netcore/time.hpp"
#include "pool/address_pool.hpp"

namespace dynaddr::pool {

/// One active lease.
struct Lease {
    ClientId client = 0;
    net::IPv4Address address;
    net::TimePoint granted;
    net::TimePoint expiry;

    [[nodiscard]] net::Duration duration() const { return expiry - granted; }
};

/// The server-side state a DHCP server keeps per client: the active lease
/// (at most one per client and per address), when the client's current
/// hold began, and when it was last seen leaving.
///
/// Storage is a pair of open-addressing tables with linear probing
/// (client -> record, address -> client). Client records are never
/// erased, so the client table has no tombstones. The leased records form
/// a doubly linked list in grant order, threaded through the client table:
/// a grant or refresh moves its record to the tail, and revoke and expiry
/// unlink it. grant() requires each lease to expire no earlier than the
/// latest live grant, which holds for a server with a fixed lease
/// duration under a clock that never goes back. Grant order is then
/// (expiry, grant order) — exactly the old std::multimap semantics (see
/// ReferenceLeaseDb in tests/oracles/reference_pool.hpp, the
/// differential-test oracle) — and the earliest expiry is the list head.
class LeaseDb {
public:
    LeaseDb();
    /// Unwinds this database's contribution to the shared lease.active
    /// gauge (see obs metrics).
    ~LeaseDb();
    LeaseDb(const LeaseDb&) = delete;
    LeaseDb& operator=(const LeaseDb&) = delete;

    /// Inserts or refreshes the lease for (client, address) and clears the
    /// client's absent_since. Throws Error when the address is actively
    /// leased to a different client, or when the lease expires before the
    /// latest live lease.
    void grant(const Lease& lease);

    /// Drops the client's lease, if any. Returns the removed lease.
    std::optional<Lease> revoke(ClientId client);

    /// The client's active lease.
    [[nodiscard]] std::optional<Lease> find(ClientId client) const;

    /// The lease on an address.
    [[nodiscard]] std::optional<Lease> find_by_address(net::IPv4Address addr) const;

    /// When the client's current continuous lease began: set by the grant
    /// that found it unleased, kept across refreshes. Unset when unleased.
    [[nodiscard]] std::optional<net::TimePoint> held_since(ClientId client) const;

    /// When the client was last seen leaving: its lease's expiry when the
    /// lease ran out, or the time given to mark_absent. Cleared by the
    /// next grant.
    [[nodiscard]] std::optional<net::TimePoint> absent_since(ClientId client) const;

    /// Records that the client left at `t` (release, eviction, a NAK).
    void mark_absent(ClientId client, net::TimePoint t);

    /// Removes and returns every lease with expiry <= now, earliest first,
    /// and marks each client absent since its lease's expiry.
    std::vector<Lease> expire_until(net::TimePoint now);

    /// Time of the earliest expiry, if any lease is active.
    [[nodiscard]] std::optional<net::TimePoint> next_expiry() const;

    /// Every active lease, ordered by client id (deterministic).
    [[nodiscard]] std::vector<Lease> all() const;

    [[nodiscard]] std::size_t size() const { return live_; }

private:
    static constexpr std::uint32_t kNil = ~std::uint32_t(0);

    struct ClientSlot {
        Lease lease;                  ///< lease.client is the key once used
        net::TimePoint held_since;    ///< valid while leased
        net::TimePoint absent_since;  ///< valid while absent
        std::uint32_t prev = kNil;    ///< grant-order list, while leased
        std::uint32_t next = kNil;
        bool used = false;
        bool leased = false;
        bool absent = false;
    };

    enum class SlotState : std::uint8_t { Empty, Occupied, Tombstone };

    struct AddrSlot {
        net::IPv4Address addr;
        ClientId client = 0;
        SlotState state = SlotState::Empty;
    };

    /// Index of the client's record, or kNil.
    [[nodiscard]] std::uint32_t client_index(ClientId client) const;
    /// Index of the client's record, created unleased when new.
    std::uint32_t client_record(ClientId client);
    [[nodiscard]] const AddrSlot* addr_slot(net::IPv4Address addr) const;
    AddrSlot& addr_slot_for_insert(net::IPv4Address addr);
    void addr_slot_erase(net::IPv4Address addr);
    void grow_clients();
    void rehash_addrs();

    void link_tail(std::uint32_t index);
    void unlink(std::uint32_t index);
    /// Ends the lease of the record at `index`.
    void drop_lease(std::uint32_t index);

    /// Pushes this database's active-lease delta into the shared gauge.
    void sync_gauge();

    std::vector<ClientSlot> clients_;
    std::vector<AddrSlot> addrs_;
    std::size_t live_ = 0;
    std::size_t client_used_ = 0;  ///< records in clients_
    std::size_t addr_used_ = 0;    ///< occupied + tombstones in addrs_
    std::uint32_t head_ = kNil;    ///< earliest grant, while any is live
    std::uint32_t tail_ = kNil;    ///< latest grant
    // Last value pushed into the shared gauge (unwound by ~LeaseDb).
    std::size_t reported_active_ = 0;
    // Capacity accounting (mem.pool.lease_db), published from sync_gauge
    // — every grant/revoke/expire batch, i.e. exactly when the tables can
    // have changed shape.
    obs::MemRegistration mem_{"pool.lease_db"};
};

}  // namespace dynaddr::pool
