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

/// Tracks active leases with an expiry index, the server-side state a
/// DHCP server keeps. At most one lease per client and per address.
///
/// Storage is a pair of open-addressing tables (client -> lease record,
/// address -> client) with linear probing, plus a binary min-heap over
/// (expiry, grant sequence) for the expiry index. Heap entries are
/// invalidated lazily: each grant stamps the record with a fresh sequence
/// number, and stale heap entries are skipped on pop. Expiry order is by
/// expiry time with ties in grant order — exactly the old std::multimap
/// semantics (see ReferenceLeaseDb in tests/oracles/reference_pool.hpp,
/// the differential-test oracle).
class LeaseDb {
public:
    LeaseDb();
    /// Unwinds this database's contribution to the shared lease.active
    /// gauge (see obs metrics).
    ~LeaseDb();
    LeaseDb(const LeaseDb&) = delete;
    LeaseDb& operator=(const LeaseDb&) = delete;

    /// Inserts or refreshes the lease for (client, address). Throws Error
    /// when the address is actively leased to a different client.
    void grant(const Lease& lease);

    /// Drops the client's lease, if any. Returns the removed lease.
    std::optional<Lease> revoke(ClientId client);

    /// The client's active lease.
    [[nodiscard]] std::optional<Lease> find(ClientId client) const;

    /// The lease on an address.
    [[nodiscard]] std::optional<Lease> find_by_address(net::IPv4Address addr) const;

    /// Removes and returns every lease with expiry <= now, earliest first.
    std::vector<Lease> expire_until(net::TimePoint now);

    /// Time of the earliest expiry, if any lease is active.
    [[nodiscard]] std::optional<net::TimePoint> next_expiry() const;

    /// Every active lease, ordered by client id (deterministic).
    [[nodiscard]] std::vector<Lease> all() const;

    [[nodiscard]] std::size_t size() const { return live_; }

private:
    enum class SlotState : std::uint8_t { Empty, Occupied, Tombstone };

    struct ClientSlot {
        Lease lease;
        std::uint64_t seq = 0;  ///< grant sequence; matches live heap entry
        SlotState state = SlotState::Empty;
    };

    struct AddrSlot {
        net::IPv4Address addr;
        ClientId client = 0;
        SlotState state = SlotState::Empty;
    };

    struct HeapEntry {
        net::TimePoint expiry;
        std::uint64_t seq = 0;
        ClientId client = 0;

        // Min-heap order: earliest expiry first, grant order on ties.
        [[nodiscard]] bool after(const HeapEntry& o) const {
            return expiry != o.expiry ? expiry > o.expiry : seq > o.seq;
        }
    };

    [[nodiscard]] const ClientSlot* client_slot(ClientId client) const;
    ClientSlot& client_slot_for_insert(ClientId client);
    void client_slot_erase(ClientId client);
    [[nodiscard]] const AddrSlot* addr_slot(net::IPv4Address addr) const;
    AddrSlot& addr_slot_for_insert(net::IPv4Address addr);
    void addr_slot_erase(net::IPv4Address addr);
    void maybe_grow();

    void heap_push(HeapEntry entry);
    /// Drops stale heap entries off the top; compacts when the heap holds
    /// mostly garbage. Logically const (the heap is an index, not state).
    void heap_settle() const;

    /// Pushes this database's active-lease delta into the shared gauge.
    void sync_gauge();

    std::vector<ClientSlot> clients_;
    std::vector<AddrSlot> addrs_;
    std::size_t live_ = 0;
    std::size_t client_used_ = 0;  ///< occupied + tombstones in clients_
    std::size_t addr_used_ = 0;
    std::uint64_t next_seq_ = 0;
    mutable std::vector<HeapEntry> heap_;
    // Last value pushed into the shared gauge (unwound by ~LeaseDb).
    std::size_t reported_active_ = 0;
    // Capacity accounting (mem.pool.lease_db), published from sync_gauge
    // — every grant/revoke/expire batch, i.e. exactly when the tables can
    // have changed shape.
    obs::MemRegistration mem_{"pool.lease_db"};
};

}  // namespace dynaddr::pool
