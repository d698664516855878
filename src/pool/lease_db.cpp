#include "pool/lease_db.hpp"

#include <algorithm>
#include <string>

#include "netcore/error.hpp"
#include "netcore/obs/metrics.hpp"
#include "netcore/rng.hpp"

namespace dynaddr::pool {

namespace {

struct LeaseMetrics {
    obs::Counter& granted = obs::counter("lease.granted");
    obs::Counter& revoked = obs::counter("lease.revoked");
    obs::Counter& expired = obs::counter("lease.expired");
    obs::Gauge& active = obs::gauge("lease.active");
};

LeaseMetrics& lease_metrics() {
    static LeaseMetrics metrics;
    return metrics;
}

constexpr std::size_t kInitialCapacity = 16;  // power of two

/// A key's home slot in a table of mask + 1 slots.
std::size_t home_slot(std::uint64_t key, std::size_t mask) {
    return rng::splitmix64(key) & mask;
}

}  // namespace

LeaseDb::LeaseDb()
    : clients_(kInitialCapacity), addrs_(kInitialCapacity) {}

LeaseDb::~LeaseDb() {
    lease_metrics().active.add(-std::int64_t(reported_active_));
}

void LeaseDb::sync_gauge() {
    lease_metrics().active.add(std::int64_t(size()) -
                               std::int64_t(reported_active_));
    reported_active_ = size();
    mem_.report(clients_.capacity() * sizeof(ClientSlot) +
                    addrs_.capacity() * sizeof(AddrSlot),
                live_);
}

std::uint32_t LeaseDb::client_index(ClientId client) const {
    const std::size_t mask = clients_.size() - 1;
    for (std::size_t i = home_slot(client, mask);; i = (i + 1) & mask) {
        const ClientSlot& slot = clients_[i];
        if (!slot.used) return kNil;
        if (slot.lease.client == client) return std::uint32_t(i);
    }
}

std::uint32_t LeaseDb::client_record(ClientId client) {
    if ((client_used_ + 1) * 4 > clients_.size() * 3) grow_clients();
    const std::size_t mask = clients_.size() - 1;
    for (std::size_t i = home_slot(client, mask);; i = (i + 1) & mask) {
        ClientSlot& slot = clients_[i];
        if (!slot.used) {
            slot.used = true;
            slot.lease.client = client;
            ++client_used_;
            return std::uint32_t(i);
        }
        if (slot.lease.client == client) return std::uint32_t(i);
    }
}

void LeaseDb::grow_clients() {
    std::vector<ClientSlot> old(clients_.size() * 2);
    old.swap(clients_);
    const std::uint32_t old_head = head_;
    head_ = tail_ = kNil;
    client_used_ = 0;
    for (const ClientSlot& slot : old)
        if (slot.used && !slot.leased)
            clients_[client_record(slot.lease.client)] = slot;
    // Leased records in list order, so the grant order survives.
    for (std::uint32_t i = old_head; i != kNil; i = old[i].next) {
        const std::uint32_t at = client_record(old[i].lease.client);
        clients_[at] = old[i];
        link_tail(at);
    }
}

const LeaseDb::AddrSlot* LeaseDb::addr_slot(net::IPv4Address addr) const {
    const std::size_t mask = addrs_.size() - 1;
    for (std::size_t i = home_slot(addr.value(), mask);; i = (i + 1) & mask) {
        const AddrSlot& slot = addrs_[i];
        if (slot.state == SlotState::Empty) return nullptr;
        if (slot.state == SlotState::Occupied && slot.addr == addr) return &slot;
    }
}

LeaseDb::AddrSlot& LeaseDb::addr_slot_for_insert(net::IPv4Address addr) {
    const std::size_t mask = addrs_.size() - 1;
    AddrSlot* tombstone = nullptr;
    for (std::size_t i = home_slot(addr.value(), mask);; i = (i + 1) & mask) {
        AddrSlot& slot = addrs_[i];
        if (slot.state == SlotState::Occupied && slot.addr == addr) return slot;
        if (slot.state == SlotState::Tombstone && !tombstone) tombstone = &slot;
        if (slot.state == SlotState::Empty) {
            if (tombstone) return *tombstone;
            ++addr_used_;
            return slot;
        }
    }
}

void LeaseDb::addr_slot_erase(net::IPv4Address addr) {
    const std::size_t mask = addrs_.size() - 1;
    for (std::size_t i = home_slot(addr.value(), mask);; i = (i + 1) & mask) {
        AddrSlot& slot = addrs_[i];
        if (slot.state == SlotState::Empty) return;
        if (slot.state == SlotState::Occupied && slot.addr == addr) {
            slot.state = SlotState::Tombstone;
            return;
        }
    }
}

void LeaseDb::rehash_addrs() {
    // Keeps load (occupied + tombstones) under 3/4: rebuilding drops
    // tombstones, and doubles only when genuinely full.
    std::vector<AddrSlot> old(
        (live_ + 1) * 4 > addrs_.size() * 3 ? addrs_.size() * 2 : addrs_.size());
    old.swap(addrs_);
    addr_used_ = 0;
    for (const AddrSlot& slot : old)
        if (slot.state == SlotState::Occupied) addr_slot_for_insert(slot.addr) = slot;
}

void LeaseDb::link_tail(std::uint32_t index) {
    ClientSlot& slot = clients_[index];
    slot.prev = tail_;
    slot.next = kNil;
    (tail_ == kNil ? head_ : clients_[tail_].next) = index;
    tail_ = index;
}

void LeaseDb::unlink(std::uint32_t index) {
    const ClientSlot& slot = clients_[index];
    (slot.prev == kNil ? head_ : clients_[slot.prev].next) = slot.next;
    (slot.next == kNil ? tail_ : clients_[slot.next].prev) = slot.prev;
}

void LeaseDb::drop_lease(std::uint32_t index) {
    ClientSlot& slot = clients_[index];
    unlink(index);
    addr_slot_erase(slot.lease.address);
    slot.leased = false;
    --live_;
}

void LeaseDb::grant(const Lease& lease) {
    if (const AddrSlot* taken = addr_slot(lease.address);
        taken && taken->client != lease.client)
        throw Error("address " + lease.address.to_string() +
                    " already leased to another client");
    if (tail_ != kNil && lease.expiry < clients_[tail_].lease.expiry)
        throw Error("lease for client " + std::to_string(lease.client) +
                    " expires before the latest grant");
    if ((addr_used_ + 1) * 4 > addrs_.size() * 3) rehash_addrs();
    const std::uint32_t index = client_record(lease.client);
    ClientSlot& slot = clients_[index];
    if (slot.leased) {
        // Refresh: drop the previous address mapping and list position.
        unlink(index);
        addr_slot_erase(slot.lease.address);
    } else {
        slot.leased = true;
        slot.held_since = lease.granted;
        ++live_;
    }
    slot.lease = lease;
    slot.absent = false;
    link_tail(index);
    AddrSlot& addr = addr_slot_for_insert(lease.address);
    addr.state = SlotState::Occupied;
    addr.addr = lease.address;
    addr.client = lease.client;
    lease_metrics().granted.inc();
    sync_gauge();
}

std::optional<Lease> LeaseDb::revoke(ClientId client) {
    const std::uint32_t index = client_index(client);
    if (index == kNil || !clients_[index].leased) return std::nullopt;
    const Lease lease = clients_[index].lease;
    drop_lease(index);
    lease_metrics().revoked.inc();
    sync_gauge();
    return lease;
}

std::optional<Lease> LeaseDb::find(ClientId client) const {
    const std::uint32_t index = client_index(client);
    if (index == kNil || !clients_[index].leased) return std::nullopt;
    return clients_[index].lease;
}

std::optional<Lease> LeaseDb::find_by_address(net::IPv4Address addr) const {
    const AddrSlot* slot = addr_slot(addr);
    if (!slot) return std::nullopt;
    return find(slot->client);
}

std::optional<net::TimePoint> LeaseDb::held_since(ClientId client) const {
    const std::uint32_t index = client_index(client);
    if (index == kNil || !clients_[index].leased) return std::nullopt;
    return clients_[index].held_since;
}

std::optional<net::TimePoint> LeaseDb::absent_since(ClientId client) const {
    const std::uint32_t index = client_index(client);
    if (index == kNil || !clients_[index].absent) return std::nullopt;
    return clients_[index].absent_since;
}

void LeaseDb::mark_absent(ClientId client, net::TimePoint t) {
    ClientSlot& slot = clients_[client_record(client)];
    slot.absent = true;
    slot.absent_since = t;
    sync_gauge();
}

std::vector<Lease> LeaseDb::expire_until(net::TimePoint now) {
    std::vector<Lease> expired;
    while (head_ != kNil && clients_[head_].lease.expiry <= now) {
        ClientSlot& slot = clients_[head_];
        expired.push_back(slot.lease);
        slot.absent = true;
        slot.absent_since = slot.lease.expiry;
        drop_lease(head_);
    }
    if (!expired.empty()) {
        lease_metrics().expired.inc(expired.size());
        sync_gauge();
    }
    return expired;
}

std::optional<net::TimePoint> LeaseDb::next_expiry() const {
    if (head_ == kNil) return std::nullopt;
    return clients_[head_].lease.expiry;
}

std::vector<Lease> LeaseDb::all() const {
    std::vector<Lease> leases;
    leases.reserve(live_);
    for (const ClientSlot& slot : clients_)
        if (slot.leased) leases.push_back(slot.lease);
    std::sort(leases.begin(), leases.end(),
              [](const Lease& a, const Lease& b) { return a.client < b.client; });
    return leases;
}

}  // namespace dynaddr::pool
