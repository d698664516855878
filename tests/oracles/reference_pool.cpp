#include "oracles/reference_pool.hpp"

#include <algorithm>
#include <cmath>

#include "netcore/error.hpp"

namespace dynaddr::pool {

ReferenceAddressPool::ReferenceAddressPool(PoolConfig config, rng::Stream rng)
    : config_(std::move(config)), rng_(rng) {
    if (config_.prefixes.empty()) throw Error("address pool needs prefixes");
    for (std::size_t i = 0; i < config_.prefixes.size(); ++i)
        for (std::size_t j = i + 1; j < config_.prefixes.size(); ++j)
            if (config_.prefixes[i].contains(config_.prefixes[j]) ||
                config_.prefixes[j].contains(config_.prefixes[i]))
                throw Error("address pool prefixes overlap: " +
                            config_.prefixes[i].to_string() + " and " +
                            config_.prefixes[j].to_string());
    free_by_prefix_.resize(config_.prefixes.size());
    prefix_enabled_.assign(config_.prefixes.size(), true);
    for (std::size_t index : config_.initially_disabled) {
        if (index >= config_.prefixes.size())
            throw Error("initially_disabled index out of range");
        prefix_enabled_[index] = false;
    }
    for (std::size_t p = 0; p < config_.prefixes.size(); ++p) {
        if (!prefix_enabled_[p]) continue;
        const auto& prefix = config_.prefixes[p];
        auto& bucket = free_by_prefix_[p];
        bucket.reserve(prefix.size());
        for (std::uint64_t i = 0; i < prefix.size(); ++i) {
            free_pos_.emplace(prefix.at(i), std::pair{p, bucket.size()});
            bucket.push_back(prefix.at(i));
        }
        total_free_ += bucket.size();
    }
}

void ReferenceAddressPool::retire_prefix(std::size_t index) {
    if (index >= config_.prefixes.size()) throw Error("prefix index out of range");
    if (!prefix_enabled_[index]) return;
    prefix_enabled_[index] = false;
    auto& bucket = free_by_prefix_[index];
    for (const auto addr : bucket) free_pos_.erase(addr);
    total_free_ -= bucket.size();
    bucket.clear();
}

void ReferenceAddressPool::enable_prefix(std::size_t index) {
    if (index >= config_.prefixes.size()) throw Error("prefix index out of range");
    if (prefix_enabled_[index]) return;
    prefix_enabled_[index] = true;
    const auto& prefix = config_.prefixes[index];
    auto& bucket = free_by_prefix_[index];
    for (std::uint64_t i = 0; i < prefix.size(); ++i) {
        const auto addr = prefix.at(i);
        if (holder_by_addr_.contains(addr)) continue;  // survived retirement
        free_pos_.emplace(addr, std::pair{index, bucket.size()});
        bucket.push_back(addr);
        ++total_free_;
    }
}

bool ReferenceAddressPool::is_retired(net::IPv4Address addr) const {
    const int p = prefix_index_of(addr);
    return p >= 0 && !prefix_enabled_[std::size_t(p)];
}

std::optional<net::IPv4Address> ReferenceAddressPool::allocate(
    ClientId client, net::TimePoint now, std::optional<net::IPv4Address> hint,
    std::optional<net::TimePoint> absent_since) {
    if (auto held = address_of(client)) return held;
    if (fault_exhausted_) return std::nullopt;

    std::optional<net::IPv4Address> previous;
    if (auto it = remembered_binding_.find(client); it != remembered_binding_.end())
        previous = it->second;

    if (config_.strategy == AllocationStrategy::Sticky) {
        const net::Duration absent =
            absent_since ? now - *absent_since : net::Duration{0};
        for (auto candidate : {hint, previous}) {
            if (!candidate || !is_free(*candidate)) continue;
            if (prefix_index_of(*candidate) < 0) continue;  // not our space
            if (!binding_survives(absent)) break;  // someone else took it
            take(*candidate, client);
            return candidate;
        }
    }

    std::optional<net::IPv4Address> chosen;
    switch (config_.strategy) {
        case AllocationStrategy::Sticky:
            chosen = pick_random_spread(previous ? previous : hint);
            break;
        case AllocationStrategy::Sequential:
            chosen = pick_sequential();
            break;
        case AllocationStrategy::RandomSpread:
            chosen = pick_random_spread(previous ? previous : hint);
            break;
        case AllocationStrategy::PrefixHop:
            chosen = pick_prefix_hop(previous ? previous : hint);
            break;
    }
    if (!chosen) return std::nullopt;
    take(*chosen, client);
    return chosen;
}

void ReferenceAddressPool::release(ClientId client) {
    auto it = addr_by_holder_.find(client);
    if (it == addr_by_holder_.end()) return;
    const net::IPv4Address addr = it->second;
    addr_by_holder_.erase(it);
    holder_by_addr_.erase(addr);
    remembered_binding_[client] = addr;
    const int p = prefix_index_of(addr);
    if (p < 0) return;  // foreign address: nothing to return
    if (!prefix_enabled_[std::size_t(p)]) return;  // retired: abandon it
    auto& bucket = free_by_prefix_[std::size_t(p)];
    free_pos_.emplace(addr, std::pair{std::size_t(p), bucket.size()});
    bucket.push_back(addr);
    ++total_free_;
}

std::optional<net::IPv4Address> ReferenceAddressPool::address_of(
    ClientId client) const {
    auto it = addr_by_holder_.find(client);
    if (it == addr_by_holder_.end()) return std::nullopt;
    return it->second;
}

void ReferenceAddressPool::forget_binding(ClientId client) {
    remembered_binding_.erase(client);
}

bool ReferenceAddressPool::binding_survives(net::Duration absent) {
    if (config_.churn_per_hour <= 0.0) return true;
    if (absent <= net::Duration{0}) return true;
    const double p_taken =
        1.0 - std::exp(-config_.churn_per_hour * absent.to_hours());
    return !rng_.bernoulli(p_taken);
}

bool ReferenceAddressPool::is_free(net::IPv4Address addr) const {
    return free_pos_.contains(addr);
}

void ReferenceAddressPool::take(net::IPv4Address addr, ClientId client) {
    auto pos_it = free_pos_.find(addr);
    if (pos_it == free_pos_.end()) throw Error("taking non-free address");
    const auto [p, pos] = pos_it->second;
    auto& bucket = free_by_prefix_[p];
    bucket[pos] = bucket.back();
    free_pos_[bucket[pos]] = {p, pos};
    bucket.pop_back();
    free_pos_.erase(addr);
    --total_free_;
    holder_by_addr_.emplace(addr, client);
    addr_by_holder_.emplace(client, addr);
}

std::optional<net::IPv4Address> ReferenceAddressPool::pick_sequential() {
    for (const auto& bucket : free_by_prefix_) {
        if (bucket.empty()) continue;
        return *std::min_element(bucket.begin(), bucket.end());
    }
    return std::nullopt;
}

std::optional<net::IPv4Address> ReferenceAddressPool::pick_random() {
    if (total_free_ == 0) return std::nullopt;
    std::vector<double> weights(free_by_prefix_.size());
    for (std::size_t p = 0; p < free_by_prefix_.size(); ++p)
        weights[p] = double(free_by_prefix_[p].size());
    return pick_in_prefix(rng_.weighted_index(weights));
}

std::optional<net::IPv4Address> ReferenceAddressPool::pick_in_prefix(
    std::size_t index) {
    auto& bucket = free_by_prefix_[index];
    if (bucket.empty()) return std::nullopt;
    return bucket[std::size_t(rng_.uniform_int(0, std::int64_t(bucket.size()) - 1))];
}

std::optional<net::IPv4Address> ReferenceAddressPool::pick_random_spread(
    std::optional<net::IPv4Address> previous) {
    if (previous && config_.locality_bias > 0.0 &&
        rng_.bernoulli(config_.locality_bias)) {
        const int p = prefix_index_of(*previous);
        if (p >= 0)
            if (auto local = pick_in_prefix(std::size_t(p))) return local;
    }
    return pick_random();
}

std::optional<net::IPv4Address> ReferenceAddressPool::pick_prefix_hop(
    std::optional<net::IPv4Address> previous) {
    const int avoid = previous ? prefix_index_of(*previous) : -1;
    if (avoid < 0 || config_.prefixes.size() < 2) return pick_random();
    std::vector<double> weights(free_by_prefix_.size());
    double other_total = 0.0;
    for (std::size_t p = 0; p < free_by_prefix_.size(); ++p) {
        weights[p] = p == std::size_t(avoid) ? 0.0 : double(free_by_prefix_[p].size());
        other_total += weights[p];
    }
    if (other_total <= 0.0) return pick_random();  // only the old prefix has space
    return pick_in_prefix(rng_.weighted_index(weights));
}

int ReferenceAddressPool::prefix_index_of(net::IPv4Address addr) const {
    for (std::size_t i = 0; i < config_.prefixes.size(); ++i)
        if (config_.prefixes[i].contains(addr)) return int(i);
    return -1;
}

void ReferenceLeaseDb::grant(const Lease& lease) {
    auto addr_it = client_by_addr_.find(lease.address);
    if (addr_it != client_by_addr_.end() && addr_it->second != lease.client)
        throw Error("address " + lease.address.to_string() +
                    " already leased to another client");
    if (auto existing = by_client_.find(lease.client); existing != by_client_.end())
        unindex(existing->second);
    by_client_[lease.client] = lease;
    client_by_addr_[lease.address] = lease.client;
    by_expiry_.emplace(lease.expiry, lease.client);
}

std::optional<Lease> ReferenceLeaseDb::revoke(ClientId client) {
    auto it = by_client_.find(client);
    if (it == by_client_.end()) return std::nullopt;
    Lease lease = it->second;
    unindex(lease);
    by_client_.erase(it);
    return lease;
}

std::optional<Lease> ReferenceLeaseDb::find(ClientId client) const {
    auto it = by_client_.find(client);
    if (it == by_client_.end()) return std::nullopt;
    return it->second;
}

std::optional<Lease> ReferenceLeaseDb::find_by_address(net::IPv4Address addr) const {
    auto it = client_by_addr_.find(addr);
    if (it == client_by_addr_.end()) return std::nullopt;
    return find(it->second);
}

std::vector<Lease> ReferenceLeaseDb::expire_until(net::TimePoint now) {
    std::vector<Lease> expired;
    while (!by_expiry_.empty() && by_expiry_.begin()->first <= now) {
        const ClientId client = by_expiry_.begin()->second;
        auto lease_it = by_client_.find(client);
        expired.push_back(lease_it->second);
        unindex(lease_it->second);
        by_client_.erase(lease_it);
    }
    return expired;
}

std::optional<net::TimePoint> ReferenceLeaseDb::next_expiry() const {
    if (by_expiry_.empty()) return std::nullopt;
    return by_expiry_.begin()->first;
}

std::vector<Lease> ReferenceLeaseDb::all() const {
    std::vector<Lease> leases;
    leases.reserve(by_client_.size());
    for (const auto& [client, lease] : by_client_) leases.push_back(lease);
    std::sort(leases.begin(), leases.end(),
              [](const Lease& a, const Lease& b) { return a.client < b.client; });
    return leases;
}

void ReferenceLeaseDb::unindex(const Lease& lease) {
    client_by_addr_.erase(lease.address);
    auto [first, last] = by_expiry_.equal_range(lease.expiry);
    for (auto it = first; it != last; ++it) {
        if (it->second == lease.client) {
            by_expiry_.erase(it);
            break;
        }
    }
}

}  // namespace dynaddr::pool
