#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "netcore/ipv4.hpp"
#include "netcore/obs/memaccount.hpp"
#include "netcore/rng.hpp"
#include "netcore/time.hpp"

namespace dynaddr::pool {

/// Identifies a subscriber (CPE) within one ISP's pool. In DHCP terms this
/// stands in for the client identifier / chaddr; in PPP terms the login.
using ClientId = std::uint64_t;

/// How an ISP's pool picks the next address for a subscriber.
enum class AllocationStrategy {
    /// Prefer the subscriber's previous address when it is still free —
    /// the RFC 2131 §4.3.1 behaviour the paper expects of DHCP ISPs.
    Sticky,
    /// Lowest free address first, ignoring history.
    Sequential,
    /// Random free address across all pool prefixes, optionally biased
    /// toward the subscriber's previous prefix (`locality_bias`). Models
    /// PPP/RADIUS pools where "neither CPE nor Radius servers remember
    /// addresses" (Maier et al., cited in the paper).
    RandomSpread,
    /// Random free address from a *different* routed prefix than the
    /// subscriber's previous one when possible — the strongest form of the
    /// cross-prefix behaviour the paper measures in Table 7.
    PrefixHop,
};

/// Pool parameters.
struct PoolConfig {
    std::vector<net::IPv4Prefix> prefixes;  ///< disjoint address blocks
    AllocationStrategy strategy = AllocationStrategy::Sticky;
    /// Background address churn from subscribers this simulation does not
    /// model individually: while a sticky subscriber is absent, its old
    /// address is reclaimed by someone else with rate `churn_per_hour`
    /// (exponential). 0 disables reclaiming.
    double churn_per_hour = 0.0;
    /// RandomSpread only: probability that a fresh allocation stays inside
    /// the same prefix as the subscriber's previous address. Tunes the
    /// cross-prefix change fractions of the paper's Table 7.
    double locality_bias = 0.0;
    /// Indices into `prefixes` that start out disabled (no allocations)
    /// until enable_prefix() is called — the "new block" side of an
    /// administrative renumbering.
    std::vector<std::size_t> initially_disabled;
    /// Upper bound on remembered (client, previous address) bindings before
    /// the pool starts pruning bindings older than the churn model's
    /// survival horizon (the absence after which the binding would be
    /// reclaimed with probability > 1 - 1e-9 anyway). 0 picks an automatic
    /// bound of max(65536, 4 × pool capacity), far above any population the
    /// current scenarios produce, so pruning never perturbs their rng draw
    /// sequences. With churn_per_hour == 0 bindings survive forever under
    /// the model and are never pruned.
    std::size_t max_remembered_bindings = 0;
};

/// A dynamic address pool for one ISP.
///
/// The pool owns the free/allocated bookkeeping; DHCP and PPP servers sit
/// on top. All randomness flows from the Stream handed in at construction,
/// so allocation is deterministic per seed.
///
/// Internally every address is a dense 32-bit *slot* (per-prefix base +
/// offset, OVN ipam-style). Occupancy is a pair of bitmaps (free /
/// allocated) scanned 64 bits at a time; client state lives in a dense
/// integer-handle table so sticky lookups are direct indexing instead of
/// hashing. The per-prefix free *buckets* (vectors of slots with
/// swap-remove) are kept because their push/pop order defines which
/// address a random draw yields — they are determinism-bearing state, the
/// bitmaps and handle tables are the fast indexes over them.
/// tests/oracles/reference_pool.hpp preserves the original hash-map
/// implementation as the behavioural oracle.
class AddressPool {
public:
    /// Throws Error on an empty or overlapping prefix set, or when the
    /// prefixes span 2^32 or more addresses.
    AddressPool(PoolConfig config, rng::Stream rng);

    /// Unwinds this pool's contribution to the process-wide occupancy
    /// gauges (many pools share them; see obs metrics).
    ~AddressPool();

    /// Allocates an address for `client` at time `now`.
    ///
    /// `hint` is the address the client asks for (DHCP REQUEST of a prior
    /// lease). Under Sticky the pool first tries the hint, then the
    /// remembered binding, subject to the churn model: if the client was
    /// absent since `absent_since` the old address may have been handed to
    /// someone else. A candidate is honoured only when it belongs to a
    /// configured, currently-enabled prefix — a hint into a retired
    /// (renumbered-away) block is declined before any state is consulted.
    /// Returns nullopt only when the pool is exhausted.
    std::optional<net::IPv4Address> allocate(
        ClientId client, net::TimePoint now,
        std::optional<net::IPv4Address> hint = std::nullopt,
        std::optional<net::TimePoint> absent_since = std::nullopt);

    /// Releases the client's current address back to the free set. The
    /// binding is remembered for sticky/locality reallocation. No-op when
    /// the client holds nothing.
    void release(ClientId client);

    /// Current address of a client, if any.
    [[nodiscard]] std::optional<net::IPv4Address> address_of(ClientId client) const;

    /// Forgets the remembered binding of a client (models an ISP-side
    /// database flush / administrative renumbering).
    void forget_binding(ClientId client);

    /// Administrative renumbering, ISP side: stops allocating from prefix
    /// `index` and abandons its free addresses. Addresses still held stay
    /// held (their servers evict lazily via is_retired) and are not
    /// returned to the pool on release. Throws Error on a bad index.
    void retire_prefix(std::size_t index);

    /// Brings an initially-disabled (or retired) prefix into service.
    void enable_prefix(std::size_t index);

    /// True when `addr` belongs to a currently-retired/disabled prefix —
    /// servers use this to refuse lease renewals after a renumbering.
    [[nodiscard]] bool is_retired(net::IPv4Address addr) const;

    /// Fault injection: while set, allocate() behaves as if every address
    /// were taken (nullopt). Releases and held addresses are unaffected.
    void set_fault_exhausted(bool exhausted) { fault_exhausted_ = exhausted; }
    [[nodiscard]] bool fault_exhausted() const { return fault_exhausted_; }

    [[nodiscard]] std::size_t free_count() const { return total_free_; }
    [[nodiscard]] std::size_t allocated_count() const { return total_allocated_; }
    [[nodiscard]] std::size_t capacity() const { return total_free_ + allocated_count(); }
    [[nodiscard]] const PoolConfig& config() const { return config_; }

    /// Number of remembered (client, previous address) bindings currently
    /// held — observable for the pruning bound.
    [[nodiscard]] std::size_t remembered_binding_count() const { return binding_count_; }

    /// Fraction of the pool currently allocated.
    [[nodiscard]] double utilization() const;

private:
    static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
    /// Client ids below this live in the dense handle table; the (rare)
    /// rest fall back to a hash map.
    static constexpr ClientId kDenseClientCap = ClientId{1} << 22;

    /// Per-client state, indexed directly by ClientId.
    struct ClientEntry {
        std::uint32_t cur_slot = kNoSlot;  ///< currently-held address
        std::uint32_t rem_slot = kNoSlot;  ///< remembered binding
        std::int64_t rem_stamp = 0;        ///< sim time the binding was made
    };

    /// A picked free address, identified by its position in a prefix's
    /// free bucket. Pickers return the position they drew so the take
    /// skips the dependent free_pos_ lookup (a cold line on big pools).
    struct Picked {
        std::uint32_t pos = 0;
        std::uint32_t prefix = 0;
    };

    /// True when the sticky binding survives an absence of `absent` given
    /// the configured churn rate (random draw).
    bool binding_survives(net::Duration absent);

    /// Takes the free slot at a bucket position; returns the slot.
    std::uint32_t take_picked(Picked pick, ClientId client);
    /// Takes a specific free slot (hint/sticky path) in prefix `prefix`.
    void take_slot(std::uint32_t slot, std::size_t prefix, ClientId client);
    std::optional<Picked> pick_sequential();
    std::optional<Picked> pick_random();
    /// Random free slot within prefix `index`; nullopt when empty.
    std::optional<Picked> pick_in_prefix(std::size_t index);
    /// `prev_prefix`: the prefix index of the subscriber's previous
    /// address, -1 when that address lies outside the pool (a foreign
    /// hint; the locality draw still happens), nullopt when there is no
    /// previous address at all.
    std::optional<Picked> pick_random_spread(std::optional<int> prev_prefix);
    std::optional<Picked> pick_prefix_hop(std::optional<int> prev_prefix);

    /// Index of the configured prefix containing `addr`, or -1.
    [[nodiscard]] int prefix_index_of(net::IPv4Address addr) const;
    [[nodiscard]] std::size_t prefix_of_slot(std::uint32_t slot) const;
    [[nodiscard]] net::IPv4Address addr_of_slot(std::uint32_t slot) const;
    /// Lowest free slot inside prefix `p` via a 64-bit word scan; the
    /// caller guarantees the prefix has free addresses.
    [[nodiscard]] std::uint32_t first_free_slot_in(std::size_t p) const;

    [[nodiscard]] const ClientEntry* entry_find(ClientId client) const;
    [[nodiscard]] ClientEntry* entry_find(ClientId client);
    ClientEntry& entry_ensure(ClientId client);

    /// Drops bindings older than the churn model's survival horizon once
    /// the count passes the configured bound (amortized).
    void maybe_prune_bindings();

    /// Counts one allocate/release toward the amortized metrics flush.
    void note_op();
    /// Pushes pending counter increments and occupancy/free gauge deltas
    /// into the shared obs registry, exactly.
    void flush_metrics();

    PoolConfig config_;
    rng::Stream rng_;
    bool fault_exhausted_ = false;
    /// False for RandomSpread/PrefixHop, which never look a slot up by
    /// value: free_pos_ stores are skipped on their hot paths.
    bool maintain_free_pos_ = true;
    std::vector<bool> prefix_enabled_;
    // First slot of each prefix, ascending; prefix p owns
    // [slot_base_[p], slot_base_[p] + prefixes[p].size()).
    std::vector<std::uint32_t> slot_base_;
    std::uint64_t slot_count_ = 0;
    // Occupancy bitmaps over the slot space, one bit per address.
    std::vector<std::uint64_t> free_words_;
    std::vector<std::uint64_t> alloc_words_;
    // Free slots per prefix with O(1) swap-remove; ordering is
    // determinism-bearing (random picks index into these).
    std::vector<std::vector<std::uint32_t>> free_by_prefix_;
    // slot -> position in its prefix's free bucket (valid while free).
    std::vector<std::uint32_t> free_pos_;
    std::size_t total_free_ = 0;
    std::size_t total_allocated_ = 0;
    // Integer-handle client tables (dense for small ids, map overflow).
    std::vector<ClientEntry> clients_dense_;
    std::unordered_map<ClientId, ClientEntry> clients_sparse_;
    // Remembered-binding bound (satellite: no unbounded growth).
    std::size_t binding_count_ = 0;
    std::size_t binding_bound_ = 0;
    std::size_t binding_trigger_ = 0;
    net::TimePoint last_now_{};
    // Reused by the weighted prefix draws; avoids per-allocate heap churn.
    std::vector<double> weights_scratch_;
    // Obs-registry updates are batched: per-op deltas accumulate here and
    // flush every kMetricsFlushOps mutations (and at construction,
    // retire/enable and destruction, where they are exact). Keeps
    // lock-prefixed atomic RMWs off the per-lease hot path; the shared
    // registry lags a live pool by at most kMetricsFlushOps - 1 ops.
    static constexpr std::uint32_t kMetricsFlushOps = 64;
    std::uint32_t ops_since_flush_ = 0;
    std::uint64_t pending_allocations_ = 0;
    std::uint64_t pending_releases_ = 0;
    std::uint64_t pending_churn_ = 0;
    // Last values pushed into the shared gauges (unwound by ~AddressPool).
    std::size_t reported_occupancy_ = 0;
    std::size_t reported_free_ = 0;
    // Capacity accounting (mem.pool.address_pool, one source per pool);
    // published from flush_metrics, so it shares the same amortization
    // and staleness bound as the occupancy gauges.
    void publish_mem();
    obs::MemRegistration mem_{"pool.address_pool"};
};

}  // namespace dynaddr::pool
