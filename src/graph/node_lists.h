// Per-node sorted id lists in one flat slab: the adjacency of a
// GeometricGraph and the dominator lists of a ClusterState.
//
// Layout: a slot {offset, size, capacity} per list plus one
// std::vector<NodeId> slab holding every list's entries. A sorted insert
// shifts in place while the list has room; a full list moves to the
// slab's end with doubled capacity (or grows in place when it already
// is the last region). Removal shifts in place. The regions abandoned by
// moves are dead; once dead entries outnumber the live ones (the sum of
// list sizes), the next growth first compacts the slab into
// exact-capacity CSR order, the layout from_csr writes. Copying
// therefore copies two flat vectors, with no per-list allocation.
//
// Span contract: operator[] returns a view into the slab. Any insert,
// erase, assign or append_list may move the slab, so it invalidates
// every span previously taken from the same NodeLists, not only the
// span of the list it changed. Copy a list into a local before mutating
// the structure it came from.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <utility>
#include <vector>

#include "engine/thread_pool.h"

namespace geospanner::graph {

using NodeId = std::uint32_t;

/// Sorted, duplicate-free NodeId lists indexed by node.
class NodeLists {
  public:
    NodeLists() = default;
    /// `count` empty lists.
    explicit NodeLists(std::size_t count) : slots_(count) {}

    /// Exact-capacity CSR: list v is entries[offsets[v], offsets[v+1]).
    /// Preconditions: offsets has one more element than there are lists,
    /// starts at 0 and ends at entries.size(); every list is sorted and
    /// duplicate-free.
    [[nodiscard]] static NodeLists from_csr(const std::vector<std::size_t>& offsets,
                                            std::vector<NodeId> entries);

    /// Owner-computes CSR fill: list v is what emit(v, out) appends to
    /// `out` (sorted, duplicate-free), computed on `pool`'s lanes when
    /// given. Same lists at any lane count.
    template <typename Emit>
    [[nodiscard]] static NodeLists gather(engine::ThreadPool* pool, std::size_t count,
                                          Emit&& emit) {
        std::vector<std::size_t> offsets;
        std::vector<NodeId> entries = engine::gather_owned<NodeId>(pool, count, emit, &offsets);
        return from_csr(offsets, std::move(entries));
    }

    /// `count` lists where list a holds every b of a pair (a, b) in
    /// `pairs` (any order, repeats allowed), sorted and deduplicated:
    /// a counting sort by a, then a sort of each bucket on `pool`'s lanes.
    [[nodiscard]] static NodeLists group_pairs(
        std::size_t count, const std::vector<std::pair<NodeId, NodeId>>& pairs,
        engine::ThreadPool* pool = nullptr);

    /// Number of lists.
    [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }

    /// Sum of the list sizes.
    [[nodiscard]] std::size_t entry_count() const noexcept { return live_; }

    /// Slab length: live entries, per-list slack and dead regions — what
    /// a copy copies. Shrinks only when the slab compacts.
    [[nodiscard]] std::size_t slab_size() const noexcept { return slab_.size(); }

    [[nodiscard]] std::span<const NodeId> operator[](NodeId v) const {
        const Slot& s = slots_[v];
        return {slab_.data() + s.offset, s.size};
    }

    /// Appends an empty list and returns its index.
    NodeId append_list();

    /// Inserts `value` into list v keeping it sorted; false if present.
    bool insert(NodeId v, NodeId value);

    /// Removes `value` from list v; false if absent.
    bool erase(NodeId v, NodeId value);

    [[nodiscard]] bool contains(NodeId v, NodeId value) const;

    /// Replaces list v with `sorted` (sorted, duplicate-free).
    void assign(NodeId v, std::span<const NodeId> sorted);

    /// Logical equality: same number of lists with equal contents,
    /// whatever the slab layouts.
    friend bool operator==(const NodeLists& a, const NodeLists& b);

    friend std::ostream& operator<<(std::ostream& os, const NodeLists& lists);

  private:
    struct Slot {
        std::size_t offset = 0;
        std::uint32_t size = 0;
        std::uint32_t capacity = 0;
    };

    /// Makes room for at least `need` entries in list v (may move the
    /// list, grow the slab, or compact it).
    void reserve(NodeId v, std::uint32_t need);
    void compact();

    std::vector<Slot> slots_;
    std::vector<NodeId> slab_;
    std::size_t live_ = 0;  ///< sum of list sizes
    std::size_t dead_ = 0;  ///< slab entries owned by no list
};

}  // namespace geospanner::graph
