#include "graph/node_lists.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <ostream>

namespace geospanner::graph {

NodeLists NodeLists::from_csr(const std::vector<std::size_t>& offsets,
                              std::vector<NodeId> entries) {
    assert(!offsets.empty() && offsets.front() == 0 && offsets.back() == entries.size());
    NodeLists lists(offsets.size() - 1);
    for (std::size_t v = 0; v + 1 < offsets.size(); ++v) {
        const auto size = static_cast<std::uint32_t>(offsets[v + 1] - offsets[v]);
        lists.slots_[v] = {offsets[v], size, size};
        assert(std::adjacent_find(entries.begin() + offsets[v],
                                  entries.begin() + offsets[v + 1],
                                  std::greater_equal<>()) ==
               entries.begin() + offsets[v + 1]);
    }
    lists.live_ = entries.size();
    lists.slab_ = std::move(entries);
    return lists;
}

NodeLists NodeLists::group_pairs(std::size_t count,
                                 const std::vector<std::pair<NodeId, NodeId>>& pairs,
                                 engine::ThreadPool* pool) {
    std::vector<std::size_t> start(count + 1, 0);
    for (const auto& [a, b] : pairs) ++start[a + 1];
    for (std::size_t a = 0; a < count; ++a) start[a + 1] += start[a];
    std::vector<NodeId> bucketed(pairs.size());
    {
        std::vector<std::size_t> cursor(start.begin(), start.end() - 1);
        for (const auto& [a, b] : pairs) bucketed[cursor[a]++] = b;
    }
    return gather(pool, count, [&](std::size_t a, std::vector<NodeId>& out) {
        const auto first = static_cast<std::ptrdiff_t>(out.size());
        out.insert(out.end(), bucketed.begin() + static_cast<std::ptrdiff_t>(start[a]),
                   bucketed.begin() + static_cast<std::ptrdiff_t>(start[a + 1]));
        std::sort(out.begin() + first, out.end());
        out.erase(std::unique(out.begin() + first, out.end()), out.end());
    });
}

NodeId NodeLists::append_list() {
    slots_.emplace_back();
    return static_cast<NodeId>(slots_.size() - 1);
}

bool NodeLists::insert(NodeId v, NodeId value) {
    const auto list = (*this)[v];
    const auto pos = static_cast<std::size_t>(
        std::lower_bound(list.begin(), list.end(), value) - list.begin());
    if (pos < list.size() && list[pos] == value) return false;
    reserve(v, slots_[v].size + 1);
    Slot& s = slots_[v];
    const auto first = slab_.begin() + static_cast<std::ptrdiff_t>(s.offset);
    std::copy_backward(first + static_cast<std::ptrdiff_t>(pos),
                       first + s.size, first + s.size + 1);
    first[static_cast<std::ptrdiff_t>(pos)] = value;
    ++s.size;
    ++live_;
    return true;
}

bool NodeLists::erase(NodeId v, NodeId value) {
    Slot& s = slots_[v];
    const auto first = slab_.begin() + static_cast<std::ptrdiff_t>(s.offset);
    const auto last = first + s.size;
    const auto it = std::lower_bound(first, last, value);
    if (it == last || *it != value) return false;
    std::copy(it + 1, last, it);
    --s.size;
    --live_;
    return true;
}

bool NodeLists::contains(NodeId v, NodeId value) const {
    const auto list = (*this)[v];
    return std::binary_search(list.begin(), list.end(), value);
}

void NodeLists::assign(NodeId v, std::span<const NodeId> sorted) {
    assert(std::adjacent_find(sorted.begin(), sorted.end(), std::greater_equal<>()) ==
           sorted.end());
    reserve(v, static_cast<std::uint32_t>(sorted.size()));
    Slot& s = slots_[v];
    std::copy(sorted.begin(), sorted.end(),
              slab_.begin() + static_cast<std::ptrdiff_t>(s.offset));
    live_ = live_ - s.size + sorted.size();
    s.size = static_cast<std::uint32_t>(sorted.size());
}

void NodeLists::reserve(NodeId v, std::uint32_t need) {
    if (need <= slots_[v].capacity) return;
    if (dead_ > live_) compact();
    Slot& s = slots_[v];
    // An empty region holds nothing to move, so it restarts at the end.
    if (s.capacity == 0) s.offset = slab_.size();
    if (s.offset + s.capacity == slab_.size()) {
        // Last region: extend it in place to exactly `need` (the vector
        // amortizes growth), so lists filled in id order come out as
        // exact-capacity CSR.
        slab_.resize(s.offset + need);
        s.capacity = need;
        return;
    }
    const std::uint32_t capacity = std::max({need, 2 * s.capacity, std::uint32_t{4}});
    const std::size_t offset = slab_.size();
    slab_.resize(offset + capacity);
    std::copy_n(slab_.begin() + static_cast<std::ptrdiff_t>(s.offset), s.size,
                slab_.begin() + static_cast<std::ptrdiff_t>(offset));
    dead_ += s.capacity;
    s.offset = offset;
    s.capacity = capacity;
}

void NodeLists::compact() {
    std::vector<NodeId> slab;
    slab.reserve(live_);
    for (Slot& s : slots_) {
        const auto first = slab_.begin() + static_cast<std::ptrdiff_t>(s.offset);
        const std::size_t offset = slab.size();
        slab.insert(slab.end(), first, first + s.size);
        s.offset = offset;
        s.capacity = s.size;
    }
    slab_ = std::move(slab);
    dead_ = 0;
}

bool operator==(const NodeLists& a, const NodeLists& b) {
    if (a.size() != b.size()) return false;
    for (NodeId v = 0; v < a.size(); ++v) {
        if (!std::ranges::equal(a[v], b[v])) return false;
    }
    return true;
}

std::ostream& operator<<(std::ostream& os, const NodeLists& lists) {
    // Bounded like gtest's container printer: enough to locate a diff.
    constexpr std::size_t kMaxLists = 32;
    os << '{';
    for (NodeId v = 0; v < lists.size() && v < kMaxLists; ++v) {
        os << (v == 0 ? "[" : ", [");
        for (std::size_t i = 0; i < lists[v].size(); ++i) {
            os << (i == 0 ? "" : " ") << lists[v][i];
        }
        os << ']';
    }
    if (lists.size() > kMaxLists) os << ", ...";
    return os << '}';
}

}  // namespace geospanner::graph
