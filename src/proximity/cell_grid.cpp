#include "proximity/cell_grid.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace geospanner::proximity {

namespace {

/// Spreads the low 32 bits of v over the even bit positions.
std::uint64_t part1by1(std::uint32_t v) noexcept {
    std::uint64_t z = v;
    z = (z | (z << 16)) & 0x0000FFFF0000FFFFULL;
    z = (z | (z << 8)) & 0x00FF00FF00FF00FFULL;
    z = (z | (z << 4)) & 0x0F0F0F0F0F0F0F0FULL;
    z = (z | (z << 2)) & 0x3333333333333333ULL;
    z = (z | (z << 1)) & 0x5555555555555555ULL;
    return z;
}

std::uint64_t morton(std::uint32_t x, std::uint32_t y) noexcept {
    return part1by1(x) | (part1by1(y) << 1);
}

std::size_t pow2_at_least(std::size_t n) noexcept {
    std::size_t cap = 16;
    while (cap < n) cap <<= 1;
    return cap;
}

}  // namespace

void require_grid_range(const std::vector<geom::Point>& points, double radius) {
    if (!std::isfinite(radius)) {
        throw std::invalid_argument("non-finite radius");
    }
    for (std::size_t v = 0; v < points.size(); ++v) {
        if (!in_grid_range(points[v], radius)) {
            throw std::invalid_argument("non-finite or out-of-range coordinate for node " +
                                        std::to_string(v));
        }
    }
}

CompactCellGrid::CompactCellGrid(const std::vector<geom::Point>& points,
                                 double cell_side)
    : cell_side_(cell_side) {
    const std::size_t n = points.size();
    if (n == 0) return;

    // Pass 1: each node's cell, and a dense first-seen id per distinct
    // cell (via a throwaway probe table; the final table is rebuilt in
    // Morton order below).
    std::vector<CellCoord> node_cell(n);
    std::vector<std::uint32_t> node_dense(n);
    std::vector<CellCoord> seen;       // dense id → coord, first-seen order
    std::vector<std::uint32_t> count;  // dense id → population
    table_.assign(pow2_at_least(2 * n), {});
    used_.assign(table_.size(), 0);
    const std::size_t mask = table_.size() - 1;
    for (std::size_t v = 0; v < n; ++v) {
        const CellCoord c = cell_of(points[v], cell_side_);
        node_cell[v] = c;
        std::size_t i = CellHash{}(c) & mask;
        while (used_[i] != 0 && table_[i].first != c) i = (i + 1) & mask;
        if (used_[i] == 0) {
            used_[i] = 1;
            table_[i] = {c, static_cast<std::uint32_t>(seen.size())};
            seen.push_back(c);
            count.push_back(0);
        }
        node_dense[v] = table_[i].second;
        ++count[table_[i].second];
    }

    // Morton-order the distinct cells. Coordinates are offset to the
    // grid's min corner before interleaving; spans beyond 32 bits only
    // degrade the ordering (slot locality), never lookups, which go
    // through the exact-coordinate table.
    const std::size_t c = seen.size();
    long long min_cx = seen[0].first, min_cy = seen[0].second;
    for (const CellCoord& cc : seen) {
        min_cx = std::min(min_cx, cc.first);
        min_cy = std::min(min_cy, cc.second);
    }
    std::vector<std::pair<std::uint64_t, std::uint32_t>> order(c);
    for (std::uint32_t k = 0; k < c; ++k) {
        const auto ux = static_cast<std::uint32_t>(
            static_cast<std::uint64_t>(seen[k].first) -
            static_cast<std::uint64_t>(min_cx));
        const auto uy = static_cast<std::uint32_t>(
            static_cast<std::uint64_t>(seen[k].second) -
            static_cast<std::uint64_t>(min_cy));
        order[k] = {morton(ux, uy), k};
    }
    std::sort(order.begin(), order.end());

    // CSR offsets by counting sort over the ordered cells, then the
    // final exact-match table (coord → Morton rank).
    cells_.resize(c);
    offsets_.assign(c + 1, 0);
    std::vector<std::uint32_t> rank(c);
    for (std::uint32_t k = 0; k < c; ++k) {
        const std::uint32_t dense = order[k].second;
        rank[dense] = k;
        cells_[k] = seen[dense];
        offsets_[k + 1] = offsets_[k] + count[dense];
    }
    std::fill(used_.begin(), used_.end(), 0);
    for (std::uint32_t k = 0; k < c; ++k) {
        std::size_t i = CellHash{}(cells_[k]) & mask;
        while (used_[i] != 0) i = (i + 1) & mask;
        used_[i] = 1;
        table_[i] = {cells_[k], k};
    }

    // Scatter nodes into their slots; v ascends, so ids ascend within
    // each cell — the invariant scan outputs depend on.
    ids_.resize(n);
    xs_.resize(n);
    ys_.resize(n);
    std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
    for (std::size_t v = 0; v < n; ++v) {
        const std::uint32_t slot = cursor[rank[node_dense[v]]]++;
        ids_[slot] = static_cast<graph::NodeId>(v);
        xs_[slot] = points[v].x;
        ys_[slot] = points[v].y;
    }
}

}  // namespace geospanner::proximity
