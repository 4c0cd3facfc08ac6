// Uniform spatial grid shared by every neighbor-range scan.
//
// Nodes are bucketed into square cells of side `radius`, so any pair
// within one radius lies in the same or an adjacent cell. Both the
// sequential UDG builder and the engine's parallel UDG stage consume the
// same grid, so they enumerate identical candidate sets.
//
// Storage is CSR, not a hash map of per-cell vectors: all slots live in
// three flat columns (node id, x, y) with one offset array delimiting
// the cells, built by a counting sort. Cells are ordered by the Morton
// code of their coordinates, so the 3x3 block a range scan visits maps
// to a handful of nearby column ranges instead of pointer-chased
// buckets scattered across the heap. The gathered x/y columns let the
// squared-distance filter stream one contiguous range per cell
// (SIMD-friendly); node ids ascend within each cell, matching the
// bucket order of the retired map-based grid, so scan outputs are
// unchanged. Cell lookup goes through a small open-addressed table —
// the only non-contiguous touch per cell.
#pragma once

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "geom/vec2.h"
#include "graph/geometric_graph.h"

namespace geospanner::proximity {

using CellCoord = std::pair<long long, long long>;

/// Cell containing point p at the given cell side. Requires
/// in_grid_range(p, cell_side): the quotient is cast to long long.
[[nodiscard]] inline CellCoord cell_of(geom::Point p, double cell_side) noexcept {
    return {static_cast<long long>(std::floor(p.x / cell_side)),
            static_cast<long long>(std::floor(p.y / cell_side))};
}

/// True when p can be bucketed at cell side `radius`: both coordinates
/// are finite and, for a positive radius, |coord| / radius < 2^62, which
/// keeps every cell index and its ±1 neighbors inside long long.
[[nodiscard]] inline bool in_grid_range(geom::Point p, double radius) noexcept {
    constexpr double kMaxCellIndex = 0x1p62;
    if (!std::isfinite(p.x) || !std::isfinite(p.y)) return false;
    return radius <= 0.0 || (std::abs(p.x) / radius < kMaxCellIndex &&
                             std::abs(p.y) / radius < kMaxCellIndex);
}

/// Throws std::invalid_argument unless `radius` is finite and every
/// point is in_grid_range. Both UDG builders (proximity::build_udg,
/// engine::build_udg_staged) run it before bucketing anything.
void require_grid_range(const std::vector<geom::Point>& points, double radius);

/// Hash over cell coordinates. All mixing happens on unsigned 64-bit
/// values (signed multiplication would overflow — UB — for cells beyond
/// ~9e12, i.e. coordinates around 1e13 at unit radius); the two words
/// are combined with splitmix64-style finalization so nearby cells
/// scatter across buckets.
struct CellHash {
    std::size_t operator()(CellCoord c) const noexcept {
        const auto mix = [](std::uint64_t z) noexcept {
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            return z ^ (z >> 31);
        };
        const auto ux = static_cast<std::uint64_t>(c.first);
        const auto uy = static_cast<std::uint64_t>(c.second);
        return static_cast<std::size_t>(mix(mix(ux + 0x9e3779b97f4a7c15ULL) ^ uy));
    }
};

/// Immutable CSR cell grid over a point set (see file header). Mutable
/// bucketing for dynamic topologies lives in dynamic::DynamicCellGrid.
class CompactCellGrid {
  public:
    static constexpr std::uint32_t kNoCell = static_cast<std::uint32_t>(-1);

    CompactCellGrid() = default;

    /// Buckets every node by cell; counting-sort build, O(n log n) in
    /// the Morton ordering of the distinct cells.
    CompactCellGrid(const std::vector<geom::Point>& points, double cell_side);

    [[nodiscard]] double cell_side() const noexcept { return cell_side_; }
    [[nodiscard]] std::size_t cell_count() const noexcept { return cells_.size(); }
    [[nodiscard]] std::size_t node_count() const noexcept { return ids_.size(); }

    /// Morton-ordered index of the cell at `c`, or kNoCell when empty.
    [[nodiscard]] std::uint32_t find_cell(CellCoord c) const noexcept {
        if (table_.empty()) return kNoCell;
        const std::size_t mask = table_.size() - 1;
        std::size_t i = CellHash{}(c) & mask;
        while (used_[i] != 0) {
            if (table_[i].first == c) return table_[i].second;
            i = (i + 1) & mask;
        }
        return kNoCell;
    }

    /// Raw columns. Cell k holds slots [cell_offsets()[k],
    /// cell_offsets()[k+1]); slot ids ascend within a cell; slot_xs /
    /// slot_ys are the coordinates gathered into slot order.
    [[nodiscard]] const std::vector<CellCoord>& cell_coords() const noexcept {
        return cells_;
    }
    [[nodiscard]] const std::vector<std::uint32_t>& cell_offsets() const noexcept {
        return offsets_;
    }
    [[nodiscard]] const std::vector<graph::NodeId>& slot_ids() const noexcept {
        return ids_;
    }
    [[nodiscard]] const std::vector<double>& slot_xs() const noexcept { return xs_; }
    [[nodiscard]] const std::vector<double>& slot_ys() const noexcept { return ys_; }

    /// Calls fn(u) for every node u with u > v and |pu - pv|² <= r2,
    /// scanning the 3x3 cell block around pv one contiguous cell range
    /// at a time (cells in (dx, dy) order, ids ascending within each —
    /// the per-node kernel of UDG construction). Requires the query
    /// radius <= cell_side. Pure read; safe to call concurrently.
    template <typename Fn>
    void for_neighbors_above(geom::Point pv, graph::NodeId v, double r2,
                             Fn&& fn) const {
        const auto [cx, cy] = cell_of(pv, cell_side_);
        for (long long dx = -1; dx <= 1; ++dx) {
            for (long long dy = -1; dy <= 1; ++dy) {
                const std::uint32_t k = find_cell({cx + dx, cy + dy});
                if (k == kNoCell) continue;
                const std::uint32_t end = offsets_[k + 1];
                for (std::uint32_t s = offsets_[k]; s < end; ++s) {
                    const double ddx = xs_[s] - pv.x;
                    const double ddy = ys_[s] - pv.y;
                    if (ddx * ddx + ddy * ddy <= r2 && ids_[s] > v) fn(ids_[s]);
                }
            }
        }
    }

  private:
    double cell_side_ = 1.0;
    std::vector<CellCoord> cells_;          ///< distinct cells, Morton order
    std::vector<std::uint32_t> offsets_;    ///< cell_count()+1 slot bounds
    std::vector<graph::NodeId> ids_;        ///< node id per slot
    std::vector<double> xs_, ys_;           ///< gathered coordinates per slot
    std::vector<std::pair<CellCoord, std::uint32_t>> table_;  ///< open-addressed
    std::vector<char> used_;                ///< table occupancy (pow2 size)
};

}  // namespace geospanner::proximity
