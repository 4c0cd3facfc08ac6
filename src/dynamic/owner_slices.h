// Per-owner sorted item slices in one flat slab: the patch state of
// dynamic::DynamicSpanner (each dominator's elected CDS links, each
// node's local triangles, each node's LDel¹ triangles).
//
// The state is seeded from a kernel's CSR output (offsets + items) and
// then patched one slice at a time. A replacement that fits the slice's
// capacity overwrites it in place; a larger one moves the slice to the
// slab's end and abandons the old region. Once abandoned entries
// outnumber the live ones, the next move first compacts the slab back
// into CSR order. Spans returned by operator[] are invalidated by any
// assign or append.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace geospanner::dynamic {

template <typename T>
class OwnerSlices {
  public:
    OwnerSlices() = default;
    /// `count` empty slices.
    explicit OwnerSlices(std::size_t count) : slots_(count) {}
    /// Adopts CSR: slice k is items[offsets[k], offsets[k+1]).
    OwnerSlices(const std::vector<std::size_t>& offsets, std::vector<T> items)
        : slots_(offsets.empty() ? 0 : offsets.size() - 1), slab_(std::move(items)),
          live_(slab_.size()) {
        for (std::size_t k = 0; k < slots_.size(); ++k) {
            const auto size = static_cast<std::uint32_t>(offsets[k + 1] - offsets[k]);
            slots_[k] = {offsets[k], size, size};
        }
    }

    [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }

    [[nodiscard]] std::span<const T> operator[](std::size_t k) const {
        const Slot& s = slots_[k];
        return {slab_.data() + s.offset, s.size};
    }

    /// Binary search in slice k (slices are sorted).
    [[nodiscard]] bool contains(std::size_t k, const T& item) const {
        const auto slice = (*this)[k];
        return std::binary_search(slice.begin(), slice.end(), item);
    }

    /// Appends an empty slice.
    void append() { slots_.emplace_back(); }

    /// Replaces slice k with `items`, which must not view this slab.
    void assign(std::size_t k, std::span<const T> items) {
        const auto need = static_cast<std::uint32_t>(items.size());
        live_ = live_ - slots_[k].size + need;
        if (need > slots_[k].capacity) {
            dead_ += slots_[k].capacity;
            slots_[k] = {};
            if (dead_ > live_) compact();
            slots_[k] = {slab_.size(), 0, need};
            slab_.resize(slab_.size() + need);
        }
        Slot& s = slots_[k];
        std::copy(items.begin(), items.end(),
                  slab_.begin() + static_cast<std::ptrdiff_t>(s.offset));
        s.size = need;
    }

  private:
    struct Slot {
        std::size_t offset = 0;
        std::uint32_t size = 0;
        std::uint32_t capacity = 0;
    };

    void compact() {
        std::vector<T> packed;
        packed.reserve(live_);
        for (Slot& s : slots_) {
            const auto first = slab_.begin() + static_cast<std::ptrdiff_t>(s.offset);
            const std::size_t offset = packed.size();
            packed.insert(packed.end(), first, first + s.size);
            s = {offset, s.size, s.size};
        }
        slab_ = std::move(packed);
        dead_ = 0;
    }

    std::vector<Slot> slots_;
    std::vector<T> slab_;
    std::size_t live_ = 0;  ///< sum of slice sizes
    std::size_t dead_ = 0;  ///< abandoned slab entries
};

}  // namespace geospanner::dynamic
