// Fixed-size thread pool with a deterministic-by-construction
// parallel_for primitive.
//
// The pool never makes scheduling visible to its callers: parallel_for
// invokes `body(i)` exactly once for every index, bodies write only to
// index-owned slots (the caller's contract), and the merge of those
// slots happens on the calling thread after the loop — so results are
// identical for any thread count, which is what lets the engine promise
// edge-for-edge equality with the sequential pipeline.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

namespace geospanner::engine {

class ThreadPool {
  public:
    /// Spawns `threads - 1` workers (the calling thread is the remaining
    /// lane); `threads == 0` uses the hardware concurrency.
    explicit ThreadPool(std::size_t threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Total lanes (workers + the calling thread).
    [[nodiscard]] std::size_t thread_count() const noexcept;

    /// Calls body(i) once for every i in [begin, end), distributing
    /// contiguous chunks over all lanes; returns after every call
    /// finished. The first exception thrown by a body is rethrown on the
    /// calling thread (remaining indices may or may not run).
    ///
    /// Bodies run concurrently: they must only read shared state and
    /// write to per-index locations. Invocation order is unspecified —
    /// never encode results in scheduling order.
    ///
    /// Reentrant calls (from inside a body) run inline on the calling
    /// worker, so nested parallelism degrades gracefully instead of
    /// deadlocking. Concurrent external drivers are serialized on an
    /// internal mutex: a second thread calling parallel_for blocks until
    /// the first loop finished, so a long-running ingest worker
    /// (service::SpannerService) and a snapshot reader rebuilding a
    /// reference can share one engine without coordination.
    void parallel_for(std::size_t begin, std::size_t end,
                      const std::function<void(std::size_t)>& body);

    /// True when the calling thread is a pool worker (used to run nested
    /// parallel_for calls inline).
    [[nodiscard]] static bool on_worker_thread() noexcept;

    /// Lanes a parallel_for issued from the calling thread runs on: 1
    /// inside a body (nested loops run inline), thread_count() otherwise.
    [[nodiscard]] std::size_t available_lanes() const noexcept {
        return on_worker_thread() ? 1 : thread_count();
    }

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/// pool->parallel_for when a pool is given, an inline loop otherwise —
/// the one entry point of the owner-computes kernels, so serial callers
/// run the same code on one lane.
inline void parallel_for(ThreadPool* pool, std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t)>& body) {
    if (pool != nullptr) {
        pool->parallel_for(begin, end, body);
    } else {
        for (std::size_t i = begin; i < end; ++i) body(i);
    }
}

/// Owner-computes gather: calls emit(i, out) once for every owner i in
/// [0, n), where emit appends owner i's items to `out`, and returns all
/// items concatenated in owner order. Owners are split into contiguous
/// blocks, one buffer each, so the result is the same at any lane count.
/// When `offsets` is given it receives the CSR offsets of the per-owner
/// slices (n + 1 entries). Emit bodies run concurrently: they may only
/// read shared state (and make idempotent marks).
template <typename T, typename Emit>
[[nodiscard]] std::vector<T> gather_owned(ThreadPool* pool, std::size_t n, Emit&& emit,
                                          std::vector<std::size_t>* offsets = nullptr) {
    if (offsets != nullptr) offsets->assign(n + 1, 0);
    const std::size_t lanes = pool == nullptr ? 1 : pool->available_lanes();
    const std::size_t blocks = lanes == 1 ? 1 : std::min(n, lanes * 8);
    const auto run_block = [&](std::size_t b, std::vector<T>& out) {
        for (std::size_t i = n * b / blocks; i < n * (b + 1) / blocks; ++i) {
            const std::size_t before = out.size();
            emit(i, out);
            if (offsets != nullptr) (*offsets)[i + 1] = out.size() - before;
        }
    };
    std::vector<T> result;
    if (blocks <= 1) {
        if (n > 0) run_block(0, result);
    } else {
        std::vector<std::vector<T>> parts(blocks);
        pool->parallel_for(0, blocks, [&](std::size_t b) { run_block(b, parts[b]); });
        std::vector<std::size_t> start(blocks + 1, 0);
        for (std::size_t b = 0; b < blocks; ++b) start[b + 1] = start[b] + parts[b].size();
        result.resize(start[blocks]);
        pool->parallel_for(0, blocks, [&](std::size_t b) {
            std::copy(parts[b].begin(), parts[b].end(),
                      result.begin() + static_cast<std::ptrdiff_t>(start[b]));
        });
    }
    if (offsets != nullptr) {
        for (std::size_t i = 0; i < n; ++i) (*offsets)[i + 1] += (*offsets)[i];
    }
    return result;
}

}  // namespace geospanner::engine
