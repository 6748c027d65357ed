// Fixed-size thread pool with futures and one nesting-safe parallel_map.
//
// Used for the embarrassingly parallel parts of the benchmark harness:
// running the seven Figure-4 experiments concurrently, sweeping solver
// seeds, fanning out campaign cells, and chunking GP candidate scoring.
// parallel_map workers claim one index at a time, which balances load
// when item costs vary.
//
// All shared state is guarded by an annotated support::Mutex
// (mutex.hpp), so the lock/state relationships below are checked by
// clang -Wthread-safety and exercised under the `tsan` preset.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace sdl::support {

class ThreadPool {
public:
    /// Creates `n_threads` workers; 0 means hardware_concurrency (min 1).
    explicit ThreadPool(std::size_t n_threads = 0);

    /// Joins all workers; pending tasks are completed first.
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

    /// Enqueue a task; the returned future carries its result/exception.
    template <typename F>
    [[nodiscard]] auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
        using R = std::invoke_result_t<F>;
        auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
        std::future<R> result = task->get_future();
        {
            MutexLock lock(mutex_);
            if (stopping_) {
                throw std::runtime_error("ThreadPool: submit after shutdown");
            }
            queue_.emplace_back([task]() mutable { (*task)(); });
        }
        cv_.notify_one();
        return result;
    }

    /// Maps fn(i) over [0, n) and collects results in index order. Runs
    /// min(pool size, n) drains, the calling thread included, that claim
    /// one index at a time. The first exception from any item is rethrown
    /// after all active drains stop.
    ///
    /// Safe under nesting: the calling thread drains work itself, and it
    /// never blocks on queued helper tasks — only on drains that actually
    /// started. Helpers that the pool gets to late find no work left and
    /// return against heap-owned state, so they cannot touch a dead
    /// frame even if they run after this call returned.
    template <typename F>
    auto parallel_map(std::size_t n, F&& fn)
        -> std::vector<std::invoke_result_t<F, std::size_t>> {
        using R = std::invoke_result_t<F, std::size_t>;
        if (n == 0) return {};

        const std::size_t workers = std::min(size(), n);

        struct State {
            explicit State(std::size_t count) : slots(count), n(count) {}
            // Result slots are disjoint per index and are only read after
            // every drain has exited (the mutex release/acquire pair
            // below publishes them), so they carry no guard of their own.
            std::vector<std::optional<R>> slots;
            std::size_t n;
            std::atomic<std::size_t> next{0};
            std::atomic<bool> failed{false};
            Mutex mutex;
            CondVar done_cv;
            std::size_t items_done SDL_GUARDED_BY(mutex) = 0;
            int active_drains SDL_GUARDED_BY(mutex) = 0;
            std::exception_ptr first_error SDL_GUARDED_BY(mutex);
        };
        auto state = std::make_shared<State>(n);

        // `fn` is captured by reference: a drain only reaches it while
        // unclaimed work remains, and the caller cannot leave before all
        // work is claimed (or failed) and every active drain has exited.
        auto drain_loop = [state, &fn] {
            {
                MutexLock lock(state->mutex);
                ++state->active_drains;
            }
            std::size_t completed_here = 0;
            for (;;) {
                if (state->failed.load(std::memory_order_relaxed)) break;
                const std::size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
                if (i >= state->n) break;
                try {
                    state->slots[i].emplace(fn(i));
                    ++completed_here;
                } catch (...) {
                    MutexLock lock(state->mutex);
                    if (!state->first_error) {
                        state->first_error = std::current_exception();
                    }
                    state->failed.store(true, std::memory_order_relaxed);
                    break;
                }
            }
            MutexLock lock(state->mutex);
            state->items_done += completed_here;
            --state->active_drains;
            state->done_cv.notify_all();
        };

        // The helpers' futures are deliberately discarded — completion is
        // tracked by the latch above, never by blocking on a queued task
        // that a saturated pool might not schedule.
        for (std::size_t w = 1; w < workers; ++w) (void)submit(drain_loop);
        drain_loop();  // The calling thread participates.

        MutexLock lock(state->mutex);
        while (state->active_drains != 0 ||
               (state->items_done != state->n &&
                !state->failed.load(std::memory_order_relaxed))) {
            state->done_cv.wait(state->mutex);
        }
        if (state->first_error) std::rethrow_exception(state->first_error);

        std::vector<R> out;
        out.reserve(n);
        for (auto& slot : state->slots) out.push_back(std::move(*slot));
        return out;
    }

private:
    void worker_loop();

    std::vector<std::thread> workers_;
    Mutex mutex_;
    CondVar cv_;
    std::deque<std::function<void()>> queue_ SDL_GUARDED_BY(mutex_);
    bool stopping_ SDL_GUARDED_BY(mutex_) = false;
};

/// The largest pool size SDLBENCH_WORKERS may ask for.
inline constexpr std::size_t kMaxPoolSize = 4096;

/// Parses an SDLBENCH_WORKERS-style value: 1..kMaxPoolSize is a pool size,
/// null/empty/0/garbage mean "default" (returns 0, i.e. hardware
/// concurrency) — garbage is logged as a warning rather than thrown,
/// because this runs inside global_pool()'s lazy static initializer.
[[nodiscard]] std::size_t pool_size_from_env(const char* value) noexcept;

/// Process-wide pool for benchmark harnesses (lazily constructed). The
/// size honors the SDLBENCH_WORKERS environment variable, read once at
/// first use — fleet workers (tools/sdlbench_fleet) are pinned to
/// disjoint core budgets this way, and a bench run can be forced
/// single-threaded without code changes.
ThreadPool& global_pool();

}  // namespace sdl::support
