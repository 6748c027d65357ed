#include "support/thread_pool.hpp"

#include <cstdlib>

#include "support/log.hpp"

namespace sdl::support {

ThreadPool::ThreadPool(std::size_t n_threads) {
    if (n_threads == 0) {
        n_threads = std::thread::hardware_concurrency();
        if (n_threads == 0) n_threads = 1;
    }
    workers_.reserve(n_threads);
    for (std::size_t i = 0; i < n_threads; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

ThreadPool::~ThreadPool() {
    {
        MutexLock lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) {
        if (w.joinable()) w.join();
    }
}

void ThreadPool::worker_loop() {
    for (;;) {
        std::function<void()> task;
        {
            MutexLock lock(mutex_);
            while (!stopping_ && queue_.empty()) cv_.wait(mutex_);
            if (queue_.empty()) return;  // only reachable when stopping
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

std::size_t pool_size_from_env(const char* value) noexcept {
    if (value == nullptr || *value == '\0') return 0;
    std::size_t parsed = 0;
    for (const char* p = value; *p != '\0'; ++p) {
        const bool digit = *p >= '0' && *p <= '9';
        if (digit) parsed = parsed * 10 + static_cast<std::size_t>(*p - '0');
        // The cap is checked after each digit, so no value past it (and
        // no digit string long enough to overflow) becomes a pool size.
        if (!digit || parsed > kMaxPoolSize) {
            log_warn("support", "ignoring SDLBENCH_WORKERS='", value,
                     "' (expected a positive integer up to ", kMaxPoolSize, ")");
            return 0;
        }
    }
    return parsed;  // 0 stays "default"
}

ThreadPool& global_pool() {
    // SDLBENCH_WORKERS is read exactly once, at first use; later env
    // changes don't resize a pool that threads already share.
    static ThreadPool pool(pool_size_from_env(std::getenv("SDLBENCH_WORKERS")));
    return pool;
}

}  // namespace sdl::support
