#include "exec/pool.hpp"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace phi::exec {

unsigned usable_cpus() noexcept {
  static const unsigned n = [] {
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
      return static_cast<unsigned>(CPU_COUNT(&set));
#endif
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1u;
  }();
  return n;
}

unsigned resolve_jobs(int jobs) noexcept {
  return jobs > 0 ? static_cast<unsigned>(jobs) : usable_cpus();
}

// All worker coordination lives here so the header stays free of
// <thread>/<mutex> includes (and so a jobs=1 Pool allocates nothing).
struct Pool::Impl {
  std::mutex mu;
  std::condition_variable cv;       // workers wait for a new batch
  std::condition_variable done_cv;  // run() waits for workers to drain
  std::uint64_t epoch = 0;          // bumped per batch; wakes workers
  bool stop = false;
  std::size_t active = 0;  // workers still inside the current batch

  // Current batch, valid while active > 0 or the caller is in work().
  std::atomic<std::size_t> next{0};
  std::size_t n = 0;
  const std::function<void(std::size_t)>* task = nullptr;
  std::vector<telemetry::MetricRegistry>* regs = nullptr;
  std::vector<std::exception_ptr>* excs = nullptr;

  std::vector<std::thread> threads;
};

Pool::Pool(int jobs) {
  unsigned want = resolve_jobs(jobs);
  if (want <= 1) return;  // inline mode: no Impl, no threads
  impl_ = new Impl;
  threads_count_ = want - 1;
  impl_->threads.reserve(threads_count_);
  for (std::size_t t = 0; t < threads_count_; ++t) {
    impl_->threads.emplace_back([this] {
      Impl& s = *impl_;
      std::uint64_t seen = 0;
      for (;;) {
        {
          std::unique_lock<std::mutex> lk(s.mu);
          s.cv.wait(lk, [&] { return s.stop || s.epoch != seen; });
          if (s.stop) return;
          seen = s.epoch;
        }
        work();
        {
          std::lock_guard<std::mutex> lk(s.mu);
          if (--s.active == 0) s.done_cv.notify_all();
        }
      }
    });
  }
}

Pool::~Pool() {
  if (impl_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->stop = true;
  }
  impl_->cv.notify_all();
  for (auto& t : impl_->threads) t.join();
  delete impl_;
}

void Pool::work() noexcept {
  Impl& s = *impl_;
  for (;;) {
    std::size_t i = s.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= s.n) return;
    telemetry::ScopedRegistry scope((*s.regs)[i]);
    try {
      (*s.task)(i);
    } catch (...) {
      (*s.excs)[i] = std::current_exception();
    }
  }
}

void Pool::run(std::size_t n,
               const std::function<void(std::size_t)>& task) {
  if (n == 0) return;

  // One private registry and exception slot per task, indexed by task id
  // so the post-barrier fold below is in submission order by construction.
  std::vector<telemetry::MetricRegistry> regs(n);
  std::vector<std::exception_ptr> excs(n);

  if (impl_ == nullptr) {
    // jobs == 1: run every task inline. Still goes through the same
    // scoped-registry + ordered-fold path as the threaded mode so the
    // merged telemetry is bit-identical for any jobs value.
    for (std::size_t i = 0; i < n; ++i) {
      telemetry::ScopedRegistry scope(regs[i]);
      try {
        task(i);
      } catch (...) {
        excs[i] = std::current_exception();
      }
    }
  } else {
    Impl& s = *impl_;
    {
      std::lock_guard<std::mutex> lk(s.mu);
      s.next.store(0, std::memory_order_relaxed);
      s.n = n;
      s.task = &task;
      s.regs = &regs;
      s.excs = &excs;
      s.active = s.threads.size();
      ++s.epoch;
    }
    s.cv.notify_all();
    work();  // the caller is one of the jobs
    {
      std::unique_lock<std::mutex> lk(s.mu);
      s.done_cv.wait(lk, [&] { return s.active == 0; });
      s.task = nullptr;
      s.regs = nullptr;
      s.excs = nullptr;
    }
  }

  // Deterministic fold: task registries merge into the submitter's
  // current registry in task order, independent of execution order.
  auto& dst = telemetry::MetricRegistry::current();
  for (auto& r : regs) dst.merge(r);

  // Rethrow only after the barrier + fold so the pool remains usable and
  // telemetry from tasks that did complete is not lost. Lowest task index
  // wins, deterministically.
  for (auto& e : excs) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace phi::exec
