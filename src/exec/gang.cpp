#include "exec/gang.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/pool.hpp"

namespace phi::exec {

namespace {

// How long a waiting party polls the phase word before it parks. Over
// the 180,000 waits of two 4-shard k=4 fat-tree runs under churn (1 ms
// windows, 4-vCPU VM), 45% ended within 16 us, 87% within 36 us, 97.6%
// within 64 us and 99.5% within this budget; the other 0.5% parked.
constexpr std::chrono::microseconds kSpinBudget{300};

// Threads inside multi-thread Gang::run() rounds, over the whole process.
std::atomic<std::size_t> g_running_threads{0};

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

}  // namespace

CyclicBarrier::CyclicBarrier(std::size_t parties)
    : parties_(parties == 0 ? 1 : parties) {}

void CyclicBarrier::arrive_and_wait() {
  // The phase cannot advance until this party arrives, so this is the
  // phase it arrives in. Waiting on the phase word, not the arrival
  // count, keeps a fast party that re-enters the next phase from
  // absorbing a slow one.
  const std::uint32_t phase = phase_.load(std::memory_order_relaxed);
  // acq_rel: the last arrival's RMW continues every earlier party's
  // release sequence, so it acquires all their writes, and its release
  // store of the next phase hands them on to every waiter.
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
    arrived_.store(0, std::memory_order_relaxed);
    phase_.store(phase + 1, std::memory_order_release);
    phase_.notify_all();
    return;
  }
  if (Gang::running_threads() <= usable_cpus()) {
    const auto give_up = std::chrono::steady_clock::now() + kSpinBudget;
    do {
      if (phase_.load(std::memory_order_acquire) != phase) return;
      cpu_relax();
    } while (std::chrono::steady_clock::now() < give_up);
  }
  phase_.wait(phase, std::memory_order_acquire);
}

struct Gang::Impl {
  std::mutex mu;
  std::condition_variable start_cv;
  std::condition_variable done_cv;
  std::uint64_t epoch = 0;  ///< bumped by run() to release workers
  std::size_t active = 0;   ///< workers still inside the current round
  bool stop = false;
  const std::function<void(std::size_t)>* fn = nullptr;
  std::vector<std::exception_ptr> excs;
  std::vector<std::thread> threads;
};

Gang::Gang(std::size_t size) : size_(size == 0 ? 1 : size) {
  if (size_ <= 1) return;  // inline mode: run() calls fn(0) directly
  impl_ = new Impl;
  impl_->excs.resize(size_);
  impl_->threads.reserve(size_ - 1);
  for (std::size_t i = 1; i < size_; ++i) {
    impl_->threads.emplace_back([this, i] {
      Impl& im = *impl_;
      std::uint64_t seen = 0;
      for (;;) {
        const std::function<void(std::size_t)>* fn;
        {
          std::unique_lock<std::mutex> lk(im.mu);
          im.start_cv.wait(
              lk, [&] { return im.stop || im.epoch != seen; });
          if (im.stop) return;
          seen = im.epoch;
          fn = im.fn;
        }
        try {
          (*fn)(i);
        } catch (...) {
          im.excs[i] = std::current_exception();
        }
        {
          std::lock_guard<std::mutex> lk(im.mu);
          if (--im.active == 0) im.done_cv.notify_one();
        }
      }
    });
  }
}

std::size_t Gang::running_threads() noexcept {
  return g_running_threads.load(std::memory_order_relaxed);
}

Gang::~Gang() {
  if (impl_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->stop = true;
  }
  impl_->start_cv.notify_all();
  for (auto& t : impl_->threads) t.join();
  delete impl_;
}

void Gang::run(const std::function<void(std::size_t)>& fn) {
  if (impl_ == nullptr) {
    fn(0);
    return;
  }
  Impl& im = *impl_;
  // Counted from before any worker starts until every one has finished,
  // so each barrier wait inside the round sees this gang's threads.
  g_running_threads.fetch_add(size_, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(im.mu);
    im.fn = &fn;
    im.active = size_ - 1;
    for (auto& e : im.excs) e = nullptr;
    ++im.epoch;
  }
  im.start_cv.notify_all();
  try {
    fn(0);
  } catch (...) {
    im.excs[0] = std::current_exception();
  }
  {
    std::unique_lock<std::mutex> lk(im.mu);
    im.done_cv.wait(lk, [&] { return im.active == 0; });
    im.fn = nullptr;
  }
  g_running_threads.fetch_sub(size_, std::memory_order_relaxed);
  for (auto& e : im.excs) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace phi::exec
