#include "exec/pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "exec/gang.hpp"
#include "telemetry/metrics.hpp"

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

void run_tasks(std::size_t n, const std::function<void(std::size_t)>& task,
               int jobs) {
  // One private registry and exception slot per task, indexed by task id
  // so the fold below is in submission order by construction.
  std::vector<telemetry::MetricRegistry> regs(n);
  std::vector<std::exception_ptr> excs(n);
  // Every thread of the round, the caller included, claims tasks from
  // one ticket until none is left; a width-1 gang runs this inline.
  std::atomic<std::size_t> next{0};
  Gang gang(std::min<std::size_t>(resolve_jobs(jobs), n));
  gang.run([&](std::size_t) {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      telemetry::ScopedRegistry scope(regs[i]);
      try {
        task(i);
      } catch (...) {
        excs[i] = std::current_exception();
      }
    }
  });

  // Deterministic fold: task registries merge into the submitter's
  // current registry in task order, independent of execution order.
  auto& dst = telemetry::MetricRegistry::current();
  for (auto& r : regs) dst.merge(r);

  // Rethrow only after the round and the fold, so telemetry from tasks
  // that did complete is not lost. Lowest task index wins,
  // deterministically.
  for (auto& e : excs) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace phi::exec
