#include "exec/engine.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>

namespace kami::exec {

int default_workers() {
  static const int cached = [] {
    const char* env = std::getenv("KAMI_THREADS");
    if (env == nullptr || *env == '\0') return 1;
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end == env || *end != '\0') return 1;
    return static_cast<int>(std::clamp<long>(v, 1, kMaxWorkers));
  }();
  return cached;
}

int resolve_workers(int requested) {
  if (requested <= 0) return default_workers();
  return std::min(requested, kMaxWorkers);
}

const ExecutionEngine& ExecutionEngine::global() {
  static ExecutionEngine engine(0);
  return engine;
}

namespace {

// One parallel_for invocation. Stripe s owns indices s, s + stripes,
// s + 2*stripes, ... — a participant pops its own stripe from the back and
// steals from other stripes' front. The caller-side std::function is
// borrowed by raw pointer: a participant only dereferences it after winning
// a task index, and the caller cannot leave run_region until `remaining`
// hits zero, so the borrow is always live when used.
struct Region {
  struct Stripe {
    std::mutex mu;
    std::deque<std::size_t> tasks;
  };

  const std::function<void(std::size_t)>* task = nullptr;
  std::deque<Stripe> stripes;
  std::atomic<int> next_stripe{1};  // the caller is stripe 0
  std::atomic<std::size_t> remaining{0};
  std::mutex done_mu;
  std::condition_variable done_cv;

  bool try_pop_own(int s, std::size_t& out) {
    Stripe& st = stripes[static_cast<std::size_t>(s)];
    std::lock_guard lock(st.mu);
    if (st.tasks.empty()) return false;
    out = st.tasks.back();
    st.tasks.pop_back();
    return true;
  }

  bool try_steal(int thief, std::size_t& out) {
    const int n = static_cast<int>(stripes.size());
    for (int d = 1; d < n; ++d) {
      Stripe& st = stripes[static_cast<std::size_t>((thief + d) % n)];
      std::lock_guard lock(st.mu);
      if (!st.tasks.empty()) {
        out = st.tasks.front();
        st.tasks.pop_front();
        return true;
      }
    }
    return false;
  }

  void participate(int stripe_id) {
    std::size_t i = 0;
    while (try_pop_own(stripe_id, i) || try_steal(stripe_id, i)) {
      (*task)(i);
      if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Notify under the lock so the waiter can't miss the wake between
        // its predicate check and its wait.
        std::lock_guard lock(done_mu);
        done_cv.notify_all();
      }
    }
  }

  void wait_done() {
    std::unique_lock lock(done_mu);
    done_cv.wait(lock, [&] { return remaining.load(std::memory_order_acquire) == 0; });
  }
};

// Process-wide pool of persistent helper threads. Threads are spawned
// lazily when a region wants more participants than are idle, up to
// kMaxWorkers, and parked on a condition variable between regions. The
// static instance joins everything at exit — no detached threads, no
// intentional leaks (the asan preset runs with leak checking on).
class WorkerPool {
 public:
  static WorkerPool& instance() {
    static WorkerPool pool;
    return pool;
  }

  void enlist(const std::shared_ptr<Region>& region, int helpers) {
    if (helpers <= 0) return;
    {
      std::lock_guard lock(mu_);
      for (int i = 0; i < helpers; ++i) pending_.push_back(region);
      const std::size_t deficit =
          pending_.size() > idle_ ? pending_.size() - idle_ : 0;
      for (std::size_t i = 0;
           i < deficit && threads_.size() < static_cast<std::size_t>(kMaxWorkers);
           ++i) {
        threads_.emplace_back([this] { worker_loop(); });
      }
    }
    cv_.notify_all();
  }

 private:
  WorkerPool() = default;

  ~WorkerPool() {
    {
      std::lock_guard lock(mu_);
      shutdown_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  void worker_loop() {
    for (;;) {
      std::shared_ptr<Region> region;
      {
        std::unique_lock lock(mu_);
        ++idle_;
        cv_.wait(lock, [&] { return shutdown_ || !pending_.empty(); });
        --idle_;
        if (pending_.empty()) return;  // shutdown with no work left
        region = std::move(pending_.front());
        pending_.pop_front();
      }
      const int stripe = region->next_stripe.fetch_add(1, std::memory_order_relaxed);
      if (stripe < static_cast<int>(region->stripes.size())) {
        region->participate(stripe);
      }
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::thread> threads_;
  std::deque<std::shared_ptr<Region>> pending_;
  std::size_t idle_ = 0;
  bool shutdown_ = false;
};

}  // namespace

void ExecutionEngine::run_region(std::size_t n,
                                 const std::function<void(std::size_t)>& task) const {
  const int stripes =
      static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(workers_), n));
  if (stripes <= 1) {
    for (std::size_t i = 0; i < n; ++i) task(i);
    return;
  }
  const auto region = std::make_shared<Region>();
  region->task = &task;
  region->stripes.resize(static_cast<std::size_t>(stripes));
  for (std::size_t i = 0; i < n; ++i) {
    region->stripes[i % static_cast<std::size_t>(stripes)].tasks.push_back(i);
  }
  region->remaining.store(n, std::memory_order_relaxed);
  WorkerPool::instance().enlist(region, stripes - 1);
  region->participate(0);
  region->wait_done();
}

}  // namespace kami::exec
