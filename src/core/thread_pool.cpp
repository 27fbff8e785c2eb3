#include "core/thread_pool.h"

#include <atomic>
#include <exception>
#include <memory>
#include <utility>

namespace medsec::core {

ThreadPool::ThreadPool(std::size_t threads) {
  std::size_t n = threads ? threads : std::thread::hardware_concurrency();
  if (n == 0) n = 1;
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    queue_.clear();  // abandon queued-but-unstarted work
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::submit(std::function<void()> fn) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return false;
    queue_.push_back(std::move(fn));
  }
  work_cv_.notify_one();
  return true;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  const std::size_t chunks = (n + grain - 1) / grain;

  // Shared chunk counter: workers and the caller pull chunks until the
  // counter runs dry. `done` counts finished chunks so the caller can
  // tell "no chunk left to claim" from "every claimed chunk finished".
  struct Shared {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex mu;
    std::condition_variable cv;
    std::exception_ptr error;
  };
  auto shared = std::make_shared<Shared>();

  auto run_chunks = [shared, n, grain, chunks, &fn] {
    for (;;) {
      const std::size_t c = shared->next.fetch_add(1);
      if (c >= chunks) return;
      const std::size_t begin = c * grain;
      const std::size_t end = begin + grain < n ? begin + grain : n;
      try {
        fn(begin, end);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(shared->mu);
        if (!shared->error) shared->error = std::current_exception();
      }
      if (shared->done.fetch_add(1) + 1 == chunks) {
        const std::lock_guard<std::mutex> lock(shared->mu);
        shared->cv.notify_all();
      }
    }
  };

  // One helper task per worker is enough: each loops over the counter.
  // Helpers that wake after the counter is exhausted return immediately.
  // They capture `fn` by reference, which is safe because the caller
  // blocks below until all `chunks` completions are counted.
  if (chunks > 1)
    for (std::size_t i = 0; i < workers_.size(); ++i) submit(run_chunks);
  run_chunks();

  std::unique_lock<std::mutex> lock(shared->mu);
  shared->cv.wait(lock, [&] { return shared->done.load() == chunks; });
  if (shared->error) std::rethrow_exception(shared->error);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool* pool = new ThreadPool(0);  // leaked: alive at exit
  return *pool;
}

ThreadPool* ThreadPool::for_config(std::size_t threads,
                                   std::unique_ptr<ThreadPool>& owner) {
  if (threads == 1) return nullptr;
  ThreadPool* pool = &shared();
  if (threads > 1 && threads - 1 != pool->size()) {
    owner = std::make_unique<ThreadPool>(threads - 1);
    pool = owner.get();
  }
  return pool;
}

}  // namespace medsec::core
