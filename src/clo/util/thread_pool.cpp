#include "clo/util/thread_pool.hpp"

#include "clo/util/obs.hpp"

namespace clo::util {
namespace {

thread_local bool t_on_worker = false;

}  // namespace

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) workers = resolve_threads(0);
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::post(std::function<void()> task) {
  if (on_worker_thread()) {
    task();
    return;
  }
  enqueue(std::move(task));
}

void ThreadPool::enqueue(std::function<void()> fn) {
  Task task{std::move(fn), obs::current_span_path()};
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

bool ThreadPool::on_worker_thread() { return t_on_worker; }

void ThreadPool::worker_loop() {
  t_on_worker = true;
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    obs::SpanParent parent(task.span_parent);
    task.fn();
  }
}

std::size_t resolve_threads(int n) {
  if (n >= 1) return static_cast<std::size_t>(n);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

}  // namespace clo::util
