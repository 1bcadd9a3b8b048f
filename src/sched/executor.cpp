#include "sched/executor.h"

#include <algorithm>
#include <utility>

#include "common/error.h"

namespace easybo::sched {

std::vector<Completion> Executor::wait_all() {
  std::vector<Completion> done;
  while (num_running() > 0) done.push_back(wait_next());
  return done;
}

// ---------------------------------------------------------------------------
// VirtualExecutor
// ---------------------------------------------------------------------------

bool VirtualExecutor::finishes_later(const Running& a, const Running& b) {
  if (a.completion.finish != b.completion.finish) {
    return a.completion.finish > b.completion.finish;
  }
  return a.seq > b.seq;
}

VirtualExecutor::VirtualExecutor(std::size_t num_workers) {
  EASYBO_REQUIRE(num_workers >= 1, "executor needs at least one worker");
  busy_.assign(num_workers, 0.0);
  idle_.resize(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) idle_[i] = i;
}

void VirtualExecutor::submit(std::size_t tag, std::function<double()> work,
                             double duration) {
  EASYBO_REQUIRE(!idle_.empty(), "submit with no idle worker");
  EASYBO_REQUIRE(duration > 0.0, "job duration must be positive");
  Running job;
  job.seq = next_seq_++;
  job.completion.tag = tag;
  job.completion.worker = idle_.back();
  idle_.pop_back();
  job.completion.start = now_;
  job.completion.finish = now_ + duration;
  total_busy_ += duration;
  busy_[job.completion.worker] += duration;
  // Evaluate eagerly but deliver failures lazily: a throwing objective
  // must surface at wait_next(), exactly where ThreadExecutor rethrows
  // worker exceptions, so the engine sees one failure contract on both
  // backends.
  try {
    job.completion.value = work();
  } catch (...) {
    job.error = std::current_exception();
  }
  running_.push_back(std::move(job));
  std::push_heap(running_.begin(), running_.end(), &finishes_later);
}

Completion VirtualExecutor::wait_next() {
  EASYBO_REQUIRE(!running_.empty(), "wait_next with no running job");
  std::pop_heap(running_.begin(), running_.end(), &finishes_later);
  const Running job = std::move(running_.back());
  running_.pop_back();
  now_ = std::max(now_, job.completion.finish);
  idle_.push_back(job.completion.worker);
  if (job.error) std::rethrow_exception(job.error);
  return job.completion;
}

void VirtualExecutor::advance_to(double t) {
  if (!running_.empty()) {
    t = std::min(t, running_.front().completion.finish);
  }
  now_ = std::max(now_, t);
}

// ---------------------------------------------------------------------------
// ThreadExecutor
// ---------------------------------------------------------------------------

ThreadExecutor::ThreadExecutor(std::size_t num_threads)
    : t0_(std::chrono::steady_clock::now()), num_threads_(num_threads) {
  EASYBO_REQUIRE(num_threads >= 1, "executor needs at least one worker");
  free_slots_.resize(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) free_slots_[i] = i;
  busy_per_slot_.assign(num_threads, 0.0);
  threads_.reserve(num_threads);
  try {
    for (std::size_t i = 0; i < num_threads; ++i) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    stop_and_join();  // a failed spawn must not leave joinable threads
    throw;
  }
}

ThreadExecutor::~ThreadExecutor() { stop_and_join(); }

void ThreadExecutor::stop_and_join() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadExecutor::worker_loop() {
  for (;;) {
    Job job;
    std::size_t slot = 0;
    {
      std::unique_lock lock(mutex_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, and every job has run
      job = std::move(queue_.front());
      queue_.pop_front();
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    Outcome out;
    out.completion.tag = job.tag;
    out.completion.worker = slot;
    out.completion.start = now();
    try {
      out.completion.value = job.work();
    } catch (...) {
      out.error = std::current_exception();
    }
    out.completion.finish = now();
    job.work = nullptr;  // release what the work owns before it is reported
    {
      std::lock_guard lock(mutex_);
      free_slots_.push_back(slot);
      const double busy = out.completion.finish - out.completion.start;
      total_busy_ += busy;
      busy_per_slot_[slot] += busy;
      done_.push_back(std::move(out));
    }
    done_cv_.notify_one();
  }
}

double ThreadExecutor::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0_)
      .count();
}

std::size_t ThreadExecutor::num_running() const {
  std::lock_guard lock(mutex_);
  return in_flight_;
}

double ThreadExecutor::total_busy_time() const {
  std::lock_guard lock(mutex_);
  return total_busy_;
}

std::vector<double> ThreadExecutor::per_worker_busy() const {
  std::lock_guard lock(mutex_);
  return busy_per_slot_;
}

void ThreadExecutor::submit(std::size_t tag, std::function<double()> work,
                            double /*duration: real executors measure*/) {
  {
    std::lock_guard lock(mutex_);
    EASYBO_REQUIRE(in_flight_ < num_threads_, "submit with no idle worker");
    ++in_flight_;
    queue_.push_back({tag, std::move(work)});
  }
  work_cv_.notify_one();
}

Completion ThreadExecutor::take_done() {
  Outcome out = std::move(done_.front());
  done_.pop_front();
  --in_flight_;
  if (out.error) std::rethrow_exception(out.error);
  return out.completion;
}

Completion ThreadExecutor::wait_next() {
  std::unique_lock lock(mutex_);
  EASYBO_REQUIRE(in_flight_ > 0, "wait_next with no running job");
  done_cv_.wait(lock, [this] { return !done_.empty(); });
  return take_done();
}

std::optional<Completion> ThreadExecutor::try_wait_next(
    double timeout_seconds) {
  std::unique_lock lock(mutex_);
  EASYBO_REQUIRE(in_flight_ > 0, "try_wait_next with no running job");
  const bool ready =
      done_cv_.wait_for(lock, std::chrono::duration<double>(timeout_seconds),
                        [this] { return !done_.empty(); });
  if (!ready) return std::nullopt;
  return take_done();
}

// ---------------------------------------------------------------------------
// compare_policies — the Fig. 1 story
// ---------------------------------------------------------------------------

PolicyComparison compare_policies(const std::vector<double>& durations,
                                  std::size_t workers) {
  EASYBO_REQUIRE(!durations.empty(), "compare_policies: no durations");
  const auto no_work = [] { return 0.0; };
  const auto utilization = [workers](const VirtualExecutor& exec) {
    return exec.total_busy_time() /
           (exec.now() * static_cast<double>(workers));
  };
  PolicyComparison cmp;

  {
    // Synchronous: issue in batches of `workers`, barrier between batches.
    VirtualExecutor sync(workers);
    std::size_t next = 0;
    while (next < durations.size()) {
      for (std::size_t b = 0; b < workers && next < durations.size(); ++b) {
        sync.submit(next, no_work, durations[next]);
        ++next;
      }
      const std::vector<Completion> batch = sync.wait_all();
      cmp.sync_trace.insert(cmp.sync_trace.end(), batch.begin(), batch.end());
    }
    cmp.sync_makespan = sync.now();
    cmp.sync_utilization = utilization(sync);
  }

  {
    // Asynchronous: keep every worker busy while jobs remain.
    VirtualExecutor async(workers);
    std::size_t next = 0;
    while (next < durations.size() || async.num_running() > 0) {
      while (async.has_idle_worker() && next < durations.size()) {
        async.submit(next, no_work, durations[next]);
        ++next;
      }
      if (async.num_running() > 0) {
        cmp.async_trace.push_back(async.wait_next());
      }
    }
    cmp.async_makespan = async.now();
    cmp.async_utilization = utilization(async);
  }

  return cmp;
}

}  // namespace easybo::sched
