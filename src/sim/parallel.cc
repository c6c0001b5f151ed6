#include "sim/parallel.hh"

#include "sim/logging.hh"

namespace mssp
{

unsigned
defaultJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = 1;
    shards_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        shards_.push_back(std::make_unique<Shard>());
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this, i] { workerMain(i); });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(m_);
        stop_ = true;
    }
    wake_.notifyAll();
    for (std::thread &w : workers_)
        w.join();
}

void
ThreadPool::run(std::vector<std::function<void()>> jobs)
{
    if (jobs.empty())
        return;
    std::vector<std::exception_ptr> errors(jobs.size());
    {
        MutexLock lock(m_);
        // Publish the batch state *before* dealing indices: a worker
        // still draining the previous batch may pop a new index the
        // moment it hits a shard queue, and the shard mutex only
        // orders it after the push below.
        jobs_ = &jobs;
        errors_ = &errors;
        remaining_.store(jobs.size(), std::memory_order_release);
        ++batch_;
        // Deal indices round-robin: similar-cost neighbours spread
        // over all workers, stealing rebalances the rest.
        for (size_t i = 0; i < jobs.size(); ++i) {
            Shard &s = *shards_[i % shards_.size()];
            MutexLock qlock(s.m);
            s.q.push_back(i);
        }
    }
    wake_.notifyAll();

    {
        MutexLock lock(m_);
        while (remaining_.load(std::memory_order_acquire) != 0)
            done_.wait(m_);
        jobs_ = nullptr;
        errors_ = nullptr;
    }
    // First failure by job index, not completion time: deterministic.
    for (std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
}

bool
ThreadPool::nextJob(unsigned self, size_t &idx)
{
    {
        Shard &own = *shards_[self];
        MutexLock lock(own.m);
        if (!own.q.empty()) {
            idx = own.q.back();   // LIFO: most recently dealt, warm
            own.q.pop_back();
            return true;
        }
    }
    for (size_t off = 1; off < shards_.size(); ++off) {
        Shard &victim = *shards_[(self + off) % shards_.size()];
        MutexLock lock(victim.m);
        if (!victim.q.empty()) {
            idx = victim.q.front();   // steal oldest: FIFO fairness
            victim.q.pop_front();
            return true;
        }
    }
    return false;
}

void
ThreadPool::execute(size_t idx)
{
    // Look the batch arrays up per job, not once per batch: a worker
    // still draining batch N can pop an index of batch N+1, whose
    // arrays replaced N's before that index was dealt. They stay put
    // until remaining_ hits zero, which needs this job to finish.
    std::vector<std::function<void()>> *jobs = nullptr;
    std::vector<std::exception_ptr> *errors = nullptr;
    {
        MutexLock lock(m_);
        jobs = jobs_;
        errors = errors_;
    }
    try {
        (*jobs)[idx]();
    } catch (...) {
        (*errors)[idx] = std::current_exception();
    }
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Last job out: wake the caller. Taking the lock orders this
        // notify after the caller's wait() registration.
        MutexLock lock(m_);
        done_.notifyAll();
    }
}

void
ThreadPool::workerMain(unsigned self)
{
    uint64_t seen = 0;
    for (;;) {
        {
            MutexLock lock(m_);
            while (!stop_ && batch_ == seen)
                wake_.wait(m_);
            if (stop_)
                return;
            seen = batch_;
        }
        size_t idx;
        while (nextJob(self, idx))
            execute(idx);
        // Batch drained (for this worker). Other workers may still be
        // executing; run() waits on remaining_, not on us.
    }
}

} // namespace mssp
