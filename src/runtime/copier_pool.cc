#include "runtime/copier_pool.hh"

#include <algorithm>

#include "common/logging.hh"
#include "runtime/fault_dispatch.hh"

namespace viyojit::runtime
{

CopierPool::CopierPool(unsigned threads, unsigned shard_count,
                       unsigned batch, unsigned queue_capacity)
    : queues_(shard_count),
      depth_(shard_count),
      batch_(std::max(batch, 1u)),
      capacity_(queue_capacity)
{
    if (threads == 0)
        fatal("copier pool needs at least one thread");
    if (queue_capacity == 0)
        fatal("copier queues need at least one slot");
    // All ring storage is reserved here, before any fault can
    // submit: the steady-state fault path must not heap-allocate.
    for (Ring &ring : queues_)
        ring.slots.resize(queue_capacity);
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this]() { workerLoop(); });
}

CopierPool::~CopierPool()
{
    {
        common::MutexLock guard(lock_);
        stopping_ = true;
    }
    work_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
CopierPool::submit(unsigned shard, Job job)
{
    {
        common::MutexLock guard(lock_);
        Ring &ring = queues_[shard];
        if (ring.count == ring.slots.size()) {
            // The submitter's outstanding-IO cap bounds the queue;
            // hitting capacity means that invariant broke.
            fatal("copier queue overflow on shard ", shard,
                  " (capacity ", ring.slots.size(), ")");
        }
        ring.slots[(ring.head + ring.count) % ring.slots.size()] = job;
        ++ring.count;
        ++queued_;
        depth_[shard].store(static_cast<unsigned>(ring.count),
                            std::memory_order_relaxed);
    }
    work_.notify_one();
}

void
CopierPool::workerLoop()
{
    // Copier threads write through the region mapping and can fault;
    // give them the bounded alt-stack envelope (DESIGN.md §15).
    ensureFaultStackForThisThread();
    std::vector<Job> jobs;
    jobs.reserve(batch_);
    for (;;) {
        jobs.clear();
        {
            common::MutexLock guard(lock_);
            work_.wait(lock_, [this]() REQUIRES(lock_) {
                return stopping_ || queued_ > 0;
            });
            if (queued_ == 0) {
                // stopping_ and nothing left: completion callbacks
                // can enqueue follow-on copies, so only exit once the
                // queues are truly drained.
                return;
            }
            // Round-robin over the shard queues so one bursting shard
            // cannot starve the others' writeback.
            for (std::size_t i = 0; i < queues_.size(); ++i) {
                const std::size_t q =
                    (nextShard_ + i) % queues_.size();
                Ring &ring = queues_[q];
                if (ring.count == 0)
                    continue;
                nextShard_ =
                    static_cast<unsigned>((q + 1) % queues_.size());
                // Pop until the PAGE sum reaches the batch target
                // (always at least one job): a coalesced run carries
                // many pages in one slot, and bounding the batch by
                // pages rather than jobs caps the bytes this worker
                // holds in flight per batch.
                std::size_t pages = 0;
                while (ring.count > 0 && pages < batch_) {
                    const Job &job = ring.slots[ring.head];
                    jobs.push_back(job);
                    pages += std::max(job.count, 1u);
                    ring.head = (ring.head + 1) % ring.slots.size();
                    --ring.count;
                    --queued_;
                }
                depth_[q].store(static_cast<unsigned>(ring.count),
                                std::memory_order_relaxed);
                break;
            }
        }
        // Batched submission: all device writes first (no shard lock),
        // then all completions (one shard lock acquisition each).
        for (Job &job : jobs)
            job.client->copierPersist(job.first, job.count);
        for (Job &job : jobs)
            job.client->copierComplete(job.first, job.count);
    }
}

} // namespace viyojit::runtime
