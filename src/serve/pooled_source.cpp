#include "serve/pooled_source.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace ipcomp {

PooledSource::PooledSource(SegmentSource& base, unsigned workers) : base_(base) {
  const unsigned n = std::max(1u, workers);
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

PooledSource::~PooledSource() {
  {
    LockGuard lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

const Bytes& PooledSource::header() {
  // Serialized under mu_ because base header() mutates its cache; in
  // practice this runs once, at archive open, before any session traffic.
  LockGuard lock(mu_);
  const std::size_t before = base_.stats().bytes_read;
  const Bytes& h = base_.header();
  if (!header_charged_) {
    // Mirror the base's open cost (header + segment table) into this
    // source's accounting so a reader over the pool sees the same
    // bytes_total it would see over the base directly.
    charge_bytes(base_.stats().bytes_read - before);
    count_read_call();
    header_charged_ = true;
  }
  return h;
}

Bytes PooledSource::read_segment(SegmentId id) {
  std::vector<Bytes> one = read_many({&id, 1});
  return std::move(one.front());
}

std::vector<Bytes> PooledSource::read_many(std::span<const SegmentId> ids) {
  if (ids.empty()) return {};
  Batch batch;
  batch.ids = ids;
  {
    LockGuard lock(mu_);
    queue_.push_back(&batch);
  }
  work_cv_.notify_one();
  {
    LockGuard lock(mu_);
    done_cv_.wait(mu_, [&] { return batch.done; });
  }
  if (batch.error) std::rethrow_exception(batch.error);
  // All-or-nothing accounting, same as the base sources: charge only the
  // payloads actually handed to this caller.
  std::size_t delivered = 0;
  for (const Bytes& b : batch.out) delivered += b.size();
  charge_bytes(delivered);
  return std::move(batch.out);
}

void PooledSource::worker_loop() {
  for (;;) {
    std::vector<Batch*> drained;
    {
      LockGuard lock(mu_);
      work_cv_.wait(mu_, [this]() IPCOMP_REQUIRES(mu_) {
        return stop_ || !queue_.empty();
      });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      drained.swap(queue_);
    }
    // Merge every batch queued at this instant into one physical dispatch,
    // deduplicating overlapping demand: two sessions asking for the same
    // segment at the same moment share ONE fetch.  FileSource::read_many
    // then sorts the unique list by offset and coalesces near-adjacent
    // ranges, so demand from different sessions that lands in the same file
    // neighborhood is served by shared bulk reads.
    const std::uint32_t ver = base_.version();
    std::size_t total = 0;
    for (const Batch* b : drained) total += b->ids.size();
    std::vector<SegmentId> merged;
    merged.reserve(total);
    std::unordered_map<std::uint64_t, std::size_t> slot;
    slot.reserve(total);
    for (const Batch* b : drained) {
      for (const SegmentId& id : b->ids) {
        auto [it, inserted] = slot.try_emplace(id.key(ver), merged.size());
        (void)it;
        if (inserted) merged.push_back(id);
      }
    }
    std::vector<Bytes> payloads;
    std::exception_ptr error;
    try {
      payloads = base_.read_many(merged);
      count_read_call();
    } catch (...) {
      // One bad id fails the whole merged dispatch (the base charges
      // nothing); every waiting caller gets the error — a retried execute()
      // re-plans and re-enqueues.
      error = std::current_exception();
    }
    {
      LockGuard lock(mu_);
      if (error) {
        for (Batch* b : drained) {
          b->error = error;
          b->done = true;
        }
        // Drop this copy under mu_, so the last reference dies on a caller,
        // ordered after this thread by the hand-off through mu_.
        error = nullptr;
      } else if (merged.size() == total) {
        // No overlap: hand each payload to its sole requester by move.
        std::size_t off = 0;
        for (Batch* b : drained) {
          b->out.assign(std::make_move_iterator(payloads.begin() + static_cast<std::ptrdiff_t>(off)),
                        std::make_move_iterator(payloads.begin() + static_cast<std::ptrdiff_t>(off + b->ids.size())));
          off += b->ids.size();
          b->done = true;
        }
      } else {
        // Overlap: the shared payload is copied to every requester (each
        // caller owns its bytes; only the physical fetch is shared).
        for (Batch* b : drained) {
          b->out.reserve(b->ids.size());
          for (const SegmentId& id : b->ids) {
            b->out.push_back(payloads[slot.at(id.key(ver))]);
          }
          b->done = true;
        }
      }
    }
    done_cv_.notify_all();
  }
}

}  // namespace ipcomp
