#include "storage/ssd.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace viyojit::storage
{

Ssd::Ssd(sim::SimContext &ctx, const SsdConfig &config)
    : ctx_(ctx), config_(config)
{
    VIYOJIT_ASSERT(config.writeBandwidth > 0, "zero write bandwidth");
    VIYOJIT_ASSERT(config.readBandwidth > 0, "zero read bandwidth");
    VIYOJIT_ASSERT(config.maxIops > 0, "zero IOPS cap");
    VIYOJIT_ASSERT(config.queueDepth > 0, "zero queue depth");
}

void
Ssd::setFaultModel(std::unique_ptr<FaultModel> model)
{
    faultModel_ = std::move(model);
}

double
Ssd::effectiveWriteBandwidth() const
{
    const double factor =
        faultModel_ ? faultModel_->bandwidthFactor() : 1.0;
    return config_.writeBandwidth * factor;
}

Tick
Ssd::scheduleIo(std::uint64_t bytes, double bandwidth,
                double latency_multiplier, Tick extra_latency)
{
    const Tick now = ctx_.now();

    // IOPS limiter: one admission slot every 1/maxIops seconds.
    const Tick iops_gap = secondsToTicks(1.0 / config_.maxIops);
    const Tick admit = std::max(now, iopsGate_);
    iopsGate_ = admit + iops_gap;

    // Bandwidth channel: transfers serialize.  Wear degradation
    // stretches every transfer.
    const double factor =
        faultModel_ ? faultModel_->bandwidthFactor() : 1.0;
    const Tick transfer = secondsToTicks(
        static_cast<double>(bytes) / (bandwidth * factor));
    const Tick start = std::max(admit, channelFree_);
    channelFree_ = start + transfer;

    const Tick latency = static_cast<Tick>(
        static_cast<double>(config_.perIoLatency) * latency_multiplier);
    return channelFree_ + latency + extra_latency;
}

Tick
Ssd::submitWrite(StorageKey key, std::uint64_t content_hash,
                 std::uint64_t bytes, IoCallback on_complete,
                 std::uint64_t compressed_bytes)
{
    VIYOJIT_ASSERT(canAccept(), "SSD queue depth exceeded");

    if (config_.enableDedup) {
        auto it = image_.find(key);
        if (it != image_.end() && it->second == content_hash) {
            // Content already durable: acknowledge without IO (and
            // without a fault draw — nothing is transferred).
            ++dedupHits_;
            const Tick done = ctx_.now();
            ++outstanding_;
            ctx_.events().schedule(done,
                                   [this, cb = std::move(on_complete)]() {
                --outstanding_;
                if (cb)
                    cb(IoStatus::ok);
            });
            return done;
        }
    }

    std::uint64_t transfer = bytes;
    if (config_.enableCompression && compressed_bytes > 0 &&
        compressed_bytes < bytes) {
        transfer = compressed_bytes;
    }

    FaultModel::Decision decision;
    if (faultModel_) {
        maxPage_[key.regionId] =
            std::max(maxPage_[key.regionId], key.page);
        decision = faultModel_->onWriteSubmit(key.regionId, key.page);
    }

    ++outstanding_;
    const Tick done =
        scheduleIo(transfer, config_.writeBandwidth,
                   decision.latencyMultiplier, decision.extraLatency);
    bytesWritten_ += transfer;
    logicalBytesWritten_ += bytes;
    ++pageWrites_;

    const IoStatus status = decision.status;
    const SilentFaultKind fault = decision.silentFault;
    const std::uint64_t raw = decision.silentFaultRaw;
    ctx_.events().schedule(done, [this, key, content_hash, status,
                                  fault, raw,
                                  cb = std::move(on_complete)]() {
        if (status == IoStatus::ok)
            applyDurableWrite(key, content_hash, fault, raw);
        --outstanding_;
        if (cb)
            cb(status);
    });
    return done;
}

Tick
Ssd::submitWriteRun(StorageKey first, unsigned count,
                    const std::uint64_t *content_hashes,
                    std::uint64_t bytes_per_page,
                    RunCallback on_page_complete,
                    const std::uint64_t *compressed_bytes)
{
    VIYOJIT_ASSERT(canAccept(), "SSD queue depth exceeded");
    VIYOJIT_ASSERT(count > 0, "empty run write");

    std::vector<FaultModel::Decision> decisions(count);
    double latency_multiplier = 1.0;
    Tick extra_latency = 0;
    if (faultModel_) {
        maxPage_[first.regionId] = std::max(
            maxPage_[first.regionId], first.page + count - 1);
        for (unsigned i = 0; i < count; ++i) {
            decisions[i] = faultModel_->onWriteSubmit(first.regionId,
                                                      first.page + i);
            latency_multiplier = std::max(
                latency_multiplier, decisions[i].latencyMultiplier);
            extra_latency += decisions[i].extraLatency;
        }
    }

    ++outstanding_;
    ++outstandingRuns_;
    // Per-page transfer sizes mirror submitWrite: the compressed
    // size rides when compression is on and the page shrank.
    std::uint64_t transfer = 0;
    for (unsigned i = 0; i < count; ++i) {
        std::uint64_t page_transfer = bytes_per_page;
        if (config_.enableCompression && compressed_bytes != nullptr &&
            compressed_bytes[i] > 0 &&
            compressed_bytes[i] < bytes_per_page) {
            page_transfer = compressed_bytes[i];
        }
        transfer += page_transfer;
    }
    const Tick done = scheduleIo(transfer, config_.writeBandwidth,
                                 latency_multiplier, extra_latency);
    bytesWritten_ += transfer;
    logicalBytesWritten_ += bytes_per_page * count;
    pageWrites_ += count;

    std::vector<std::uint64_t> hashes(content_hashes,
                                      content_hashes + count);
    ctx_.events().schedule(
        done, [this, first, decisions = std::move(decisions),
               hashes = std::move(hashes),
               cb = std::move(on_page_complete)]() {
            // Durability is granted page-by-page at the single
            // completion instant: a cut before this event persists
            // nothing of the run, and a page whose slice failed keeps
            // its previous durable image.
            for (unsigned i = 0; i < decisions.size(); ++i)
                if (decisions[i].status == IoStatus::ok)
                    applyDurableWrite(
                        StorageKey{first.regionId, first.page + i},
                        hashes[i], decisions[i].silentFault,
                        decisions[i].silentFaultRaw);
            --outstanding_;
            --outstandingRuns_;
            if (cb)
                for (unsigned i = 0; i < decisions.size(); ++i)
                    cb(i, decisions[i].status);
        });
    return done;
}

Tick
Ssd::submitRead(StorageKey key, std::uint64_t bytes,
                IoCallback on_complete)
{
    VIYOJIT_ASSERT(canAccept(), "SSD queue depth exceeded");

    FaultModel::Decision decision;
    if (faultModel_)
        decision = faultModel_->onReadSubmit(key.regionId, key.page);

    ++outstanding_;
    const Tick done =
        scheduleIo(bytes, config_.readBandwidth,
                   decision.latencyMultiplier, decision.extraLatency);
    const IoStatus status = decision.status;
    ctx_.events().schedule(done, [this, status,
                                  cb = std::move(on_complete)]() {
        --outstanding_;
        if (cb)
            cb(status);
    });
    return done;
}

Tick
Ssd::writePage(StorageKey key, std::uint64_t content_hash,
               std::uint64_t bytes, Callback on_complete,
               std::uint64_t compressed_bytes)
{
    // Status-free wrapper: correct on the ideal device; under fault
    // injection, callers must use submitWrite and handle retries, so
    // an injected error reaching this path is a programming error.
    return submitWrite(
        key, content_hash, bytes,
        [cb = std::move(on_complete)](IoStatus status) {
            if (status != IoStatus::ok)
                panic("injected SSD write error on a fault-unaware "
                      "path; use submitWrite with retry");
            if (cb)
                cb();
        },
        compressed_bytes);
}

Tick
Ssd::writePageSync(StorageKey key, std::uint64_t content_hash,
                   std::uint64_t bytes, std::uint64_t compressed_bytes)
{
    return writePage(key, content_hash, bytes, nullptr,
                     compressed_bytes);
}

Tick
Ssd::readPage(StorageKey key, std::uint64_t bytes, Callback on_complete)
{
    return submitRead(key, bytes,
                      [cb = std::move(on_complete)](IoStatus status) {
                          if (status != IoStatus::ok)
                              panic("injected SSD read error on a "
                                    "fault-unaware path; use "
                                    "submitRead with retry");
                          if (cb)
                              cb();
                      });
}

void
Ssd::applyDurableWrite(StorageKey key, std::uint64_t content_hash,
                       SilentFaultKind fault, std::uint64_t raw)
{
    switch (fault) {
    case SilentFaultKind::none:
        image_[key] = content_hash;
        corrupted_.erase(key);
        return;
    case SilentFaultKind::bitFlip:
        // The medium stored different bits than it was handed: model
        // as a perturbed content hash (the image keeps hashes, not
        // bytes, so any perturbation stands in for any flip).
        image_[key] = content_hash ^ (1ULL << (raw & 63u));
        corrupted_[key] = SilentFaultKind::bitFlip;
        return;
    case SilentFaultKind::droppedWrite:
        // Acknowledged but never reached the medium: old content
        // survives.  Only corrupt if the old image actually differs
        // (a re-write of identical content drops harmlessly).
        if (durableHash(key) != content_hash)
            corrupted_[key] = SilentFaultKind::droppedWrite;
        else
            corrupted_.erase(key);
        return;
    case SilentFaultKind::misdirectedWrite: {
        // The data landed on the wrong page: the target keeps its old
        // (now stale) content and a victim page is clobbered.
        const PageNum span = maxPage_[key.regionId] + 1;
        const StorageKey victim{key.regionId, raw % span};
        if (victim == key) {
            // Misdirected onto itself: lands correctly after all.
            image_[key] = content_hash;
            corrupted_.erase(key);
            return;
        }
        image_[victim] = content_hash;
        corrupted_[victim] = SilentFaultKind::misdirectedWrite;
        if (durableHash(key) != content_hash)
            corrupted_[key] = SilentFaultKind::droppedWrite;
        else
            corrupted_.erase(key);
        return;
    }
    }
}

SilentFaultKind
Ssd::corruptionKind(StorageKey key) const
{
    auto it = corrupted_.find(key);
    return it == corrupted_.end() ? SilentFaultKind::none : it->second;
}

void
Ssd::forEachCorruption(
    const std::function<void(StorageKey, SilentFaultKind)> &fn) const
{
    for (const auto &[key, kind] : corrupted_)
        fn(key, kind);
}

std::uint64_t
Ssd::durableHash(StorageKey key) const
{
    auto it = image_.find(key);
    return it == image_.end() ? 0 : it->second;
}

bool
Ssd::hasPage(StorageKey key) const
{
    return image_.contains(key);
}

void
Ssd::reset()
{
    channelFree_ = 0;
    iopsGate_ = 0;
    outstanding_ = 0;
    outstandingRuns_ = 0;
    bytesWritten_ = 0;
    logicalBytesWritten_ = 0;
    pageWrites_ = 0;
    dedupHits_ = 0;
    image_.clear();
    corrupted_.clear();
    maxPage_.clear();
}

} // namespace viyojit::storage
