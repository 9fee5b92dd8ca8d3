#include "core/dirty_tracker.hh"

#include <algorithm>

#include "common/logging.hh"

namespace viyojit::core
{

DirtyPageTracker::DirtyPageTracker(std::uint64_t page_count)
{
    VIYOJIT_ASSERT(page_count < npos,
                   "page count exceeds tracker index width");
    position_.assign(page_count, npos);
}

DirtyPageTracker::~DirtyPageTracker() = default;

bool
DirtyPageTracker::markDirty(PageNum page)
{
    VIYOJIT_ASSERT(page < position_.size(), "page out of range");
    if (position_[page] != npos)
        return false;
    position_[page] = static_cast<std::uint32_t>(dirtyList_.size());
    dirtyList_.push_back(page);
    highWatermark_ = std::max<std::uint64_t>(highWatermark_,
                                             dirtyList_.size());
    ++newThisEpoch_;
    return true;
}

bool
DirtyPageTracker::markClean(PageNum page)
{
    VIYOJIT_ASSERT(page < position_.size(), "page out of range");
    const std::uint32_t pos = position_[page];
    if (pos == npos)
        return false;
    // Swap-remove from the dense list.
    const PageNum last = dirtyList_.back();
    dirtyList_[pos] = last;
    position_[last] = pos;
    dirtyList_.pop_back();
    position_[page] = npos;
    return true;
}

bool
DirtyPageTracker::isDirty(PageNum page) const
{
    VIYOJIT_ASSERT(page < position_.size(), "page out of range");
    return position_[page] != npos;
}

void
DirtyPageTracker::forEachDirty(FunctionRef<void(PageNum)> fn) const
{
    for (PageNum page : dirtyList_)
        fn(page);
}

void
DirtyPageTracker::recordCompressibility(std::uint64_t stored,
                                        std::uint64_t raw)
{
    VIYOJIT_ASSERT(raw > 0 && stored > 0 && stored <= raw,
                   "stored size out of range");
    // Scaled stored-fraction, ceil so a byte saved never rounds to a
    // better bucket than it earned.
    const std::uint64_t scaled = (stored * 255 + raw - 1) / raw;
    const auto frac = static_cast<std::uint8_t>(
        std::clamp<std::uint64_t>(scaled, 1, 255));

    const double f = static_cast<double>(stored) /
                     static_cast<double>(raw);
    ewmaFrac_ = compressSamples_ == 0
                    ? f
                    : ewmaFrac_ + (f - ewmaFrac_) / 16.0;
    recentFrac_[recentHead_] = frac;
    recentHead_ = (recentHead_ + 1) % kRecentWindow;
    ++compressSamples_;
}

double
DirtyPageTracker::ewmaRatio() const
{
    if (compressSamples_ == 0 || ewmaFrac_ <= 0.0)
        return 1.0;
    return std::max(1.0, 1.0 / ewmaFrac_);
}

double
DirtyPageTracker::floorRatio() const
{
    if (compressSamples_ == 0)
        return 1.0;
    const std::size_t filled = static_cast<std::size_t>(
        std::min<std::uint64_t>(compressSamples_, kRecentWindow));
    std::uint8_t worst = 1;
    for (std::size_t i = 0; i < filled; ++i)
        worst = std::max(worst, recentFrac_[i]);
    const double floor = 255.0 / worst;
    return std::clamp(floor, 1.0, ewmaRatio());
}

} // namespace viyojit::core
