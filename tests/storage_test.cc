/**
 * @file
 * Unit tests for the SSD model: timing, durability image, queue
 * limits, and wear accounting.
 */

#include <gtest/gtest.h>

#include "storage/ssd.hh"

namespace viyojit::storage
{
namespace
{

SsdConfig
fastConfig()
{
    SsdConfig cfg;
    cfg.writeBandwidth = 1.0e9; // 1 GB/s
    cfg.readBandwidth = 2.0e9;
    cfg.perIoLatency = 10_us;
    cfg.maxIops = 1.0e6;
    cfg.queueDepth = 4;
    return cfg;
}

TEST(SsdTest, WriteCompletionTimeIncludesTransferAndLatency)
{
    sim::SimContext ctx;
    Ssd ssd(ctx, fastConfig());
    // 4 KiB at 1 GB/s ~= 4096 ns transfer + 10 us latency.
    const Tick done =
        ssd.writePageSync({0, 1}, 1, 4096);
    EXPECT_GE(done, 4096u + 10000u);
    EXPECT_LE(done, 4096u + 10000u + 1000u);
}

TEST(SsdTest, DurabilityAtCompletionNotSubmission)
{
    sim::SimContext ctx;
    Ssd ssd(ctx, fastConfig());
    const StorageKey key{0, 7};
    ssd.writePageSync(key, 99, 4096);
    EXPECT_FALSE(ssd.hasPage(key)); // not yet durable
    ctx.events().drain();
    EXPECT_TRUE(ssd.hasPage(key));
    EXPECT_EQ(ssd.durableHash(key), 99u);
}

TEST(SsdTest, BandwidthSerializesTransfers)
{
    sim::SimContext ctx;
    Ssd ssd(ctx, fastConfig());
    const Tick first = ssd.writePageSync({0, 1}, 1, 1000000);
    const Tick second = ssd.writePageSync({0, 2}, 1, 1000000);
    // The second transfer starts after the first finishes the channel.
    EXPECT_GE(second, first + 1000000 - 10000);
}

TEST(SsdTest, CallbackFires)
{
    sim::SimContext ctx;
    Ssd ssd(ctx, fastConfig());
    bool fired = false;
    ssd.writePage({0, 3}, 5, 4096, [&]() { fired = true; });
    EXPECT_FALSE(fired);
    ctx.events().drain();
    EXPECT_TRUE(fired);
}

TEST(SsdTest, OutstandingTracksInFlight)
{
    sim::SimContext ctx;
    Ssd ssd(ctx, fastConfig());
    EXPECT_EQ(ssd.outstanding(), 0u);
    ssd.writePageSync({0, 1}, 1, 4096);
    ssd.writePageSync({0, 2}, 1, 4096);
    EXPECT_EQ(ssd.outstanding(), 2u);
    ctx.events().drain();
    EXPECT_EQ(ssd.outstanding(), 0u);
}

TEST(SsdTest, CanAcceptRespectsQueueDepth)
{
    sim::SimContext ctx;
    Ssd ssd(ctx, fastConfig());
    for (unsigned i = 0; i < 4; ++i) {
        EXPECT_TRUE(ssd.canAccept());
        ssd.writePageSync({0, i}, 1, 4096);
    }
    EXPECT_FALSE(ssd.canAccept());
    ctx.events().drain();
    EXPECT_TRUE(ssd.canAccept());
}

TEST(SsdTest, WearAccounting)
{
    sim::SimContext ctx;
    Ssd ssd(ctx, fastConfig());
    ssd.writePageSync({0, 1}, 1, 4096);
    ssd.writePageSync({0, 2}, 1, 4096);
    ctx.events().drain();
    EXPECT_EQ(ssd.bytesWritten(), 8192u);
    EXPECT_EQ(ssd.pageWriteCount(), 2u);
}

TEST(SsdTest, RewriteUpdatesHash)
{
    sim::SimContext ctx;
    Ssd ssd(ctx, fastConfig());
    const StorageKey key{1, 5};
    ssd.writePageSync(key, 1, 4096);
    ctx.events().drain();
    ssd.writePageSync(key, 2, 4096);
    ctx.events().drain();
    EXPECT_EQ(ssd.durableHash(key), 2u);
}

TEST(SsdTest, RegionsAreIndependent)
{
    sim::SimContext ctx;
    Ssd ssd(ctx, fastConfig());
    ssd.writePageSync({0, 5}, 11, 4096);
    ssd.writePageSync({1, 5}, 22, 4096);
    ctx.events().drain();
    EXPECT_EQ(ssd.durableHash({0, 5}), 11u);
    EXPECT_EQ(ssd.durableHash({1, 5}), 22u);
}

TEST(SsdTest, ReadModelsLatency)
{
    sim::SimContext ctx;
    Ssd ssd(ctx, fastConfig());
    bool fired = false;
    const Tick done = ssd.readPage({0, 1}, 4096, [&]() { fired = true; });
    EXPECT_GT(done, 0u);
    ctx.events().drain();
    EXPECT_TRUE(fired);
}

TEST(SsdTest, IopsGateSpacesSmallIos)
{
    sim::SimContext ctx;
    SsdConfig cfg = fastConfig();
    cfg.maxIops = 1000.0; // 1 ms between admissions
    cfg.queueDepth = 16;
    Ssd ssd(ctx, cfg);
    const Tick a = ssd.writePageSync({0, 1}, 1, 512);
    const Tick b = ssd.writePageSync({0, 2}, 1, 512);
    EXPECT_GE(b - a, 1_ms - 10_us);
}

TEST(SsdTest, ResetClearsEverything)
{
    sim::SimContext ctx;
    Ssd ssd(ctx, fastConfig());
    ssd.writePageSync({0, 1}, 7, 4096);
    ctx.events().drain();
    ssd.reset();
    EXPECT_EQ(ssd.bytesWritten(), 0u);
    EXPECT_FALSE(ssd.hasPage({0, 1}));
    EXPECT_EQ(ssd.outstanding(), 0u);
}

TEST(SsdTest, UnwrittenPageHasZeroHash)
{
    sim::SimContext ctx;
    Ssd ssd(ctx, fastConfig());
    EXPECT_EQ(ssd.durableHash({9, 9}), 0u);
    EXPECT_FALSE(ssd.hasPage({9, 9}));
}

} // namespace
} // namespace viyojit::storage
