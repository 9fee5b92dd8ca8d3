/**
 * @file
 * Tests for the section-7 SSD traffic reducers: content-hash
 * de-duplication and transparent compression, plus the manager's
 * content hashing and measured (pagezip) copy-out sizes.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.hh"
#include "core/manager.hh"
#include "storage/ssd.hh"

namespace viyojit
{
namespace
{

storage::SsdConfig
dedupConfig()
{
    storage::SsdConfig cfg;
    cfg.enableDedup = true;
    return cfg;
}

TEST(SsdDedupTest, IdenticalRewriteElided)
{
    sim::SimContext ctx;
    storage::Ssd ssd(ctx, dedupConfig());
    const storage::StorageKey key{0, 1};
    ssd.writePageSync(key, 42, 4096);
    ctx.events().drain();
    const std::uint64_t bytes_before = ssd.bytesWritten();

    ssd.writePageSync(key, 42, 4096); // identical content
    ctx.events().drain();
    EXPECT_EQ(ssd.bytesWritten(), bytes_before);
    EXPECT_EQ(ssd.dedupHits(), 1u);
}

TEST(SsdDedupTest, ChangedContentStillWritten)
{
    sim::SimContext ctx;
    storage::Ssd ssd(ctx, dedupConfig());
    const storage::StorageKey key{0, 1};
    ssd.writePageSync(key, 42, 4096);
    ctx.events().drain();
    ssd.writePageSync(key, 43, 4096);
    ctx.events().drain();
    EXPECT_EQ(ssd.dedupHits(), 0u);
    EXPECT_EQ(ssd.durableHash(key), 43u);
    EXPECT_EQ(ssd.bytesWritten(), 8192u);
}

TEST(SsdDedupTest, DedupCompletionStillFiresCallback)
{
    sim::SimContext ctx;
    storage::Ssd ssd(ctx, dedupConfig());
    const storage::StorageKey key{0, 1};
    ssd.writePageSync(key, 7, 4096);
    ctx.events().drain();
    bool fired = false;
    ssd.writePage(key, 7, 4096, [&]() { fired = true; });
    ctx.events().drain();
    EXPECT_TRUE(fired);
    EXPECT_EQ(ssd.outstanding(), 0u);
}

TEST(SsdCompressionTest, CompressedBytesReduceTraffic)
{
    sim::SimContext ctx;
    storage::SsdConfig cfg;
    cfg.enableCompression = true;
    storage::Ssd ssd(ctx, cfg);
    ssd.writePageSync({0, 1}, 1, 4096, 512);
    ctx.events().drain();
    EXPECT_EQ(ssd.bytesWritten(), 512u);
    EXPECT_EQ(ssd.logicalBytesWritten(), 4096u);
}

TEST(SsdCompressionTest, IgnoredWhenDisabled)
{
    sim::SimContext ctx;
    storage::Ssd ssd(ctx, storage::SsdConfig{});
    ssd.writePageSync({0, 1}, 1, 4096, 512);
    ctx.events().drain();
    EXPECT_EQ(ssd.bytesWritten(), 4096u);
}

TEST(SsdCompressionTest, CompressedTransferIsFaster)
{
    sim::SimContext ctx;
    storage::SsdConfig cfg;
    cfg.enableCompression = true;
    cfg.perIoLatency = 0;
    cfg.maxIops = 1e9;
    storage::Ssd ssd(ctx, cfg);
    const Tick small = ssd.writePageSync({0, 1}, 1, 1_MiB, 64_KiB);
    ctx.events().drain();
    sim::SimContext ctx2;
    storage::Ssd plain(ctx2, storage::SsdConfig{});
    const Tick big = plain.writePageSync({0, 1}, 1, 1_MiB);
    EXPECT_LT(small, big);
}

// ---------------------------------------------------------------------
// Manager content hashing and estimation
// ---------------------------------------------------------------------

struct HashFixture : public ::testing::Test
{
    HashFixture()
        : ssd(ctx, storage::SsdConfig{}),
          manager(ctx, ssd, makeConfig(), mmu::MmuCostModel{}, 16)
    {
        base = manager.vmmap(8 * defaultPageSize);
    }

    static core::ViyojitConfig
    makeConfig()
    {
        core::ViyojitConfig cfg;
        cfg.dirtyBudgetPages = 8;
        return cfg;
    }

    sim::SimContext ctx;
    storage::Ssd ssd;
    core::ViyojitManager manager;
    Addr base = 0;
};

TEST_F(HashFixture, ContentHashChangesWithContent)
{
    const std::uint64_t before = manager.pageContentHash(0);
    manager.memWrite(base, "x", 1);
    EXPECT_NE(manager.pageContentHash(0), before);
}

TEST_F(HashFixture, IdenticalPagesHashEqual)
{
    manager.memWrite(base, "same", 4);
    manager.memWrite(base + defaultPageSize, "same", 4);
    EXPECT_EQ(manager.pageContentHash(0), manager.pageContentHash(1));
}

TEST_F(HashFixture, MeasurementOffWithoutSsdCompression)
{
    // HashFixture's SSD has compression disabled: every page stores
    // raw (0) no matter how compressible.
    EXPECT_EQ(manager.measuredStoredSize(0), 0u);
}

/** Same manager over a compression-enabled SSD. */
struct ZipFixture : public ::testing::Test
{
    static storage::SsdConfig
    zipConfig()
    {
        storage::SsdConfig cfg;
        cfg.enableCompression = true;
        return cfg;
    }

    ZipFixture()
        : ssd(ctx, zipConfig()),
          manager(ctx, ssd, HashFixture::makeConfig(),
                  mmu::MmuCostModel{}, 16)
    {
        base = manager.vmmap(8 * defaultPageSize);
    }

    sim::SimContext ctx;
    storage::Ssd ssd;
    core::ViyojitManager manager;
    Addr base = 0;
};

TEST_F(ZipFixture, ZeroPageCompressesHard)
{
    const std::uint64_t stored = manager.measuredStoredSize(0);
    ASSERT_GT(stored, 0u);
    EXPECT_LT(stored, defaultPageSize / 4);
}

TEST_F(ZipFixture, RandomPageBypassesToRaw)
{
    Rng rng(11);
    std::vector<char> noise(defaultPageSize);
    for (char &c : noise)
        c = static_cast<char>(rng.nextBounded(256));
    manager.memWrite(base, noise.data(), noise.size());
    EXPECT_EQ(manager.measuredStoredSize(0), 0u);
}

TEST_F(ZipFixture, MeasuredRatioFeedsTracker)
{
    manager.memWrite(base, "compress me", 11);
    (void)manager.measuredStoredSize(0);
    const auto &tracker = manager.controller().tracker();
    EXPECT_EQ(tracker.compressionSamples(), 1u);
    EXPECT_GT(tracker.ewmaRatio(), 2.0);
}

TEST_F(ZipFixture, CompressedFlushCommitsStoredLength)
{
    manager.memWrite(base, "abcabcabc", 9);
    manager.powerFailureFlush();
    ASSERT_TRUE(manager.verifyDurability());
    const auto &meta = manager.sidecarEntry(0);
    ASSERT_TRUE(meta.valid);
    EXPECT_GT(meta.storedLength, 0u);
    EXPECT_LT(meta.storedLength, defaultPageSize);
    // The device transferred the compressed size, not the raw page.
    EXPECT_LT(ssd.bytesWritten(), ssd.logicalBytesWritten());
}

TEST_F(HashFixture, DurabilityIsContentBased)
{
    manager.memWrite(base, "abc", 3);
    manager.powerFailureFlush();
    ASSERT_TRUE(manager.verifyDurability());
    // Overwrite with identical content: still durable by content.
    manager.memWrite(base, "abc", 3);
    EXPECT_TRUE(manager.verifyDurability());
    // Different content: no longer durable until flushed.
    manager.memWrite(base, "xyz", 3);
    EXPECT_FALSE(manager.verifyDurability());
    manager.powerFailureFlush();
    EXPECT_TRUE(manager.verifyDurability());
}

} // namespace
} // namespace viyojit
