/** @file Unit tests for the two-level texture cache. */

#include <string>

#include <gtest/gtest.h>

#include "cache/two_level.hh"
#include "geom/rng.hh"
#include "sim/checkpoint.hh"

namespace texdist
{
namespace
{

CacheGeometry
l1Geom()
{
    return CacheGeometry{16 * 1024, 4, 64};
}

CacheGeometry
l2Geom()
{
    return CacheGeometry{256 * 1024, 8, 64};
}

TEST(TwoLevelCache, ColdMissFillsBothLevels)
{
    TwoLevelCache cache(l1Geom(), l2Geom());
    EXPECT_FALSE(cache.access(0x1000));
    EXPECT_EQ(cache.misses(), 1u);   // external
    EXPECT_EQ(cache.l1Misses(), 1u);
    EXPECT_TRUE(cache.access(0x1000)); // L1 hit
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.accesses(), 2u);
}

TEST(TwoLevelCache, L2CatchesL1CapacityMisses)
{
    TwoLevelCache cache(l1Geom(), l2Geom());
    // Walk 64KB (4x the L1, well within the L2) twice.
    for (int walk = 0; walk < 2; ++walk)
        for (uint64_t a = 0; a < 64 * 1024; a += 64)
            cache.access(a);
    // Second walk misses L1 but hits L2: external misses stay at
    // the compulsory 1024.
    EXPECT_EQ(cache.misses(), 1024u);
    EXPECT_EQ(cache.l1Misses(), 2048u);
    EXPECT_EQ(cache.l2Hits(), 1024u);
}

TEST(TwoLevelCache, ExternalTrafficNeverExceedsSingleLevel)
{
    TwoLevelCache two(l1Geom(), l2Geom());
    SetAssocCache one(l1Geom());
    Rng rng(31);
    for (int i = 0; i < 100000; ++i) {
        uint64_t addr = uint64_t(rng.uniformInt(0, 1 << 19));
        two.access(addr);
        one.access(addr);
    }
    EXPECT_LE(two.misses(), one.misses());
    // And L1 behaviour is identical to the standalone L1.
    EXPECT_EQ(two.l1Misses(), one.misses());
}

TEST(TwoLevelCache, InterFrameReuseSurvivesL1Eviction)
{
    // A 128KB working set streamed twice: frame 2 is almost free at
    // the external interface.
    TwoLevelCache cache(l1Geom(), l2Geom());
    for (uint64_t a = 0; a < 128 * 1024; a += 4)
        cache.access(a);
    uint64_t frame1 = cache.misses();
    for (uint64_t a = 0; a < 128 * 1024; a += 4)
        cache.access(a);
    EXPECT_EQ(cache.misses(), frame1); // all L2 hits
}

TEST(TwoLevelCache, ResetClearsBothLevels)
{
    TwoLevelCache cache(l1Geom(), l2Geom());
    cache.access(0x40);
    cache.reset();
    EXPECT_EQ(cache.accesses(), 0u);
    EXPECT_EQ(cache.l1Misses(), 0u);
    EXPECT_FALSE(cache.access(0x40));
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(TwoLevelCache, TexelsPerFillFromL2Line)
{
    TwoLevelCache cache(l1Geom(), l2Geom());
    EXPECT_EQ(cache.texelsPerFill(), 16u);
    cache.access(0);
    EXPECT_EQ(cache.texelsFetched(), 16u);
}

/** True when @p cache holds the line containing @p addr. */
bool
holdsLine(const SetAssocCache &cache, uint64_t addr)
{
    uint64_t line = addr & ~uint64_t(63);
    for (uint32_t s = 0; s < cache.numSets(); ++s)
        for (uint32_t w = 0; w < cache.numWays(); ++w)
            if (cache.lineValid(s, w) &&
                cache.lineAddress(s, w) == line)
                return true;
    return false;
}

/** Every valid L1 line is resident in L2. */
bool
inclusionHolds(const TwoLevelCache &cache)
{
    const SetAssocCache &l1 = cache.l1();
    for (uint32_t s = 0; s < l1.numSets(); ++s)
        for (uint32_t w = 0; w < l1.numWays(); ++w)
            if (l1.lineValid(s, w) &&
                !holdsLine(cache.l2(), l1.lineAddress(s, w)))
                return false;
    return true;
}

// A tiny L2 under a bigger L1 is the adversarial shape for
// inclusion: L2 sets thrash while the L1 copy sits untouched. The
// strides below (32-set L2, 64-set L1) make lines 2048 and 6144
// conflict with line 0 in L2 set 0 while landing in L1 set 32, so
// the L2 eviction of line 0 never disturbs L1 set 0 by itself.
TEST(TwoLevelCache, DefaultHierarchyLetsL1OutliveL2)
{
    TwoLevelCache cache(CacheGeometry{16 * 1024, 4, 64},
                        CacheGeometry{4 * 1024, 2, 64});
    ASSERT_FALSE(cache.inclusive());
    cache.access(0);    // fills both levels
    cache.access(2048); // L2 set 0: {2048, 0}
    cache.access(6144); // L2 evicts line 0
    EXPECT_FALSE(holdsLine(cache.l2(), 0));
    // The independently-aging default keeps the L1 copy alive: the
    // documented inclusion violation the strict mode exists to
    // prevent.
    EXPECT_TRUE(cache.access(0));
    EXPECT_FALSE(inclusionHolds(cache));
}

TEST(TwoLevelCache, StrictInclusionBackInvalidatesL1)
{
    TwoLevelCache cache(CacheGeometry{16 * 1024, 4, 64},
                        CacheGeometry{4 * 1024, 2, 64},
                        /*inclusive=*/true);
    ASSERT_TRUE(cache.inclusive());
    cache.access(0);
    cache.access(2048);
    cache.access(6144); // L2 evicts line 0 -> back-invalidates L1
    EXPECT_FALSE(holdsLine(cache.l1(), 0));
    EXPECT_FALSE(cache.access(0)); // genuine re-fetch
    EXPECT_TRUE(inclusionHolds(cache));
}

TEST(TwoLevelCache, StrictInclusionHoldsUnderRandomTraffic)
{
    TwoLevelCache cache(CacheGeometry{16 * 1024, 4, 64},
                        CacheGeometry{8 * 1024, 2, 64},
                        /*inclusive=*/true);
    Rng rng(97);
    for (int i = 0; i < 20000; ++i) {
        cache.access(uint64_t(rng.uniformInt(0, 1 << 16)));
        if (i % 1000 == 999) {
            ASSERT_TRUE(inclusionHolds(cache)) << "after access " << i;
        }
    }
    // Structural sanity survives the churn too.
    EXPECT_EQ(cache.l1().stampClock(), cache.accesses());
}

TEST(TwoLevelCache, EvictionUnderInterframeWarmStart)
{
    // Warm a strict hierarchy (frame 1), checkpoint it, restore into
    // a cold instance, and drive frame 2 on both: the restored cache
    // must evict and miss identically, and inclusion must hold
    // throughout — the interframe warm-start path exercises
    // unserialize's LRU-stamp reconstruction.
    TwoLevelCache warm(CacheGeometry{16 * 1024, 4, 64},
                       CacheGeometry{8 * 1024, 2, 64},
                       /*inclusive=*/true);
    Rng frame1(11);
    for (int i = 0; i < 5000; ++i)
        warm.access(uint64_t(frame1.uniformInt(0, 1 << 15)));

    std::string path = ::testing::TempDir() + "/two_level_warm.ckpt";
    CheckpointWriter w;
    warm.serialize(w);
    w.writeFile(path);

    TwoLevelCache restored(CacheGeometry{16 * 1024, 4, 64},
                           CacheGeometry{8 * 1024, 2, 64},
                           /*inclusive=*/true);
    CheckpointReader r(path);
    restored.unserialize(r);
    EXPECT_EQ(restored.accesses(), warm.accesses());
    EXPECT_EQ(restored.misses(), warm.misses());
    EXPECT_TRUE(inclusionHolds(restored));

    Rng frame2(12);
    for (int i = 0; i < 5000; ++i) {
        uint64_t addr = uint64_t(frame2.uniformInt(0, 1 << 15));
        EXPECT_EQ(warm.access(addr), restored.access(addr));
    }
    EXPECT_EQ(restored.misses(), warm.misses());
    EXPECT_EQ(restored.l1Misses(), warm.l1Misses());
    EXPECT_TRUE(inclusionHolds(restored));
}

TEST(SetAssocCache, MruFastPathMissesAfterInvalidate)
{
    // invalidate() leaves the per-set MRU hint pointing at the dead
    // way — exactly the state back-invalidation creates. The fast
    // path must fall through to a genuine miss, refill, and keep the
    // stamp clock consistent with the access count.
    SetAssocCache cache(CacheGeometry{16 * 1024, 4, 64});
    cache.access(0x1000);
    EXPECT_TRUE(cache.access(0x1000)); // MRU hint now points at it
    cache.invalidate(0x1000);
    EXPECT_FALSE(holdsLine(cache, 0x1000));
    EXPECT_FALSE(cache.access(0x1000)); // stale hint must not hit
    EXPECT_TRUE(cache.access(0x1000));
    EXPECT_EQ(cache.stampClock(), cache.accesses());
}

TEST(SetAssocCache, EvictionPicksLruVictimAcrossInvalidate)
{
    // Fill one set in a known recency order, invalidate the MRU
    // line, and check the next conflict evicts nothing (the freed
    // way is reused) while the one after evicts the true LRU line.
    SetAssocCache cache(CacheGeometry{16 * 1024, 4, 64});
    uint64_t stride = 64 * 64; // same set, different tags
    for (uint64_t k = 0; k < 4; ++k)
        cache.access(k * stride); // recency order: 3 > 2 > 1 > 0
    cache.invalidate(3 * stride);

    uint64_t evicted_addr = 0;
    bool evicted = false;
    EXPECT_FALSE(cache.accessEvicting(4 * stride, evicted_addr,
                                      evicted));
    EXPECT_FALSE(evicted); // took the invalidated way
    EXPECT_FALSE(cache.accessEvicting(5 * stride, evicted_addr,
                                      evicted));
    EXPECT_TRUE(evicted);
    EXPECT_EQ(evicted_addr, 0u); // line 0 was least recent
}

} // namespace
} // namespace texdist
