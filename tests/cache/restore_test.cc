/**
 * @file
 * A restored cache continues exactly like the cache it was saved
 * from. MRU hits store no stamp, so a restore must point each set's
 * MRU hint at the set's newest way again; these tests save warm
 * caches whose MRU ways are not way 0, restore them, and drive the
 * same trilinear continuation through the restored cache and an
 * unrestored twin.
 */

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/two_level.hh"
#include "oracle/shadow.hh"
#include "sim/checkpoint.hh"
#include "texture/sampler.hh"

namespace texdist
{
namespace
{

/**
 * Trilinear references of @p fragments pixels sweeping a 128x128
 * texture in scanline order from texel row @p row0, at a slowly
 * varying level of detail: eight TrilinearSampler::generate
 * addresses each.
 */
std::vector<uint64_t>
trilinearStream(size_t fragments, int row0)
{
    Texture tex(0, 0, 128, 128);
    std::vector<uint64_t> addrs;
    TexelRefs refs;
    for (size_t f = 0; f < fragments; ++f) {
        float u = float(f % 40) / 83.0f;
        float v = float(row0 + int(f / 40)) / 91.0f;
        float lod = float(f % 300) / 120.0f - 0.4f;
        TrilinearSampler::generate(tex, u, v, lod, refs);
        addrs.insert(addrs.end(), refs.begin(), refs.end());
    }
    return addrs;
}

/** Every set-associative level of @p cache, outermost last. */
std::vector<const SetAssocCache *>
levels(const TextureCache &cache)
{
    if (auto *flat = dynamic_cast<const SetAssocCache *>(&cache))
        return {flat};
    auto &two = dynamic_cast<const TwoLevelCache &>(cache);
    return {&two.l1(), &two.l2()};
}

/** Sets whose MRU way is a valid way other than way 0. */
uint32_t
setsWithMruPastWayZero(const SetAssocCache &cache)
{
    uint32_t count = 0;
    for (uint32_t s = 0; s < cache.numSets(); ++s)
        if (cache.mruHint(s) != 0 &&
            cache.lineValid(s, cache.mruHint(s)))
            ++count;
    return count;
}

/** Recency order of every set, MRU first, as ReferenceLru sees it. */
std::vector<std::vector<uint64_t>>
recencyOrder(const SetAssocCache &cache)
{
    ReferenceLru ref(cache.geometry());
    ref.seedFrom(cache);
    std::vector<std::vector<uint64_t>> order;
    for (uint32_t s = 0; s < cache.numSets(); ++s)
        order.push_back(ref.setLines(s));
    return order;
}

/**
 * Run one fragment through @p cache: the miss mask for a flat
 * cache, the L1 miss count for a hierarchy.
 */
uint32_t
fragmentResult(TextureCache &cache, const uint64_t *refs)
{
    if (auto *flat = dynamic_cast<SetAssocCache *>(&cache))
        return flat->missMask(refs, texelsPerFragment);
    return cache.accessFragment(refs, texelsPerFragment);
}

std::string
checkpointBytes(const TextureCache &cache)
{
    CheckpointWriter w;
    cache.serialize(w);
    return w.bytes();
}

/**
 * Warm @p twin, save it into @p restored, then drive one
 * continuation through both and require identical behaviour.
 */
void
expectRestoreContinuesLikeTwin(TextureCache &twin,
                               TextureCache &restored)
{
    const std::vector<uint64_t> warm = trilinearStream(6000, 0);
    for (size_t pos = 0; pos < warm.size(); pos += texelsPerFragment)
        twin.accessFragment(&warm[pos], texelsPerFragment);
    for (const SetAssocCache *level : levels(twin))
        ASSERT_GT(setsWithMruPastWayZero(*level), 0u);

    CheckpointWriter w;
    twin.serialize(w);
    CheckpointReader r("warm", w.bytes());
    restored.unserialize(r);

    const auto twin_levels = levels(twin);
    const auto restored_levels = levels(restored);
    for (size_t l = 0; l < twin_levels.size(); ++l) {
        for (uint32_t s = 0; s < twin_levels[l]->numSets(); ++s)
            ASSERT_EQ(restored_levels[l]->mruHint(s),
                      twin_levels[l]->mruHint(s))
                << "level " << l << " set " << s;
        ASSERT_EQ(recencyOrder(*restored_levels[l]),
                  recencyOrder(*twin_levels[l]))
            << "level " << l;
    }

    // First touch every set's least recent line, level by level:
    // behind a stale hint that hit would keep its old stamp, and the
    // set's next eviction would take it. Then revisit the warm rows
    // and move on to new ones (evictions everywhere).
    std::vector<uint64_t> next;
    for (const SetAssocCache *level : twin_levels) {
        for (uint32_t s = 0; s < level->numSets(); ++s) {
            uint32_t oldest = level->numWays();
            for (uint32_t way = 0; way < level->numWays(); ++way)
                if (level->lineValid(s, way) &&
                    (oldest == level->numWays() ||
                     level->lineStamp(s, way) <
                         level->lineStamp(s, oldest)))
                    oldest = way;
            if (oldest < level->numWays())
                next.push_back(level->lineAddress(s, oldest));
        }
    }
    next.resize((next.size() + texelsPerFragment - 1) /
                    texelsPerFragment * texelsPerFragment,
                next.back());
    const std::vector<uint64_t> fresh = trilinearStream(6000, 100);
    next.insert(next.end(), fresh.begin(), fresh.end());
    for (size_t pos = 0; pos < next.size(); pos += texelsPerFragment) {
        ASSERT_EQ(fragmentResult(restored, &next[pos]),
                  fragmentResult(twin, &next[pos]))
            << "fragment " << pos / texelsPerFragment;
        for (size_t l = 0; l < twin_levels.size(); ++l)
            ASSERT_EQ(recencyOrder(*restored_levels[l]),
                      recencyOrder(*twin_levels[l]))
                << "level " << l << ", fragment "
                << pos / texelsPerFragment;
    }
    EXPECT_EQ(restored.accesses(), twin.accesses());
    EXPECT_EQ(restored.misses(), twin.misses());
    for (size_t l = 0; l < twin_levels.size(); ++l) {
        EXPECT_EQ(restored_levels[l]->accesses(),
                  twin_levels[l]->accesses());
        EXPECT_EQ(restored_levels[l]->misses(),
                  twin_levels[l]->misses());
        EXPECT_EQ(recencyOrder(*restored_levels[l]),
                  recencyOrder(*twin_levels[l]))
            << "level " << l;
    }
    EXPECT_TRUE(checkpointBytes(restored) == checkpointBytes(twin));
}

TEST(CacheRestore, SetAssocContinuesLikeItsTwin)
{
    SetAssocCache twin(CacheGeometry{4 * 1024, 4, 64});
    SetAssocCache restored(CacheGeometry{4 * 1024, 4, 64});
    expectRestoreContinuesLikeTwin(twin, restored);
}

TEST(CacheRestore, TwoLevelContinuesLikeItsTwin)
{
    TwoLevelCache twin(CacheGeometry{2 * 1024, 4, 64},
                       CacheGeometry{8 * 1024, 4, 64});
    TwoLevelCache restored(CacheGeometry{2 * 1024, 4, 64},
                           CacheGeometry{8 * 1024, 4, 64});
    expectRestoreContinuesLikeTwin(twin, restored);
}

TEST(CacheRestore, HintNamesTheNewestWayAfterRestore)
{
    // Fill one set in the order 0, 1, 2, 3, then touch way 1 again:
    // the newest way is 1. A restore must not start from way 0.
    SetAssocCache cache(CacheGeometry{16 * 1024, 4, 64});
    const uint64_t stride = 64 * 64; // same set, different tags
    for (uint64_t k = 0; k < 4; ++k)
        cache.access(k * stride);
    cache.access(1 * stride);
    ASSERT_EQ(cache.mruHint(0), 1u);

    CheckpointWriter w;
    cache.serialize(w);
    SetAssocCache restored(CacheGeometry{16 * 1024, 4, 64});
    CheckpointReader r("one-set", w.bytes());
    restored.unserialize(r);
    EXPECT_EQ(restored.mruHint(0), 1u);

    // Touch line 0 (way 0): the order is now 0, 1, 3, 2, so the
    // next conflict evicts line 2 in both caches.
    for (SetAssocCache *c : {&cache, &restored}) {
        EXPECT_TRUE(c->access(0));
        uint64_t evicted_addr = 0;
        bool evicted = false;
        EXPECT_FALSE(c->accessEvicting(4 * stride, evicted_addr,
                                       evicted));
        ASSERT_TRUE(evicted);
        EXPECT_EQ(evicted_addr, 2 * stride);
    }
    EXPECT_TRUE(checkpointBytes(restored) == checkpointBytes(cache));
}

} // namespace
} // namespace texdist
