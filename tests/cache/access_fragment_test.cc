/**
 * @file
 * accessFragment() must be indistinguishable from the per-access
 * loop it replaces: for every cache model, every call returns the
 * twin's per-access miss count and leaves the statistics, the LRU
 * clock and the checkpoint bytes exactly as the twin's.
 */

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/two_level.hh"
#include "geom/rng.hh"
#include "sim/checkpoint.hh"
#include "texture/sampler.hh"

namespace texdist
{
namespace
{

using CacheMaker = std::function<std::unique_ptr<TextureCache>()>;

struct Model
{
    std::string name;
    CacheMaker make;
};

std::vector<Model>
allModels()
{
    std::vector<Model> models;
    // A 1 KB cache thrashes on both streams; the paper's 16 KB one
    // mostly hits. Both cover the miss and the all-MRU paths.
    for (uint32_t size : {1024u, 16u * 1024}) {
        for (uint32_t ways : {1u, 2u, 4u, 8u}) {
            CacheGeometry g{size, ways, 64};
            models.push_back(
                {"setassoc-" + std::to_string(size) + "-" +
                     std::to_string(ways) + "way",
                 [g] { return std::make_unique<SetAssocCache>(g); }});
        }
    }
    for (bool inclusive : {false, true}) {
        std::string mode = inclusive ? "inclusive" : "non-inclusive";
        // A small L2 evicts (and back-invalidates) constantly.
        CacheGeometry l1{1024, 2, 64};
        CacheGeometry l2{4096, 4, 64};
        models.push_back({"two-level-small-" + mode, [=] {
                              return std::make_unique<TwoLevelCache>(
                                  l1, l2, inclusive);
                          }});
        CacheGeometry paper_l1{16 * 1024, 4, 64};
        CacheGeometry paper_l2{256 * 1024, 8, 64};
        models.push_back({"two-level-paper-" + mode, [=] {
                              return std::make_unique<TwoLevelCache>(
                                  paper_l1, paper_l2, inclusive);
                          }});
        // An L2 smaller than the L1 thrashes under L1-resident lines:
        // strict inclusion back-invalidates on most L2 misses, often
        // a line a later reference of the same fragment wants.
        CacheGeometry tiny_l2{4 * 1024, 2, 64};
        models.push_back({"two-level-tiny-l2-" + mode, [=] {
                              return std::make_unique<TwoLevelCache>(
                                  paper_l1, tiny_l2, inclusive);
                          }});
    }
    models.push_back(
        {"perfect", [] { return std::make_unique<PerfectCache>(); }});
    models.push_back({"infinite", [] {
                          return std::make_unique<InfiniteCache>(64);
                      }});
    models.push_back(
        {"none", [] { return std::make_unique<NoCache>(); }});
    return models;
}

/** Uniform texel addresses over 64 KB, with runs of nearby texels. */
std::vector<uint64_t>
randomStream(uint64_t seed, size_t count)
{
    Rng rng(seed);
    std::vector<uint64_t> addrs;
    addrs.reserve(count);
    uint64_t a = 0;
    while (addrs.size() < count) {
        if (rng.chance(0.3))
            a = uint64_t(rng.uniformInt(0, 1 << 16)) & ~uint64_t(3);
        else
            a = (a + uint64_t(rng.uniformInt(0, 3)) * 4) & 0xffff;
        addrs.push_back(a);
    }
    return addrs;
}

/**
 * Real trilinear references: fragments sweeping two textures in
 * scanline order at a slowly varying level of detail, eight
 * TrilinearSampler::generate addresses each.
 */
std::vector<uint64_t>
trilinearStream(size_t fragments)
{
    Texture near_tex(0, 0, 128, 128);
    Texture far_tex(1, 1 << 20, 64, 64);
    std::vector<uint64_t> addrs;
    addrs.reserve(fragments * texelsPerFragment);
    TexelRefs refs;
    for (size_t f = 0; f < fragments; ++f) {
        const Texture &tex = (f / 512) % 2 ? far_tex : near_tex;
        float u = float(f % 48) / 97.0f;
        float v = float((f / 48) % 48) / 89.0f;
        float lod = float(f % 700) / 160.0f - 0.5f;
        TrilinearSampler::generate(tex, u, v, lod, refs);
        addrs.insert(addrs.end(), refs.begin(), refs.end());
    }
    return addrs;
}

std::string
checkpointBytes(const TextureCache &cache)
{
    CheckpointWriter w;
    cache.serialize(w);
    return w.bytes();
}

/** The LRU clock of every set-associative level (none: empty). */
std::vector<uint64_t>
stampClocks(const TextureCache &cache)
{
    if (auto *flat = dynamic_cast<const SetAssocCache *>(&cache))
        return {flat->stampClock()};
    if (auto *two = dynamic_cast<const TwoLevelCache *>(&cache))
        return {two->l1().stampClock(), two->l2().stampClock()};
    return {};
}

/**
 * Feed @p addrs to @p batched in accessFragment() calls of 1..8
 * references and to @p twin one access() at a time, comparing after
 * every call.
 */
void
expectBatchEquivalent(TextureCache &batched, TextureCache &twin,
                      const std::vector<uint64_t> &addrs,
                      const std::string &what)
{
    size_t pos = 0;
    int call = 0;
    while (pos < addrs.size()) {
        // Mostly n = 8 (the fragment case), with every n in 1..7
        // mixed in so that batch boundaries fall everywhere.
        int n = call % 3 == 0 ? 1 + (call / 3) % 8 : 8;
        n = int(std::min<size_t>(size_t(n), addrs.size() - pos));
        uint32_t twin_missed = 0;
        for (int k = 0; k < n; ++k)
            twin_missed += twin.access(addrs[pos + k]) ? 0 : 1;
        uint32_t missed = batched.accessFragment(&addrs[pos], n);
        ASSERT_EQ(missed, twin_missed)
            << what << ": call " << call << " (n=" << n << ")";
        ASSERT_EQ(batched.accesses(), twin.accesses()) << what;
        ASSERT_EQ(batched.misses(), twin.misses()) << what;
        ASSERT_EQ(stampClocks(batched), stampClocks(twin)) << what;
        // The full state compare is the expensive one: every call
        // early on, then every 61st.
        if (call < 200 || call % 61 == 0) {
            // Not ASSERT_EQ: the bytes are binary and kilobytes long.
            ASSERT_TRUE(checkpointBytes(batched) == checkpointBytes(twin))
                << what << ": state diverged at call " << call;
        }
        pos += size_t(n);
        ++call;
    }
    EXPECT_TRUE(checkpointBytes(batched) == checkpointBytes(twin))
        << what;
}

TEST(AccessFragment, MatchesPerAccessLoopOnEveryModel)
{
    const std::vector<uint64_t> random = randomStream(17, 24000);
    const std::vector<uint64_t> trilinear = trilinearStream(3000);
    for (const Model &model : allModels()) {
        for (const auto *stream : {&random, &trilinear}) {
            std::unique_ptr<TextureCache> batched = model.make();
            std::unique_ptr<TextureCache> twin = model.make();
            expectBatchEquivalent(
                *batched, *twin, *stream,
                model.name +
                    (stream == &random ? " / random" : " / trilinear"));
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }
}

TEST(AccessFragment, WarmCacheStaysEquivalentAcrossAReplay)
{
    // Replaying the same stream on a warm cache drives the all-MRU
    // and same-line paths much harder than a cold pass.
    const std::vector<uint64_t> trilinear = trilinearStream(1500);
    SetAssocCache batched(CacheGeometry{});
    SetAssocCache twin(CacheGeometry{});
    for (int pass = 0; pass < 3; ++pass)
        expectBatchEquivalent(batched, twin, trilinear,
                              "pass " + std::to_string(pass));
    EXPECT_GT(batched.hits(), batched.misses());
}

TEST(AccessFragment, PlantedLruSkipKeepsThePerAccessPath)
{
    // The planted bug counts hits one access at a time; armed, the
    // batched path must take exactly the planted per-access route.
    const std::vector<uint64_t> random = randomStream(5, 12000);
    const std::vector<uint64_t> trilinear = trilinearStream(1500);
    SetAssocCache batched(CacheGeometry{2048, 4, 64});
    SetAssocCache twin(CacheGeometry{2048, 4, 64});
    batched.debugPlantLruSkip(7);
    twin.debugPlantLruSkip(7);
    expectBatchEquivalent(batched, twin, random, "planted / random");
    expectBatchEquivalent(batched, twin, trilinear,
                          "planted / trilinear");

    TwoLevelCache two_batched(CacheGeometry{1024, 2, 64},
                              CacheGeometry{4096, 4, 64});
    TwoLevelCache two_twin(CacheGeometry{1024, 2, 64},
                           CacheGeometry{4096, 4, 64});
    two_batched.debugPlantLruSkip(5);
    two_twin.debugPlantLruSkip(5);
    expectBatchEquivalent(two_batched, two_twin, random,
                          "planted two-level");
}

TEST(AccessFragment, MissMaskNamesTheMissingReferences)
{
    SetAssocCache cache(CacheGeometry{});
    const uint64_t refs[4] = {0x0, 0x4, 0x40, 0x0};
    // Line 0 misses, its second texel hits, line 1 misses, line 0
    // is still resident.
    EXPECT_EQ(cache.missMask(refs, 4), 0b0101u);
    EXPECT_EQ(cache.missMask(refs, 4), 0u);
    EXPECT_EQ(cache.accesses(), 8u);
    EXPECT_EQ(cache.misses(), 2u);
}

} // namespace
} // namespace texdist
