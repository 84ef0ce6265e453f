#include "oracle/oracle.hh"

#include <algorithm>

#include "core/error.hh"
#include "raster/raster.hh"
#include "texture/sampler.hh"

namespace texdist
{

namespace
{

std::string
nodeLabel(size_t i)
{
    return "node" + std::to_string(i);
}

} // namespace

OracleEngine::OracleEngine(const MachineConfig &config,
                           OracleMode mode)
    : cfg(config), _mode(mode)
{
}

OracleEngine::~OracleEngine()
{
    for (size_t i = 0; i < nodes.size(); ++i) {
        nodes[i]->setCoverageSink(nullptr);
        if (shadows[i]) {
            // Peel the shadow off: the node gets its original cache
            // back and outlives the oracle unchanged.
            std::unique_ptr<TextureCache> wrapper =
                nodes[i]->takeCacheForOracle();
            nodes[i]->installCacheForOracle(
                shadows[i]->releaseInner());
        }
    }
}

void
OracleEngine::attachNode(TextureNode &node)
{
    ShadowedCache *shadow = nullptr;
    if (_mode == OracleMode::Full &&
        ShadowedCache::canShadow(node.cache())) {
        auto wrapper = std::make_unique<ShadowedCache>(
            node.takeCacheForOracle(), nodeLabel(nodes.size()));
        shadow = wrapper.get();
        node.installCacheForOracle(std::move(wrapper));
    }
    nodes.push_back(&node);
    shadows.push_back(shadow);
}

void
OracleEngine::beginFrame(const Scene &scene)
{
    if (_mode == OracleMode::Off)
        return;
    armed = true;

    if (!coverage || coverage->width() != scene.screenWidth ||
        coverage->height() != scene.screenHeight)
        coverage = std::make_unique<FrameCoverage>(
            scene.screenWidth, scene.screenHeight);
    else
        coverage->reset();

    busAtFrameStart.assign(nodes.size(), BusSnapshot{});
    for (size_t i = 0; i < nodes.size(); ++i) {
        nodes[i]->setCoverageSink(coverage.get());
        if (const TextureBus *bus = nodes[i]->bus()) {
            busAtFrameStart[i].texels = bus->texelsTransferred();
            busAtFrameStart[i].transfers = bus->transfers();
        }
        if (const auto *two_level = dynamic_cast<const TwoLevelCache *>(
                &realCache(*nodes[i])))
            busAtFrameStart[i].l1Misses = two_level->l1Misses();
    }
}

const TextureCache &
OracleEngine::realCache(const TextureNode &node)
{
    const TextureCache &c = node.cache();
    if (const auto *shadow = dynamic_cast<const ShadowedCache *>(&c))
        return shadow->innerCache();
    return c;
}

std::vector<uint32_t>
OracleEngine::checkCoverage(const Scene &scene,
                            std::vector<std::string> &violations)
{
    // Ground truth: an independent rasterization of the scene. This
    // shares the rasterizer with the simulation (the fill rule must
    // match by definition) but none of the dispatch, distribution,
    // FIFO or fault machinery the check exists to verify.
    const uint32_t w = coverage->width();
    const uint32_t h = coverage->height();
    std::vector<uint32_t> expected(size_t(w) * h, 0);
    Rect screen = scene.screenRect();
    for (const TexTriangle &tri : scene.triangles) {
        const Texture &tex = scene.textures.get(tri.tex);
        TriangleRaster(tri, tex.width(), tex.height())
            .forEachCovered(screen, [&](int32_t x, int32_t y) {
                ++expected[size_t(y) * w + size_t(x)];
            });
    }

    if (coverage->outOfBounds() > 0)
        violations.push_back(
            "coverage: " + std::to_string(coverage->outOfBounds()) +
            " fragment(s) drawn outside the screen");

    uint64_t mismatched = 0;
    constexpr uint64_t report = 4;
    for (uint32_t y = 0; y < h; ++y) {
        for (uint32_t x = 0; x < w; ++x) {
            uint32_t want = expected[size_t(y) * w + x];
            uint32_t got = coverage->count(x, y);
            if (want == got)
                continue;
            if (mismatched < report)
                violations.push_back(
                    "coverage: pixel (" + std::to_string(x) + ", " +
                    std::to_string(y) + ") rasterizes to " +
                    std::to_string(want) + " fragment(s) but " +
                    std::to_string(got) + " were drawn");
            ++mismatched;
        }
    }
    if (mismatched > report)
        violations.push_back("coverage: " +
                             std::to_string(mismatched) +
                             " mismatched pixel(s) in total");
    return expected;
}

void
OracleEngine::checkLedger(const Distribution &dist,
                          const std::vector<uint32_t> &expected,
                          const FrameResult &result,
                          std::vector<std::string> &violations,
                          int32_t &first_node)
{
    auto flag = [&](size_t i) {
        if (first_node < 0)
            first_node = int32_t(i);
    };

    // Totals must be the sums of the per-node results they were
    // derived from.
    uint64_t pixels = 0;
    uint64_t texels = 0;
    Tick max_finish = 0;
    for (const NodeResult &nr : result.nodes) {
        pixels += nr.pixels;
        texels += nr.texelsFetched;
        max_finish = std::max(max_finish, nr.finishTime);
    }
    if (pixels != result.totalPixels)
        violations.push_back(
            "fragment conservation: node pixel counts sum to " +
            std::to_string(pixels) + " but totalPixels is " +
            std::to_string(result.totalPixels));
    if (texels != result.totalTexelsFetched)
        violations.push_back(
            "texel conservation: node texel counts sum to " +
            std::to_string(texels) + " but totalTexelsFetched is " +
            std::to_string(result.totalTexelsFetched));

    // Each pixel's reference fragments belong to the node that owns
    // it. When a frame degraded, fragments were rerouted between
    // nodes, so only the total is conserved.
    const std::vector<uint16_t> &owners = dist.ownerMap();
    std::vector<uint64_t> owned(dist.numProcs(), 0);
    uint64_t expected_total = 0;
    for (size_t px = 0; px < expected.size(); ++px) {
        owned[owners[px]] += expected[px];
        expected_total += expected[px];
    }
    if (expected_total != result.totalPixels)
        violations.push_back(
            "pixel coverage: scene rasterizes to " +
            std::to_string(expected_total) +
            " fragments but the frame drew " +
            std::to_string(result.totalPixels));
    if (!result.degraded && owned.size() == result.nodes.size()) {
        for (size_t i = 0; i < owned.size(); ++i) {
            if (owned[i] == result.nodes[i].pixels)
                continue;
            violations.push_back(
                "pixel coverage: " + nodeLabel(i) + " owns " +
                std::to_string(owned[i]) + " fragments but drew " +
                std::to_string(result.nodes[i].pixels));
            flag(i);
        }
    }

    // Every fragment makes exactly texelsPerFragment trilinear
    // references; the perfect cache is bypassed entirely.
    for (size_t i = 0; i < result.nodes.size(); ++i) {
        const NodeResult &nr = result.nodes[i];
        if (nr.cacheMisses > nr.cacheAccesses) {
            violations.push_back(
                "cache accounting: " + nodeLabel(i) + " has " +
                std::to_string(nr.cacheMisses) + " misses but only " +
                std::to_string(nr.cacheAccesses) + " accesses");
            flag(i);
        }
        uint64_t want_accesses =
            cfg.cacheKind == CacheKind::Perfect
                ? 0
                : nr.pixels * uint64_t(texelsPerFragment);
        if (nr.cacheAccesses != want_accesses) {
            violations.push_back(
                "cache accounting: " + nodeLabel(i) + " drew " +
                std::to_string(nr.pixels) + " fragments but made " +
                std::to_string(nr.cacheAccesses) +
                " cache accesses (expected " +
                std::to_string(want_accesses) + ")");
            flag(i);
        }
    }

    // Redistribution after a kill may legally overfill survivors.
    if (!result.degraded &&
        result.fifoMaxOccupancy > cfg.triangleBufferSize)
        violations.push_back(
            "fifo bound: max occupancy " +
            std::to_string(result.fifoMaxOccupancy) +
            " exceeds the configured " +
            std::to_string(cfg.triangleBufferSize) + "-entry buffer");

    // Frame time is the last node's finish relative to the frame
    // start; nodes that did nothing report finish 0.
    if (max_finish > 0 && result.frameTime > max_finish)
        violations.push_back(
            "frame time " + std::to_string(result.frameTime) +
            " exceeds the latest node finish " +
            std::to_string(max_finish));
}

void
OracleEngine::checkConservation(const FrameResult &result,
                                std::vector<std::string> &violations,
                                int32_t &first_node)
{
    auto flag = [&](size_t i) {
        if (first_node < 0)
            first_node = int32_t(i);
    };

    for (size_t i = 0;
         i < nodes.size() && i < result.nodes.size(); ++i) {
        const TextureNode &node = *nodes[i];
        const NodeResult &nr = result.nodes[i];
        const TextureCache &cache = realCache(node);

        // Triangle FIFOs must have drained: the frame is only over
        // when every dispatched triangle was consumed.
        if (node.fifoOccupancy() != 0) {
            violations.push_back(
                "queue conservation: " + nodeLabel(i) +
                " finished the frame with " +
                std::to_string(node.fifoOccupancy()) +
                " triangle(s) still queued");
            flag(i);
        }

        // External texel accounting: misses × fill size, exactly.
        uint64_t fill = cache.texelsPerFill();
        if (nr.texelsFetched != nr.cacheMisses * fill) {
            violations.push_back(
                "texel conservation: " + nodeLabel(i) + " fetched " +
                std::to_string(nr.texelsFetched) + " texels for " +
                std::to_string(nr.cacheMisses) + " misses of " +
                std::to_string(fill) + " texels each");
            flag(i);
        }

        // Bus conservation: the bus moved exactly what the cache
        // hierarchy requested — per line for single-level caches,
        // per L1 fill for the two-level hierarchy (whose board bus
        // carries every L1 miss, L2 hit or not).
        const TextureBus *bus = node.bus();
        if (!bus)
            continue;
        uint64_t bus_texels =
            bus->texelsTransferred() - busAtFrameStart[i].texels;
        uint64_t bus_transfers =
            bus->transfers() - busAtFrameStart[i].transfers;
        uint64_t want_transfers = nr.cacheMisses;
        uint64_t want_texels = nr.texelsFetched;
        if (const auto *two_level =
                dynamic_cast<const TwoLevelCache *>(&cache)) {
            uint64_t l1_misses = two_level->l1Misses() -
                                 busAtFrameStart[i].l1Misses;
            want_transfers = l1_misses;
            want_texels = l1_misses * fill;
        }
        if (bus_transfers != want_transfers ||
            bus_texels != want_texels) {
            violations.push_back(
                "bus conservation: " + nodeLabel(i) + " bus moved " +
                std::to_string(bus_texels) + " texels in " +
                std::to_string(bus_transfers) +
                " transfers, but the cache hierarchy requested " +
                std::to_string(want_texels) + " in " +
                std::to_string(want_transfers));
            flag(i);
        }
    }
}

namespace
{

/** Structural sanity of one set-associative level. */
void
checkLevel(const SetAssocCache &cache, const std::string &what,
           std::vector<std::string> &violations)
{
    if (cache.stampClock() != cache.accesses())
        violations.push_back(
            "cache structure: " + what + " LRU clock at " +
            std::to_string(cache.stampClock()) + " after " +
            std::to_string(cache.accesses()) + " accesses");

    for (uint32_t s = 0; s < cache.numSets(); ++s) {
        if (cache.mruHint(s) >= cache.numWays()) {
            violations.push_back(
                "cache structure: " + what + " set " +
                std::to_string(s) + " MRU hint " +
                std::to_string(cache.mruHint(s)) + " out of range");
            continue;
        }
        // MRU hits store no stamp, so the hint must name the set's
        // newest valid way (or a way invalidated since it was named).
        const uint32_t hint = cache.mruHint(s);
        if (cache.lineValid(s, hint)) {
            for (uint32_t w = 0; w < cache.numWays(); ++w) {
                if (cache.lineValid(s, w) &&
                    cache.lineStamp(s, w) > cache.lineStamp(s, hint)) {
                    violations.push_back(
                        "cache structure: " + what + " set " +
                        std::to_string(s) + " MRU hint names way " +
                        std::to_string(hint) + " (stamp " +
                        std::to_string(cache.lineStamp(s, hint)) +
                        ") but way " + std::to_string(w) +
                        " is newer (stamp " +
                        std::to_string(cache.lineStamp(s, w)) + ")");
                    break;
                }
            }
        }
        for (uint32_t w = 0; w < cache.numWays(); ++w) {
            if (!cache.lineValid(s, w))
                continue;
            if (cache.lineStamp(s, w) > cache.stampClock()) {
                violations.push_back(
                    "cache structure: " + what + " set " +
                    std::to_string(s) + " way " + std::to_string(w) +
                    " stamped " +
                    std::to_string(cache.lineStamp(s, w)) +
                    ", ahead of the clock at " +
                    std::to_string(cache.stampClock()));
            }
            for (uint32_t w2 = w + 1; w2 < cache.numWays(); ++w2) {
                if (!cache.lineValid(s, w2))
                    continue;
                if (cache.lineTag(s, w) == cache.lineTag(s, w2))
                    violations.push_back(
                        "cache structure: " + what + " set " +
                        std::to_string(s) + " holds tag " +
                        std::to_string(cache.lineTag(s, w)) +
                        " in ways " + std::to_string(w) + " and " +
                        std::to_string(w2));
                if (cache.lineStamp(s, w) == cache.lineStamp(s, w2))
                    violations.push_back(
                        "cache structure: " + what + " set " +
                        std::to_string(s) + " ways " +
                        std::to_string(w) + " and " +
                        std::to_string(w2) +
                        " share LRU stamp " +
                        std::to_string(cache.lineStamp(s, w)));
            }
        }
    }
}

} // namespace

void
OracleEngine::checkStructure(std::vector<std::string> &violations,
                             int32_t &first_node)
{
    auto flag = [&](size_t i) {
        if (first_node < 0)
            first_node = int32_t(i);
    };

    for (size_t i = 0; i < nodes.size(); ++i) {
        size_t before = violations.size();

        if (shadows[i]) {
            std::vector<std::string> diverged =
                shadows[i]->drainViolations();
            violations.insert(violations.end(), diverged.begin(),
                              diverged.end());
        }

        const TextureCache &cache = realCache(*nodes[i]);
        const std::string label = nodeLabel(i);
        if (const auto *two_level =
                dynamic_cast<const TwoLevelCache *>(&cache)) {
            checkLevel(two_level->l1(), label + " L1", violations);
            checkLevel(two_level->l2(), label + " L2", violations);
            if (two_level->l1().accesses() != two_level->accesses())
                violations.push_back(
                    "cache structure: " + label + " L1 saw " +
                    std::to_string(two_level->l1().accesses()) +
                    " accesses but the hierarchy counted " +
                    std::to_string(two_level->accesses()));
            if (two_level->l2().accesses() !=
                two_level->l1Misses())
                violations.push_back(
                    "cache structure: " + label + " L2 saw " +
                    std::to_string(two_level->l2().accesses()) +
                    " accesses but L1 missed " +
                    std::to_string(two_level->l1Misses()) +
                    " times");
            if (two_level->inclusive()) {
                const SetAssocCache &l1 = two_level->l1();
                for (uint32_t s = 0; s < l1.numSets(); ++s)
                    for (uint32_t w = 0; w < l1.numWays(); ++w)
                        if (l1.lineValid(s, w) &&
                            !two_level->l2().probe(
                                l1.lineAddress(s, w)))
                            violations.push_back(
                                "cache inclusion: " + label +
                                " L1 line " +
                                std::to_string(
                                    l1.lineAddress(s, w)) +
                                " has no L2 copy (strict L1 ⊆ L2 "
                                "promised)");
            }
        } else if (const auto *flat =
                       dynamic_cast<const SetAssocCache *>(&cache)) {
            checkLevel(*flat, label, violations);
        }

        if (violations.size() != before)
            flag(i);
    }
}

void
OracleEngine::endFrame(uint32_t frame, const Scene &scene,
                       const Distribution *dist,
                       const FrameResult *result, uint64_t end_cycle)
{
    if (!armed)
        return;
    armed = false;
    // Failed frames were cut short mid-work by design:
    // nothing is conserved, and the driver reports the failure
    // through its own exit code.
    if (result && result->failed)
        return;

    std::vector<std::string> violations;
    int32_t first_node = -1;

    std::vector<uint32_t> expected = checkCoverage(scene, violations);
    _lastDigest = coverage->digest();

    if (result) {
        if (dist)
            checkLedger(*dist, expected, *result, violations,
                        first_node);
        checkConservation(*result, violations, first_node);
    }

    checkStructure(violations, first_node);

    if (!violations.empty())
        throw OracleError(frame, first_node, end_cycle,
                          std::move(violations));
}

} // namespace texdist
