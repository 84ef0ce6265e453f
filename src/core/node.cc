#include "core/node.hh"

#include <algorithm>

#include "cache/two_level.hh"
#include "core/error.hh"
#include "sim/logging.hh"
#include "texture/sampler.hh"

namespace texdist
{

TextureNode::TextureNode(uint32_t id, const MachineConfig &config,
                         const TextureManager &textures_)
    : nodeId(id), cfg(config),
      textures(textures_),
      cache_(config.hasL2 && config.cacheKind == CacheKind::SetAssoc
                 ? std::make_unique<TwoLevelCache>(config.cacheGeom,
                                                   config.l2Geom,
                                                   config.l2Inclusive)
                 : makeCache(config.cacheKind, config.cacheGeom))
{
    if (!cfg.infiniteBus)
        bus_ = std::make_unique<TextureBus>(cfg.busTexelsPerCycle);
    retireRing.assign(std::max(1u, cfg.prefetchQueueDepth), 0);
}

void
TextureNode::setSlowdown(uint32_t factor)
{
    if (factor == 0)
        texdist_fatal(name(), ": slowdown factor must be positive");
    _slowdown = factor;
}

void
TextureNode::stallBus(Tick from, Tick until)
{
    if (!bus_) {
        warn(name(), ": bus-stall fault ignored (infinite bus)");
        return;
    }
    bus_->stall(from, until);
}

Tick
TextureNode::scanFragments(TextureId texid,
                           const NodeFragment *frags, size_t count,
                           Tick start)
{
    Tick cpu = start;
    // A slowed node (slow-node fault) takes `_slowdown` cycles per
    // fragment instead of one, as if its clock were divided.
    const Tick cycles_per_frag = _slowdown;

    if (cfg.cacheKind == CacheKind::Perfect) {
        // Perfect cache, no memory traffic: the scan proceeds at one
        // pixel per cycle with nothing to wait for.
        cpu += count * cycles_per_frag;
        lastRetire = std::max(lastRetire, cpu);
        return cpu;
    }

    const Texture &tex = textures.get(texid);
    const size_t depth = retireRing.size();
    TextureCache *const cache = cache_.get();
    TextureBus *const bus = bus_.get();
    const uint32_t texels_per_fill = cache->texelsPerFill();

    // Addresses are generated a chunk at a time ahead of the timing
    // loop: the pure address arithmetic pipelines without the cache
    // and bus bookkeeping interleaved, and the chunk bound keeps the
    // scratch buffers L2-resident for arbitrarily large triangles.
    constexpr size_t chunk = 512;
    const size_t batch = std::min(count, chunk);
    if (uScratch.size() < batch) {
        uScratch.resize(batch);
        vScratch.resize(batch);
        lodScratch.resize(batch);
        addrScratch.resize(batch * size_t(texelsPerFragment));
    }

    for (size_t base = 0; base < count; base += chunk) {
        const size_t m = std::min(chunk, count - base);
        for (size_t i = 0; i < m; ++i) {
            const NodeFragment &frag = frags[base + i];
            uScratch[i] = frag.u;
            vScratch[i] = frag.v;
            lodScratch[i] = frag.lod;
        }
        TrilinearSampler::generateBatch(tex, uScratch.data(),
                                        vScratch.data(),
                                        lodScratch.data(), m,
                                        addrScratch.data());

        const uint64_t *addrs = addrScratch.data();
        for (size_t i = 0; i < m;
             ++i, addrs += texelsPerFragment) {
            // Wait for a prefetch-queue slot: the fragment issued
            // `depth` fragments ago must have retired.
            Tick issue = std::max(cpu, retireRing[ringHead]);
            _stallCycles += issue - cpu;

            Tick retire = issue + 1;
            // Planted texel leak: the triangle's very first texel
            // reference bypasses the cache, unbalancing the
            // accesses-per-pixel ledger for the oracle to notice.
            int k0 =
                (_plantTexelLeak && base == 0 && i == 0) ? 1 : 0;
            uint32_t missed = cache->accessFragment(
                addrs + k0, texelsPerFragment - k0);
            // Every miss issues one line fill at `issue`; the bus
            // never looks at the cache, so the fills can follow the
            // whole fragment's lookups.
            if (bus) {
                for (; missed > 0; --missed) {
                    Tick arrival =
                        bus->transfer(issue, texels_per_fill);
                    retire = std::max(retire, arrival);
                }
            }

            retireRing[ringHead] = retire;
            ringHead = (ringHead + 1) % depth;
            lastRetire = std::max(lastRetire, retire);
            cpu = issue + cycles_per_frag;
        }
    }
    return cpu;
}

// texlint: phase(parallel) runs inside a drain task that owns this
// node outright; touches no state outside the node
void
TextureNode::functionalScan(TextureId texid,
                            const NodeFragment *frags, size_t count)
{
    ++_trianglesReceived;
    _pixelsDrawn += count;
    trianglePixels.add(double(count));

    if (cfg.cacheKind == CacheKind::Perfect) {
        // The detailed scan never consults a perfect cache either.
        return;
    }

    const Texture &tex = textures.get(texid);
    TextureCache *const cache = cache_.get();

    // Same chunked batch address generation as scanFragments, minus
    // the timing loop: only the cache sees the references.
    constexpr size_t chunk = 512;
    const size_t batch = std::min(count, chunk);
    if (uScratch.size() < batch) {
        uScratch.resize(batch);
        vScratch.resize(batch);
        lodScratch.resize(batch);
        addrScratch.resize(batch * size_t(texelsPerFragment));
    }

    for (size_t base = 0; base < count; base += chunk) {
        const size_t m = std::min(chunk, count - base);
        for (size_t i = 0; i < m; ++i) {
            const NodeFragment &frag = frags[base + i];
            uScratch[i] = frag.u;
            vScratch[i] = frag.v;
            lodScratch[i] = frag.lod;
        }
        TrilinearSampler::generateBatch(tex, uScratch.data(),
                                        vScratch.data(),
                                        lodScratch.data(), m,
                                        addrScratch.data());

        const uint64_t *addrs = addrScratch.data();
        for (size_t i = 0; i < m; ++i, addrs += texelsPerFragment)
            cache->accessFragment(addrs, texelsPerFragment);
    }
}

// texlint: phase(parallel) runs inside a drain task that owns this
// node outright; touches no state outside the node
Tick
TextureNode::consumeDirect(Tick push_tick, TextureId tex,
                           const NodeFragment *frags, size_t count)
{
    Tick start = nextStart(push_tick);
    _idleCycles += start - cpuTime;

    ++_trianglesReceived;
    _pixelsDrawn += count;
    trianglePixels.add(double(count));

    if (coverage) {
        for (size_t i = 0; i < count; ++i) {
            uint32_t x = frags[i].x;
            if (_plantCoverageShift && i == 0)
                x ^= 1u;
            coverage->note(x, frags[i].y);
        }
    }

    Tick scan_end = scanFragments(tex, frags, count, start);
    Tick setup_end = start + Tick(cfg.setupCyclesPerTriangle) * _slowdown;
    if (scan_end < setup_end) {
        // Fewer pixels than the setup engine needs cycles: the
        // triangle is setup-bound (the paper's small-tile penalty).
        ++_setupBound;
        _setupWaitCycles += setup_end - scan_end;
        cpuTime = setup_end;
    } else {
        cpuTime = scan_end;
    }
    return start;
}

Tick
TextureNode::finishTime() const
{
    return std::max(cpuTime, lastRetire);
}

void
TextureNode::serialize(CheckpointWriter &w) const
{
    w.section("node");
    w.u32(nodeId);
    w.u64(cpuTime);
    w.u64(lastRetire);
    w.u64(ringHead);
    w.u64vec(retireRing);
    w.u32(_slowdown);
    w.u64(_pixelsDrawn);
    w.u64(_trianglesReceived);
    w.u64(_setupBound);
    w.u64(_stallCycles);
    w.u64(_idleCycles);
    w.u64(_setupWaitCycles);
    trianglePixels.serialize(w);
    w.u64(_fifoHighWater);

    cache_->serialize(w);
    w.u8(bus_ ? 1 : 0);
    if (bus_)
        bus_->serialize(w);
}

void
TextureNode::unserialize(CheckpointReader &r)
{
    r.section("node");
    uint32_t id = r.u32();
    if (id != nodeId)
        throw ParseError(ParseSurface::Checkpoint,
                         ParseRule::Mismatch,
                         "node id mismatch: file has node" +
                             std::to_string(id) + ", restoring " +
                             name())
            .in(r.path())
            .field("node");
    cpuTime = r.u64();
    lastRetire = r.u64();
    ringHead = r.u64();
    retireRing = r.u64vec();
    if (retireRing.size() != std::max(1u, cfg.prefetchQueueDepth) ||
        ringHead >= retireRing.size())
        throw ParseError(ParseSurface::Checkpoint,
                         ParseRule::Mismatch,
                         "prefetch ring mismatch for " + name())
            .in(r.path())
            .field("node");
    _slowdown = r.u32();
    _pixelsDrawn = r.u64();
    _trianglesReceived = r.u64();
    _setupBound = r.u64();
    _stallCycles = r.u64();
    _idleCycles = r.u64();
    _setupWaitCycles = r.u64();
    trianglePixels.unserialize(r);
    _fifoHighWater = r.u64();

    cache_->unserialize(r);
    bool had_bus = r.u8() != 0;
    if (had_bus != (bus_ != nullptr))
        throw ParseError(ParseSurface::Checkpoint,
                         ParseRule::Mismatch,
                         "bus presence mismatch for " + name())
            .in(r.path())
            .field("node");
    if (bus_)
        bus_->unserialize(r);
}

} // namespace texdist
