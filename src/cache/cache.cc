#include "cache/cache.hh"

#include <algorithm>
#include <bit>

#include "core/error.hh"
#include "sim/logging.hh"

namespace texdist
{

CacheKind
cacheKindFromString(const std::string &s)
{
    if (s == "setassoc")
        return CacheKind::SetAssoc;
    if (s == "perfect")
        return CacheKind::Perfect;
    if (s == "infinite")
        return CacheKind::Infinite;
    if (s == "none")
        return CacheKind::None;
    throw ParseError(ParseSurface::Cli, ParseRule::Unknown,
                     "unknown cache kind '" + s +
                         "' (want setassoc, perfect, infinite or "
                         "none)")
        .field("--cache");
}

const char *
to_string(CacheKind kind)
{
    switch (kind) {
      case CacheKind::SetAssoc: return "setassoc";
      case CacheKind::Perfect: return "perfect";
      case CacheKind::Infinite: return "infinite";
      case CacheKind::None: return "none";
    }
    return "?";
}

SetAssocCache::SetAssocCache(const CacheGeometry &geometry)
    : geom(geometry)
{
    if (geom.lineBytes == 0 || !std::has_single_bit(geom.lineBytes))
        texdist_fatal("line size must be a power of two");
    if (geom.ways == 0)
        texdist_fatal("associativity must be positive");
    if (geom.sizeBytes % (geom.ways * geom.lineBytes) != 0)
        texdist_fatal("cache size must be a multiple of way size");

    sets = geom.numSets();
    if (sets == 0 || !std::has_single_bit(sets))
        texdist_fatal("number of sets must be a power of two, got ",
                      sets);
    lineShift = std::countr_zero(geom.lineBytes);
    setShift = std::countr_zero(sets);
    tags.assign(size_t(sets) * geom.ways, invalidTag);
    lruStamp.assign(size_t(sets) * geom.ways, 0);
    mruWay.assign(sets, 0);
}

uint32_t
TextureCache::accessFragment(const uint64_t *addrs, int n)
{
    uint32_t missed = 0;
    for (int k = 0; k < n; ++k)
        missed += access(addrs[k]) ? 0 : 1;
    return missed;
}

template <bool Planted>
inline bool
SetAssocCache::accessInline(uint64_t line, uint64_t &clock,
                            uint64_t &misses, size_t &slot,
                            uint64_t &old_tag)
{
    const uint32_t set = uint32_t(line & (sets - 1));
    const uint64_t tag = line >> setShift;
    const size_t base = size_t(set) * geom.ways;
    uint64_t *set_tags = &tags[base];
    uint64_t *set_lru = &lruStamp[base];

    // Fast path: one probe of the set's MRU way. That way already
    // holds the set's largest stamp, and stamps are only compared
    // within a set, so a hit on it changes no LRU decision and
    // stores nothing. Armed, the planted bug still stamps here: its
    // skipped scan-hit touches leave hints on ways that are not the
    // newest, and its stream must stay that of a stamp-every-hit LRU.
    uint32_t mru = mruWay[set];
    if (set_tags[mru] == tag) {
        uint64_t stamp = ++clock;
        if (Planted && lruSkipPeriod != 0 && !plantedSkipThisHit())
            set_lru[mru] = stamp;
        slot = base + mru;
        return true;
    }

    uint32_t victim = 0;
    uint64_t oldest = UINT64_MAX;
    for (uint32_t w = 0; w < geom.ways; ++w) {
        if (set_tags[w] == tag) {
            uint64_t stamp = ++clock;
            if (!(Planted && plantedSkipThisHit()))
                set_lru[w] = stamp;
            mruWay[set] = w;
            slot = base + w;
            return true;
        }
        if (set_lru[w] < oldest) {
            oldest = set_lru[w];
            victim = w;
        }
    }

    ++misses;
    old_tag = set_tags[victim];
    set_tags[victim] = tag;
    set_lru[victim] = ++clock;
    mruWay[set] = victim;
    slot = base + victim;
    return false;
}

bool
SetAssocCache::access(uint64_t addr)
{
    ++_accesses;
    size_t slot;
    uint64_t old_tag;
    return accessInline<true>(addr >> lineShift, stampCounter, _misses,
                              slot, old_tag);
}

uint32_t
SetAssocCache::missMask(const uint64_t *addrs, int n)
{
    uint32_t mask = 0;
    if (lruSkipPeriod != 0) {
        // The planted bug counts hits one access at a time.
        for (int k = 0; k < n; ++k)
            if (!access(addrs[k]))
                mask |= 1u << k;
        return mask;
    }

    uint64_t clock = stampCounter;
    uint64_t misses = _misses;
    _accesses += uint64_t(n);

    int first = 0;
    if (n == 8) {
        // Branch-free check of which references hit their set's MRU
        // way. If all do, the fragment changes nothing but the clock;
        // otherwise the leading run of MRU hits changes nothing but
        // the clock, and the scan starts after it.
        uint32_t mru_hits = 0;
        for (int k = 0; k < 8; ++k) {
            const uint64_t line = addrs[k] >> lineShift;
            const uint32_t set = uint32_t(line & (sets - 1));
            mru_hits |=
                uint32_t(tags[size_t(set) * geom.ways + mruWay[set]] ==
                         (line >> setShift))
                << k;
        }
        if (mru_hits == 0xff) {
            stampCounter = clock + 8;
            return 0;
        }
        first = std::countr_one(mru_hits);
        clock += uint64_t(first);
    }

    uint64_t prev_line = 0;
    for (int k = first; k < n; ++k) {
        const uint64_t line = addrs[k] >> lineShift;
        if (k > first && line == prev_line) {
            // The reference before left this line as its set's MRU
            // way: a hit that only advances the clock.
            ++clock;
            continue;
        }
        prev_line = line;
        size_t slot;
        uint64_t old_tag;
        if (!accessInline<false>(line, clock, misses, slot, old_tag))
            mask |= 1u << k;
    }
    stampCounter = clock;
    _misses = misses;
    return mask;
}

uint32_t
SetAssocCache::accessFragment(const uint64_t *addrs, int n)
{
    if (n > maxMaskRefs)
        return TextureCache::accessFragment(addrs, n);
    return uint32_t(std::popcount(missMask(addrs, n)));
}

void
SetAssocCache::reset()
{
    std::fill(tags.begin(), tags.end(), invalidTag);
    std::fill(lruStamp.begin(), lruStamp.end(), 0);
    std::fill(mruWay.begin(), mruWay.end(), 0u);
    stampCounter = 0;
    _accesses = 0;
    _misses = 0;
}

void
TextureCache::serialize(CheckpointWriter &w) const
{
    w.section("cache");
    w.u8(uint8_t(kind()));
    w.u64(_accesses);
    w.u64(_misses);
}

void
TextureCache::unserialize(CheckpointReader &r)
{
    r.section("cache");
    uint8_t k = r.u8();
    if (k != uint8_t(kind()))
        throw ParseError(ParseSurface::Checkpoint,
                         ParseRule::Mismatch,
                         "cache kind mismatch: file has " +
                             std::to_string(k) + ", machine has " +
                             to_string(kind()))
            .in(r.path())
            .field("cache");
    _accesses = r.u64();
    _misses = r.u64();
}

void
SetAssocCache::serialize(CheckpointWriter &w) const
{
    TextureCache::serialize(w);
    w.section("setassoc");
    w.u32(geom.sizeBytes);
    w.u32(geom.ways);
    w.u32(geom.lineBytes);
    w.u64(stampCounter);
    w.u64vec(tags);
    w.u64vec(lruStamp);
}

void
SetAssocCache::unserialize(CheckpointReader &r)
{
    TextureCache::unserialize(r);
    r.section("setassoc");
    CacheGeometry g;
    g.sizeBytes = r.u32();
    g.ways = r.u32();
    g.lineBytes = r.u32();
    if (!(g == geom))
        throw ParseError(ParseSurface::Checkpoint,
                         ParseRule::Mismatch,
                         "cache geometry mismatch between "
                         "checkpoint and machine")
            .in(r.path())
            .field("setassoc");
    stampCounter = r.u64();
    tags = r.u64vec();
    lruStamp = r.u64vec();
    if (tags.size() != size_t(sets) * geom.ways ||
        lruStamp.size() != tags.size())
        throw ParseError(ParseSurface::Checkpoint,
                         ParseRule::Mismatch,
                         "cache tag array size mismatch between "
                         "checkpoint and machine")
            .in(r.path())
            .field("setassoc");
    // The MRU hint is not checkpoint state, but MRU hits store no
    // stamp, so it must name each set's newest way: rebuild it from
    // the stamps.
    for (uint32_t set = 0; set < sets; ++set) {
        const uint64_t *set_lru = &lruStamp[size_t(set) * geom.ways];
        uint32_t newest = 0;
        for (uint32_t w = 1; w < geom.ways; ++w)
            if (set_lru[w] > set_lru[newest])
                newest = w;
        mruWay[set] = newest;
    }
}

void
InfiniteCache::serialize(CheckpointWriter &w) const
{
    TextureCache::serialize(w);
    w.section("infinite");
    w.u32(lineShift);
    // Sorted so identical cache contents serialize to identical
    // bytes regardless of hash iteration order.
    std::vector<uint64_t> lines(seen.begin(), seen.end());
    std::sort(lines.begin(), lines.end());
    w.u64vec(lines);
}

void
InfiniteCache::unserialize(CheckpointReader &r)
{
    TextureCache::unserialize(r);
    r.section("infinite");
    uint32_t shift = r.u32();
    if (shift != lineShift)
        throw ParseError(ParseSurface::Checkpoint,
                         ParseRule::Mismatch,
                         "cache line size mismatch between "
                         "checkpoint and machine")
            .in(r.path())
            .field("infinite");
    std::vector<uint64_t> lines = r.u64vec();
    seen.clear();
    seen.insert(lines.begin(), lines.end());
}

bool
SetAssocCache::accessEvicting(uint64_t addr, uint64_t &evicted_addr,
                              bool &evicted)
{
    evicted = false;
    ++_accesses;
    const uint64_t line = addr >> lineShift;
    size_t slot;
    uint64_t old_tag;
    if (accessInline<true>(line, stampCounter, _misses, slot, old_tag))
        return true;
    if (old_tag != invalidTag) {
        evicted = true;
        evicted_addr = ((old_tag << setShift) | (line & (sets - 1)))
                       << lineShift;
    }
    return false;
}

void
SetAssocCache::invalidate(uint64_t line_addr)
{
    uint64_t line = line_addr >> lineShift;
    uint32_t set = uint32_t(line & (sets - 1));
    uint64_t tag = line >> setShift;
    uint64_t *set_tags = &tags[size_t(set) * geom.ways];
    uint64_t *set_lru = &lruStamp[size_t(set) * geom.ways];
    for (uint32_t w = 0; w < geom.ways; ++w) {
        if (set_tags[w] == tag) {
            set_tags[w] = invalidTag;
            set_lru[w] = 0;
            // The MRU hint may still point at this way; that is safe
            // (invalidTag never matches a real tag, so the next access
            // to the set scans and re-points the hint).
            return;
        }
    }
}

bool
SetAssocCache::probe(uint64_t line_addr) const
{
    uint64_t line = line_addr >> lineShift;
    uint32_t set = uint32_t(line & (sets - 1));
    uint64_t tag = line >> setShift;
    const uint64_t *set_tags = &tags[size_t(set) * geom.ways];
    for (uint32_t w = 0; w < geom.ways; ++w)
        if (set_tags[w] == tag)
            return true;
    return false;
}

InfiniteCache::InfiniteCache(uint32_t line_bytes)
{
    if (line_bytes == 0 || !std::has_single_bit(line_bytes))
        texdist_fatal("line size must be a power of two");
    lineShift = std::countr_zero(line_bytes);
}

bool
InfiniteCache::access(uint64_t addr)
{
    ++_accesses;
    uint64_t line = addr >> lineShift;
    if (seen.insert(line).second) {
        ++_misses;
        return false;
    }
    return true;
}

void
InfiniteCache::reset()
{
    seen.clear();
    _accesses = 0;
    _misses = 0;
}

std::unique_ptr<TextureCache>
makeCache(CacheKind kind, const CacheGeometry &geometry)
{
    switch (kind) {
      case CacheKind::SetAssoc:
        return std::make_unique<SetAssocCache>(geometry);
      case CacheKind::Perfect:
        return std::make_unique<PerfectCache>();
      case CacheKind::Infinite:
        return std::make_unique<InfiniteCache>(geometry.lineBytes);
      case CacheKind::None:
        return std::make_unique<NoCache>();
    }
    texdist_panic("unreachable cache kind");
}

} // namespace texdist
