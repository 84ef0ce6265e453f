#include "cache/two_level.hh"

#include <bit>

namespace texdist
{

TwoLevelCache::TwoLevelCache(const CacheGeometry &l1,
                             const CacheGeometry &l2, bool inclusive)
    : l2Geom(l2), strictInclusive(inclusive), l1Cache(l1),
      l2Cache(l2)
{
}

bool
TwoLevelCache::access(uint64_t addr)
{
    ++_accesses;
    if (l1Cache.access(addr))
        return true;
    ++_l1Misses;
    if (strictInclusive) {
        // Strict inclusion: when the L2 evicts a line to make room,
        // any L1 copy of the victim must go too, or L1 would hold a
        // line the L2 no longer backs.
        uint64_t evicted_addr = 0;
        bool evicted = false;
        if (!l2Cache.accessEvicting(addr, evicted_addr, evicted)) {
            ++_misses; // external fetch
            if (evicted)
                l1Cache.invalidate(evicted_addr);
        }
        return false;
    }
    if (!l2Cache.access(addr))
        ++_misses; // external fetch
    return false;
}

uint32_t
TwoLevelCache::accessFragment(const uint64_t *addrs, int n)
{
    if (strictInclusive || n > SetAssocCache::maxMaskRefs)
        return TextureCache::accessFragment(addrs, n);

    _accesses += uint64_t(n);
    uint32_t mask = l1Cache.missMask(addrs, n);
    if (mask == 0)
        return 0;
    uint64_t l1_missed[SetAssocCache::maxMaskRefs];
    int m = 0;
    for (; mask != 0; mask &= mask - 1)
        l1_missed[m++] = addrs[std::countr_zero(mask)];
    _l1Misses += uint64_t(m);
    _misses += uint64_t(std::popcount(l2Cache.missMask(l1_missed, m)));
    return uint32_t(m);
}

void
TwoLevelCache::reset()
{
    l1Cache.reset();
    l2Cache.reset();
    _accesses = 0;
    _misses = 0;
    _l1Misses = 0;
}

void
TwoLevelCache::serialize(CheckpointWriter &w) const
{
    TextureCache::serialize(w);
    w.section("two-level");
    w.u64(_l1Misses);
    l1Cache.serialize(w);
    l2Cache.serialize(w);
}

void
TwoLevelCache::unserialize(CheckpointReader &r)
{
    TextureCache::unserialize(r);
    r.section("two-level");
    _l1Misses = r.u64();
    l1Cache.unserialize(r);
    l2Cache.unserialize(r);
}

} // namespace texdist
