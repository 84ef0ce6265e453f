/**
 * @file
 * Two-level texture cache — the paper's Section 9 future-work item.
 *
 * Cox et al. showed a large L2 (the graphics card memory used as a
 * cache, 2-8 MB) captures *inter-frame* locality: most texels a
 * frame needs were already used by the previous frame. The paper
 * closes by asking what happens to that L2 in a multiprocessor
 * machine, where each node only ever sees its own tiles: if the
 * viewpoint translates by more than a tile between frames, a node's
 * L2 holds the texels of pixels that now belong to *another* node.
 * bench/ablate_l2_interframe runs that experiment with this model.
 *
 * The model is a conventional inclusive-fill two-level hierarchy:
 * L1 miss probes L2; L2 miss fetches from memory and fills both.
 * Statistics inherited from TextureCache describe the *external*
 * (L2-to-memory) traffic, which is what the inter-frame question is
 * about; L1-level traffic is exposed separately.
 */

#ifndef TEXDIST_CACHE_TWO_LEVEL_HH
#define TEXDIST_CACHE_TWO_LEVEL_HH

#include "cache/cache.hh"

namespace texdist
{

/** L1 + L2 texture cache hierarchy. */
class TwoLevelCache : public TextureCache
{
  public:
    /**
     * @param l1 geometry of the on-chip cache (paper: 16 KB 4-way)
     * @param l2 geometry of the board-level cache (Cox: 2-8 MB)
     * @param inclusive enforce strict L1 ⊆ L2: an L2 eviction
     *        back-invalidates the line in L1. The default inclusive-
     *        fill hierarchy fills both on an external fetch but lets
     *        them age independently, so a line can outlive its L2
     *        copy in L1; strict mode is what the oracle's inclusion
     *        invariant checks against.
     */
    TwoLevelCache(const CacheGeometry &l1, const CacheGeometry &l2,
                  bool inclusive = false);

    /**
     * Access one texel. TextureCache::misses() counts L2 misses
     * (lines fetched over the external bus).
     *
     * @return true when the L1 hits (no on-board traffic at all)
     */
    bool access(uint64_t addr) override;

    /**
     * One fragment's references. Without strict inclusion the L1
     * takes the whole fragment first and its misses then reach the L2
     * in order: the L1 never depends on the L2, so the end state is
     * the per-access one. Strict inclusion keeps the per-reference
     * interleave, because an L2 eviction can back-invalidate an L1
     * line that a later reference of the same fragment uses.
     * @return L1 misses, as for access()
     */
    uint32_t accessFragment(const uint64_t *addrs, int n) override;

    void reset() override;
    void serialize(CheckpointWriter &w) const override;
    void unserialize(CheckpointReader &r) override;
    CacheKind kind() const override { return CacheKind::SetAssoc; }

    uint32_t
    texelsPerFill() const override
    {
        return l2Geom.lineBytes / 4;
    }

    /** L1-level statistics (on-chip). */
    uint64_t l1Misses() const { return _l1Misses; }

    /** Lines that missed L1 but hit the on-board L2. */
    uint64_t l2Hits() const { return _l1Misses - _misses; }

    const SetAssocCache &l1() const { return l1Cache; }
    const SetAssocCache &l2() const { return l2Cache; }

    /** True when this hierarchy promises strict L1 ⊆ L2. */
    bool inclusive() const { return strictInclusive; }

    /** Planted-bug hook forwarding to the L1 (see SetAssocCache). */
    void
    debugPlantLruSkip(uint32_t period)
    {
        l1Cache.debugPlantLruSkip(period);
    }

  private:
    // texlint: allow(checkpoint) construction-time geometry; the L2's own
    // serialize validates it
    CacheGeometry l2Geom;
    // texlint: allow(checkpoint) construction-time policy, part of the
    // machine configuration (describe() carries it), not mutable state
    bool strictInclusive;
    SetAssocCache l1Cache;
    SetAssocCache l2Cache;
    uint64_t _l1Misses = 0;
};

} // namespace texdist

#endif // TEXDIST_CACHE_TWO_LEVEL_HH
