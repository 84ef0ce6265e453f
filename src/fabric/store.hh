/**
 * @file
 * Content-addressed result store for the distributed sweep fabric.
 *
 * Simulator runs are deterministic and digest-verified, so a result
 * is fully identified by *what* was asked for: the store keys each
 * entry by an FNV-1a digest of (canonical config JSON, trace
 * digest, code/layout version). Any worker that computes the same
 * key may publish — both race participants produce byte-identical
 * payloads, publication is an atomic tmp+rename, and the last
 * rename wins whole, so duplicate speculative runs are safe by
 * construction.
 *
 * Entry file format (`<store>/<key-hex>.res`, little-endian):
 *
 *   offset  size  field
 *        0     4  magic "TDRS"
 *        4     4  format version (u32)
 *        8     8  store key (u64)
 *       16     8  meta length m (u64)
 *       24     8  payload length p (u64)
 *       32     4  CRC-32 over meta + payload
 *       36     m  meta: canonical config JSON (what produced this)
 *     36+m     p  payload: the per-config result CSV bytes
 *
 * A torn or corrupt entry is never trusted and never fatal on the
 * read path: fetch() quarantines it (moved to `<store>/quarantine/`)
 * and reports a miss, so the config is simply recomputed. fsck()
 * makes the same sweep eagerly, reporting what it had to move.
 * Malformed entries throw ParseError (surface: fabric, exit code
 * 11) only when a caller asks for strict handling.
 */

#ifndef TEXDIST_FABRIC_STORE_HH
#define TEXDIST_FABRIC_STORE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/error.hh"

namespace texdist
{
namespace fabric
{

/** Current store entry format version. */
constexpr uint32_t storeFormatVersion = 1;

/**
 * Code/layout version mixed into every store key. Bump it whenever
 * a change alters what any config measures — stale entries then
 * miss naturally instead of serving results from old code.
 */
constexpr const char *fabricCodeVersion = "texdist-fabric-code-2";

/** Identity of one sweep-config run. */
struct StoreKey
{
    uint64_t digest = 0;

    /** 16-lowercase-hex rendering; the entry's file stem. */
    std::string hex() const;

    bool operator==(const StoreKey &o) const
    {
        return digest == o.digest;
    }
};

/**
 * Canonical JSON text naming one run: the full simulator argv (in
 * order — argument order is semantically meaningful), the digest of
 * the trace input (0 when the scene is generated), and the code
 * version. This text is both the key preimage and the entry meta.
 */
std::string canonicalConfigJson(const std::vector<std::string> &args,
                                uint64_t traceDigest,
                                const std::string &codeVersion);

/** FNV-1a key over canonicalConfigJson() of the same inputs. */
StoreKey computeStoreKey(const std::vector<std::string> &args,
                         uint64_t traceDigest,
                         const std::string &codeVersion =
                             fabricCodeVersion);

/** FNV-1a digest of a file's bytes (trace inputs); Io ParseError
 * (surface: fabric) when unreadable. */
uint64_t digestFileBytes(const std::string &path);

/** One decoded store entry. */
struct StoreEntry
{
    StoreKey key;
    std::string meta;
    std::string payload;
};

/** Serialize an entry to its on-disk image. */
std::string encodeStoreEntry(const StoreKey &key,
                             const std::string &meta,
                             const std::string &payload);

/**
 * Validate and decode an entry image; throws ParseError (surface:
 * fabric, exit code 11) on any damage, annotated with @p what.
 */
StoreEntry decodeStoreEntry(const std::string &image,
                            const std::string &what);

/** A directory of content-addressed result entries. */
class ResultStore
{
  public:
    /**
     * Open (creating if needed) the store at @p dir. With @p strict
     * set, a corrupt entry on the fetch path throws FabricError
     * (StoreCorrupt, exit 11) instead of self-healing.
     */
    explicit ResultStore(std::string dir, bool strict = false);

    const std::string &dir() const { return _dir; }

    /** Path of @p key's entry file. */
    std::string entryPath(const StoreKey &key) const;

    /**
     * Publish a result: atomic scratch+rename, idempotent — racing
     * publishers of the same key write identical bytes and the last
     * rename wins whole.
     */
    void publish(const StoreKey &key, const std::string &meta,
                 const std::string &payload);

    /**
     * Look up @p key. Returns the payload on a hit, nullopt on a
     * miss. A torn/corrupt entry is quarantined and reported as a
     * miss (or throws, in strict mode). Counts hits and misses.
     */
    std::optional<std::string> fetch(const StoreKey &key);

    /** Hit/miss/corruption counters since construction. */
    struct Stats
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t corrupt = 0;
    };

    const Stats &stats() const { return _stats; }

    /** What an fsck pass found and did. */
    struct FsckReport
    {
        uint64_t scanned = 0;
        uint64_t ok = 0;
        uint64_t quarantined = 0;
        uint64_t orphanScratch = 0;
    };

    /**
     * Validate every entry: damaged or misnamed entries move to
     * `<dir>/quarantine/`, orphaned scratch files from killed
     * publishers are removed, healthy entries are untouched. Never
     * throws on damaged *entries* — quarantining them is the whole
     * point; only an unusable store directory is fatal.
     */
    FsckReport fsck();

  private:
    void quarantine(const std::string &fileName);

    std::string _dir;
    bool _strict = false;
    Stats _stats;
};

} // namespace fabric
} // namespace texdist

#endif // TEXDIST_FABRIC_STORE_HH
