/**
 * @file
 * Filesystem-based lease queue for the distributed sweep fabric.
 *
 * Workers sharing one output directory coordinate through three
 * kinds of marker files under `<queue>/`:
 *
 *   <config>.lease   a claim: worker id, heartbeat counter,
 *                    generation — created with O_CREAT|O_EXCL so
 *                    exactly one creator wins; refreshed by atomic
 *                    rewrite while the config runs
 *   <config>.done    terminal success: the store key of the result
 *                    (byte-identical no matter which worker writes
 *                    it, so duplicate finishers collide harmlessly)
 *   <config>.failed  terminal permanent failure: the store key
 *                    and the exit code
 *
 * Liveness is judged without any wall clock — heartbeats are
 * logical counters, and an observer counts its *own* polls since
 * the lease file's bytes last changed. A lease whose content has
 * not changed for `ttl` observations is stale (its holder crashed,
 * was SIGKILLed, or wedged) and may be seized with steal(). Any
 * byte change counts as progress, which makes detection immune to
 * clock-skewed heartbeat counters: a holder whose counter jumps
 * wildly (or backwards) is still visibly alive.
 *
 * Seizure is an atomic rename of the stealer's own lease content
 * over the claim file. The loser may still be running — that is the
 * speculative-duplicate case, and it is safe: both runs publish the
 * same digest-keyed, byte-identical entry to the result store, and
 * owns() lets the loser discover its demotion and stand down.
 */

#ifndef TEXDIST_FABRIC_LEASE_HH
#define TEXDIST_FABRIC_LEASE_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "fabric/store.hh"

namespace texdist
{
namespace fabric
{

/** Decoded content of one lease file. */
struct LeaseInfo
{
    std::string worker;
    uint64_t beat = 0;
    uint64_t generation = 0;
};

/** One worker's handle on the shared queue directory. */
class LeaseQueue
{
  public:
    /**
     * Attach to (creating if needed) the queue at @p dir as
     * @p workerId. Ids must be unique across live workers; the
     * runner defaults to one derived from the pid.
     */
    LeaseQueue(std::string dir, std::string workerId);

    const std::string &workerId() const { return _worker; }
    const std::string &dir() const { return _dir; }

    /**
     * Try to claim @p name (O_CREAT|O_EXCL). Exactly one of any
     * number of racing workers succeeds.
     */
    bool tryClaim(const std::string &name);

    /** Refresh a held lease: atomic rewrite with beat+1. */
    void heartbeat(const std::string &name);

    /**
     * Re-read a lease we claimed: still ours? False means a peer
     * judged us stale and seized it — the caller should stand down
     * (or, in strict mode, exit with the lease-lost code 10).
     */
    bool owns(const std::string &name) const;

    /** Release (unlink) a lease we hold. */
    void release(const std::string &name);

    /**
     * Release every lease still held, best-effort: a lease a peer
     * seized, or one this worker cannot read back, is left alone.
     */
    void releaseAll();

    /**
     * Observe @p name's lease once and return how many consecutive
     * observations (including this one) saw no change. 0 means the
     * lease file is absent. Call once per poll round; the staleness
     * threshold is the caller's poll budget, not wall time.
     */
    uint64_t observeUnchanged(const std::string &name);

    /**
     * Seize a stale lease: atomically replace it with our own
     * claim. Returns true when we hold it afterwards. Safe to lose:
     * the previous holder keeps running harmlessly (idempotent
     * publication) and discovers the seizure via owns().
     */
    bool steal(const std::string &name);

    /** Decode a lease file; nullopt when absent or unreadable. */
    std::optional<LeaseInfo> read(const std::string &name) const;

    /** Is the config claimed at all (lease file present)? */
    bool isClaimed(const std::string &name) const;

    // Terminal markers record the store key of the config they were
    // written for; a marker for another key (the config line, the
    // common arguments or the code changed since) reads as absent.

    /** Write the terminal done marker (idempotent, atomic). */
    void markDone(const std::string &name, const StoreKey &key);

    /** Write the terminal failed marker (idempotent, atomic). */
    void markFailed(const std::string &name, const StoreKey &key,
                    int exitCode);

    bool isDone(const std::string &name, const StoreKey &key) const;

    /** Failed marker present? Fills @p exitCode when non-null. */
    bool isFailed(const std::string &name, const StoreKey &key,
                  int *exitCode = nullptr) const;

    /**
     * Remove the markers of @p name written for a key other than
     * @p key, so a stale verdict can never come back should the
     * arguments change back. True when one was removed.
     */
    bool dropStaleMarkers(const std::string &name,
                          const StoreKey &key);

    /** Leases this worker seized from stale holders (stats). */
    uint64_t stolen() const { return _stolen; }

  private:
    /** Decoded terminal marker. */
    struct Marker
    {
        std::string key;
        int exitCode = 0;
    };

    /** Read `<name>.<kind>`; nullopt when absent or torn. */
    std::optional<Marker> readMarker(const std::string &name,
                                     const std::string &kind) const;

    std::string leasePath(const std::string &name) const;
    std::string leaseContent(const std::string &name, uint64_t beat,
                             uint64_t generation) const;

    std::string _dir;
    std::string _worker;

    /** Per-claim fencing: bumped on every claim/steal, recorded in
     * the lease so a stale self-lease from a crashed previous run
     * of the same worker id never reads as ours. */
    uint64_t _generation = 0;

    /** Held leases: name -> what we last wrote. */
    struct Held
    {
        uint64_t beat = 0;
        uint64_t generation = 0;
    };
    std::map<std::string, Held> _held;

    /** Observation memory: name -> (content fingerprint, count). */
    struct Observation
    {
        std::string fingerprint;
        uint64_t unchanged = 0;
    };
    std::map<std::string, Observation> _observed;

    uint64_t _stolen = 0;
};

} // namespace fabric
} // namespace texdist

#endif // TEXDIST_FABRIC_LEASE_HH
