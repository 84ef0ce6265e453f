/** @file Tests for the filesystem lease queue. */

#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "fabric/lease.hh"
#include "fabric/store.hh"

namespace texdist
{
namespace
{

namespace fs = std::filesystem;
using fabric::LeaseQueue;
using fabric::StoreKey;

std::string
freshDir(const std::string &name)
{
    std::string dir = ::testing::TempDir() + "/" + name;
    fs::remove_all(dir);
    return dir;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(is)),
                       std::istreambuf_iterator<char>());
}

TEST(LeaseQueue, ExactlyOneOfTwoWorkersWinsAClaim)
{
    std::string dir = freshDir("lease-claim");
    LeaseQueue a(dir, "alice");
    LeaseQueue b(dir, "bob");

    EXPECT_TRUE(a.tryClaim("cfg"));
    EXPECT_FALSE(b.tryClaim("cfg"));
    EXPECT_TRUE(a.owns("cfg"));
    EXPECT_FALSE(b.owns("cfg"));
    ASSERT_TRUE(b.read("cfg").has_value());
    EXPECT_EQ(b.read("cfg")->worker, "alice");

    a.release("cfg");
    EXPECT_FALSE(a.isClaimed("cfg"));
    EXPECT_TRUE(b.tryClaim("cfg"));
}

TEST(LeaseQueue, HeartbeatChangesTheLeaseBytes)
{
    std::string dir = freshDir("lease-beat");
    LeaseQueue a(dir, "alice");
    ASSERT_TRUE(a.tryClaim("cfg"));
    std::string before = slurp(dir + "/cfg.lease");
    a.heartbeat("cfg");
    std::string after = slurp(dir + "/cfg.lease");
    EXPECT_NE(before, after);
    EXPECT_EQ(a.read("cfg")->beat, 1u);
}

TEST(LeaseQueue, ObserverCountsPollsSinceLastChange)
{
    std::string dir = freshDir("lease-observe");
    LeaseQueue holder(dir, "holder");
    LeaseQueue watcher(dir, "watcher");

    EXPECT_EQ(watcher.observeUnchanged("cfg"), 0u); // absent
    ASSERT_TRUE(holder.tryClaim("cfg"));
    EXPECT_EQ(watcher.observeUnchanged("cfg"), 1u);
    EXPECT_EQ(watcher.observeUnchanged("cfg"), 2u);
    EXPECT_EQ(watcher.observeUnchanged("cfg"), 3u);
    // Any content change — regardless of the beat value — resets
    // the staleness clock.
    holder.heartbeat("cfg");
    EXPECT_EQ(watcher.observeUnchanged("cfg"), 1u);
    holder.release("cfg");
    EXPECT_EQ(watcher.observeUnchanged("cfg"), 0u);
}

TEST(LeaseQueue, SkewedHeartbeatCountersStillReadAsAlive)
{
    std::string dir = freshDir("lease-skew");
    LeaseQueue watcher(dir, "watcher");
    // A holder whose "clock" jumps wildly: each write is a huge,
    // non-monotonic beat. Liveness must only depend on the bytes
    // changing, so the watcher never accumulates staleness.
    const char *beats[] = {"1152921504606846976", "3", "999999999"};
    for (const char *beat : beats) {
        std::ofstream os(dir + "/cfg.lease", std::ios::trunc);
        os << "{\"format\":\"texdist-lease\",\"version\":1,"
           << "\"config\":\"cfg\",\"worker\":\"skewed\",\"beat\":"
           << beat << ",\"generation\":1}";
        os.close();
        EXPECT_EQ(watcher.observeUnchanged("cfg"), 1u);
    }
}

TEST(LeaseQueue, StaleLeaseCanBeStolenAndLoserStandsDown)
{
    std::string dir = freshDir("lease-steal");
    LeaseQueue dead(dir, "dead");
    LeaseQueue live(dir, "live");
    ASSERT_TRUE(dead.tryClaim("cfg"));

    // "dead" stops heartbeating; after the watcher's own poll
    // budget it seizes the lease.
    EXPECT_EQ(live.observeUnchanged("cfg"), 1u);
    EXPECT_EQ(live.observeUnchanged("cfg"), 2u);
    EXPECT_TRUE(live.steal("cfg"));
    EXPECT_EQ(live.stolen(), 1u);
    EXPECT_TRUE(live.owns("cfg"));
    // The original holder discovers the seizure and must stand
    // down.
    EXPECT_FALSE(dead.owns("cfg"));
    // Its heartbeat must not clobber the new holder's claim.
    dead.heartbeat("cfg");
    EXPECT_EQ(live.read("cfg")->worker, "live");
}

TEST(LeaseQueue, ReleaseAllFreesOnlyTheLeasesStillHeld)
{
    std::string dir = freshDir("lease-release-all");
    LeaseQueue a(dir, "alice");
    LeaseQueue b(dir, "bob");
    ASSERT_TRUE(a.tryClaim("c1"));
    ASSERT_TRUE(a.tryClaim("c2"));
    ASSERT_TRUE(b.steal("c2")); // a peer seized c2 from alice

    a.releaseAll();
    EXPECT_FALSE(a.isClaimed("c1"));
    EXPECT_TRUE(b.owns("c2"));
    a.releaseAll(); // nothing left to release
    EXPECT_TRUE(b.owns("c2"));
}

TEST(LeaseQueue, GenerationFencesAStaleSelfLease)
{
    std::string dir = freshDir("lease-fence");
    // A worker crashes holding a lease...
    {
        LeaseQueue crashed(dir, "alice");
        ASSERT_TRUE(crashed.tryClaim("cfg"));
    }
    // ...and restarts under the same worker id. The on-disk lease
    // carries its name, but the new incarnation must not mistake
    // the corpse for its own claim.
    LeaseQueue restarted(dir, "alice");
    EXPECT_FALSE(restarted.owns("cfg"));
    EXPECT_FALSE(restarted.tryClaim("cfg")); // file still exists
    // Recovery is the normal stale path: observe, then steal.
    EXPECT_GT(restarted.observeUnchanged("cfg"), 0u);
    EXPECT_TRUE(restarted.steal("cfg"));
    EXPECT_TRUE(restarted.owns("cfg"));
}

TEST(LeaseQueue, DoneMarkersAreByteIdenticalAcrossFinishers)
{
    std::string dir = freshDir("lease-done");
    LeaseQueue a(dir, "alice");
    LeaseQueue b(dir, "bob");
    StoreKey key{0xdeadbeefull};

    a.markDone("cfg", key);
    std::string first = slurp(dir + "/cfg.done");
    b.markDone("cfg", key);
    std::string second = slurp(dir + "/cfg.done");
    // No worker identity in the marker: a straggler and its
    // speculative duplicate publish the identical file, so the race
    // has no loser.
    EXPECT_EQ(first, second);
    EXPECT_TRUE(a.isDone("cfg", key));
    EXPECT_TRUE(b.isDone("cfg", key));
}

TEST(LeaseQueue, TornMarkersReadAsAbsent)
{
    std::string dir = freshDir("lease-torn");
    LeaseQueue q(dir, "alice");
    {
        std::ofstream os(dir + "/cfg.done", std::ios::trunc);
        os << "{\"format\":\"texdist-do"; // cut mid-write
    }
    {
        std::ofstream os(dir + "/cfg.failed", std::ios::trunc);
        os << "{\"format\":\"texdi"; // cut mid-write
    }
    EXPECT_FALSE(q.isDone("cfg", StoreKey{1}));
    EXPECT_FALSE(q.isFailed("cfg", StoreKey{1}));
    // Nothing to drop: a torn marker is overwritten, not removed.
    EXPECT_FALSE(q.dropStaleMarkers("cfg", StoreKey{1}));
    // The config simply re-runs and the rewrite repairs the marker.
    q.markDone("cfg", StoreKey{1});
    EXPECT_TRUE(q.isDone("cfg", StoreKey{1}));
}

TEST(LeaseQueue, FailedMarkerCarriesTheExitCode)
{
    std::string dir = freshDir("lease-failed");
    LeaseQueue q(dir, "alice");
    q.markFailed("cfg", StoreKey{1}, 6);
    int code = -1;
    EXPECT_TRUE(q.isFailed("cfg", StoreKey{1}, &code));
    EXPECT_EQ(code, 6);
    EXPECT_FALSE(q.isDone("cfg", StoreKey{1}));
}

TEST(LeaseQueue, MarkersCountOnlyForTheirKey)
{
    std::string dir = freshDir("lease-keyed");
    LeaseQueue q(dir, "alice");
    q.markDone("done", StoreKey{1});
    q.markFailed("failed", StoreKey{1}, 6);
    // Written for other arguments: neither verdict carries over.
    EXPECT_FALSE(q.isDone("done", StoreKey{2}));
    EXPECT_FALSE(q.isFailed("failed", StoreKey{2}));
    // A marker for the current key is kept...
    EXPECT_FALSE(q.dropStaleMarkers("done", StoreKey{1}));
    EXPECT_TRUE(q.isDone("done", StoreKey{1}));
    // ...and a stale one removed, so it cannot come back should the
    // arguments change back.
    EXPECT_TRUE(q.dropStaleMarkers("done", StoreKey{2}));
    EXPECT_TRUE(q.dropStaleMarkers("failed", StoreKey{2}));
    EXPECT_FALSE(q.isDone("done", StoreKey{1}));
    EXPECT_FALSE(q.isFailed("failed", StoreKey{1}));
    EXPECT_FALSE(q.dropStaleMarkers("done", StoreKey{2}));

    // A failed marker written without a key vouches for none.
    {
        std::ofstream os(dir + "/old.failed", std::ios::trunc);
        os << "{\"config\":\"old\",\"exit_code\":6,"
              "\"format\":\"texdist-failed\",\"version\":1}";
    }
    EXPECT_FALSE(q.isFailed("old", StoreKey{1}));
    EXPECT_TRUE(q.dropStaleMarkers("old", StoreKey{1}));
}

TEST(LeaseQueue, CorruptLeaseReadsAsUnreadableNotFatal)
{
    std::string dir = freshDir("lease-corrupt");
    LeaseQueue q(dir, "alice");
    {
        std::ofstream os(dir + "/cfg.lease", std::ios::trunc);
        os << "not json at all";
    }
    EXPECT_FALSE(q.read("cfg").has_value());
    EXPECT_TRUE(q.isClaimed("cfg")); // the file does exist
    // A corrupt lease never heartbeats, so the normal staleness
    // path reclaims it.
    EXPECT_EQ(q.observeUnchanged("cfg"), 1u);
    EXPECT_TRUE(q.steal("cfg"));
    EXPECT_TRUE(q.owns("cfg"));
}

} // namespace
} // namespace texdist
