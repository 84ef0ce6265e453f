/**
 * @file
 * Pinned digests of the event-driven machine: ParallelMachine frames
 * over a fault and buffer matrix, recorded while every node still
 * owned its triangle FIFO, work event and dead/frozen state. They
 * pin the feeder-owned queues to that timing, tie order included.
 */

#include <gtest/gtest.h>

#include "core/machine.hh"
#include "core/replay.hh"
#include "scene/benchmarks.hh"
#include "sim/checkpoint.hh"

namespace texdist
{
namespace
{

/**
 * The fault plans of the pinned matrix, by index: none, slow-node,
 * bus-stall, a transient fifo-freeze, kill-node, a permanent
 * fifo-freeze under the degrade policy (5) and under fail (6), and a
 * fault-free run with two geometry engines (7).
 */
const char *const pinPlans[] = {
    "",
    "slow-node:1,at=2000,x=4",
    "bus-stall:2,at=1000,for=5000",
    "fifo-freeze:1,at=0,for=3000",
    "kill-node:3,at=2000",
    "fifo-freeze:1,at=0",
    "fifo-freeze:1,at=0",
    "",
};

MachineConfig
pinConfig(uint32_t procs, uint32_t buffer, int plan)
{
    MachineConfig cfg;
    cfg.numProcs = procs;
    cfg.triangleBufferSize = buffer;
    if (*pinPlans[plan])
        cfg.faults.add(pinPlans[plan]);
    if (plan == 5)
        cfg.watchdogPolicy = WatchdogPolicy::Degrade;
    if (plan == 7)
        cfg.geometryProcs = 2;
    return cfg;
}

uint64_t
feederDigest(const ParallelMachine &m, const FrameResult &r)
{
    const GeometryFeeder &f = m.feeder();
    const Histogram &h = f.fifoOccupancyHistogram();
    StateDigest d;
    d.mix(f.blockedCycles());
    d.mix(h.count()).mix(h.sum()).mix(h.minValue()).mix(h.maxValue());
    d.mix(h.stddev());
    d.mix(r.faultStats.trianglesRedistributed);
    d.mix(r.faultStats.fragmentsRerouted);
    d.mix(uint64_t(r.faultStats.detectionTick.has_value()));
    d.mix(r.faultStats.detectionTick.value_or(0));
    d.mix(r.failureReason);
    d.mix(r.diagnostic);
    return d.value();
}

/**
 * `frame` is digestFrame of the result. `feeder` mixes what
 * digestFrame leaves out: the feeder's blocked cycles and occupancy
 * histogram, triangles redistributed, fragments rerouted, the
 * deadlock detection tick and the failure text with its machine
 * state dump.
 */
struct MachinePin
{
    const char *scene;
    uint32_t procs;
    uint32_t buffer;
    int plan; ///< index into pinPlans
    uint64_t frame;
    uint64_t feeder;
};

const MachinePin machinePins[] = {
    {"quake", 4u, 1u, 0, 0xb27a969f88eb8bb5ull, 0x505c57be5843bcb9ull},
    {"quake", 4u, 1u, 1, 0xf7858c0a72f0db5dull, 0xcda2a8280844293full},
    {"quake", 4u, 1u, 2, 0xbc98e0491ad86fc1ull, 0x01282f535c953d8eull},
    {"quake", 4u, 1u, 3, 0x565eb22ea7fd34c9ull, 0xa53dd8205e1db3cdull},
    {"quake", 4u, 1u, 4, 0xc99901a4695bf69eull, 0xc8df13b7eec7b4ecull},
    {"quake", 4u, 1u, 5, 0x4cb0c246e1b8786bull, 0xd58c7c081bd7d087ull},
    {"quake", 4u, 1u, 6, 0xf4166f5443ed75a1ull, 0x0d8ab7bccdf68c07ull},
    {"quake", 4u, 1u, 7, 0x98957686948896beull, 0xe073895282bf85adull},
    {"quake", 4u, 4u, 0, 0xd48686fc4e70528dull, 0xfabe5c5a9aff2b92ull},
    {"quake", 4u, 4u, 1, 0xb3946e56b48ba109ull, 0x18d536c364b8fea6ull},
    {"quake", 4u, 4u, 2, 0xf3fe2463d3951eceull, 0x7b0aac06fef17134ull},
    {"quake", 4u, 4u, 3, 0xbbd56bd24386a76bull, 0x0b1b92c378a28366ull},
    {"quake", 4u, 4u, 4, 0xe8ded30766ea2d8cull, 0xbc0e9a89ad7d10c4ull},
    {"quake", 4u, 4u, 5, 0x9a6da30b0321dfc4ull, 0xb7f9a2156fa8ddf6ull},
    {"quake", 4u, 4u, 6, 0xf4166f5443ed75a1ull, 0x6023ae2bfe2fb277ull},
    {"quake", 4u, 4u, 7, 0xb8bcbbc9d67916fbull, 0x66b49f7c9a288b13ull},
    {"quake", 4u, 10000u, 0, 0x96440fa0ecacc1d4ull, 0xd77acef42726333dull},
    {"quake", 4u, 10000u, 1, 0x6ca7c1f65fc681aeull, 0xd77acef42726333dull},
    {"quake", 4u, 10000u, 2, 0x1090cc3cbb315a52ull, 0xd77acef42726333dull},
    {"quake", 4u, 10000u, 3, 0xe3c272c46dde2f68ull, 0xc1a4b052a4388364ull},
    {"quake", 4u, 10000u, 4, 0xf16f0a8acc99bdf0ull, 0x89cfcd56074fef98ull},
    {"quake", 4u, 10000u, 5, 0x2d704762639c1135ull, 0x16026be7acc55e7cull},
    {"quake", 4u, 10000u, 6, 0xf4166f5443ed75a1ull, 0x59686af938d055f7ull},
    {"quake", 4u, 10000u, 7, 0x4bfec42b50e4196dull, 0x957812bb9f8e76c6ull},
    {"quake", 16u, 1u, 0, 0x48d086f8178eb4d0ull, 0x0ad6c36c6765f6deull},
    {"quake", 16u, 1u, 1, 0x7218a4ce6ee0a9a6ull, 0x23fde7a6c58ff322ull},
    {"quake", 16u, 1u, 2, 0x6733eaf517dd0229ull, 0x75c83698c63a4bacull},
    {"quake", 16u, 1u, 3, 0xe9feee3395ec9db1ull, 0xf780a00e2717a902ull},
    {"quake", 16u, 1u, 4, 0xf5dc989c805b7e15ull, 0x07ec655ab85fd366ull},
    {"quake", 16u, 1u, 5, 0x920f489a0a05f158ull, 0xbfe3688efa10a5bcull},
    {"quake", 16u, 1u, 6, 0xfe1249ac70bd18b5ull, 0x1b7aefd1bada9356ull},
    {"quake", 16u, 1u, 7, 0xa0f7227148e095c8ull, 0x2a01b5e81f74839aull},
    {"quake", 16u, 4u, 0, 0xab02dce1a724f257ull, 0x471fb98c6f3598c5ull},
    {"quake", 16u, 4u, 1, 0x50458e462452e333ull, 0x5095f5b624adde2dull},
    {"quake", 16u, 4u, 2, 0x7ce5ae4dbde0e9ddull, 0xc8bf88d7de37256eull},
    {"quake", 16u, 4u, 3, 0xb1583146f842baf6ull, 0xe83111ae716519aeull},
    {"quake", 16u, 4u, 4, 0x6ad1af653258b875ull, 0x61f30d528d2c0c9dull},
    {"quake", 16u, 4u, 5, 0x4404cd1d09df064dull, 0x9490ecec56f0ee8full},
    {"quake", 16u, 4u, 6, 0xfe1249ac70bd18b5ull, 0x3b06a0b5bf7c3550ull},
    {"quake", 16u, 4u, 7, 0xa6cdbce1ca879ce4ull, 0x462219602bef8572ull},
    {"quake", 16u, 10000u, 0, 0xe1fd64884f7a890dull, 0x8122c63f7263bcd6ull},
    {"quake", 16u, 10000u, 1, 0x9159370a266aea02ull, 0x8122c63f7263bcd6ull},
    {"quake", 16u, 10000u, 2, 0x5e5afd323927ebaeull, 0x8122c63f7263bcd6ull},
    {"quake", 16u, 10000u, 3, 0xe96715069daca73aull, 0x590c65dc5c70bc73ull},
    {"quake", 16u, 10000u, 4, 0x39df19879a499d37ull, 0x1da51f3c64fbf6d9ull},
    {"quake", 16u, 10000u, 5, 0x38a80e725bc7fc2aull, 0xa910f268dc7ef9ccull},
    {"quake", 16u, 10000u, 6, 0xfe1249ac70bd18b5ull, 0xdbda37ccbcf6dea6ull},
    {"quake", 16u, 10000u, 7, 0xacdbd5b92bd60d60ull, 0x404566bfee76c1f3ull},
    {"32massive11255", 4u, 1u, 0, 0x6f2a49daa388f880ull, 0xc9bf78ad481c6e72ull},
    {"32massive11255", 4u, 1u, 1, 0xa6bdb2cdb2939526ull, 0x5f017942e4ce81f5ull},
    {"32massive11255", 4u, 1u, 2, 0x000312cd987e4171ull, 0xc9bf78ad481c6e72ull},
    {"32massive11255", 4u, 1u, 3, 0x00388647fab453f7ull, 0xca177d720916885eull},
    {"32massive11255", 4u, 1u, 4, 0xe9322682ab83b4f8ull, 0x6d4d4c42b6e6c9bcull},
    {"32massive11255", 4u, 1u, 5, 0xffbfd828ee831b9bull, 0xe2e64a8904337f00ull},
    {"32massive11255", 4u, 1u, 6, 0xf4166f5443ed75a1ull, 0x0d8ab7bccdf68c07ull},
    {"32massive11255", 4u, 1u, 7, 0x8f6cc8e1c1b90d6eull, 0xacfa66c2e96de58eull},
    {"32massive11255", 4u, 4u, 0, 0x3413255543375fcbull, 0x5db06e04c245add1ull},
    {"32massive11255", 4u, 4u, 1, 0x6e07c6bddd540dfcull, 0xea698ca347c337e0ull},
    {"32massive11255", 4u, 4u, 2, 0xc861ee6a938699eeull, 0x5db06e04c245add1ull},
    {"32massive11255", 4u, 4u, 3, 0x8cf945d189f639eeull, 0x0f553e603ecb900aull},
    {"32massive11255", 4u, 4u, 4, 0x2b83a0888dc753dfull, 0x6c7157053768f7f6ull},
    {"32massive11255", 4u, 4u, 5, 0xa34cb09c16493350ull, 0x68cc7b686b7abbb9ull},
    {"32massive11255", 4u, 4u, 6, 0xf4166f5443ed75a1ull, 0x6023ae2bfe2fb277ull},
    {"32massive11255", 4u, 4u, 7, 0xc2da46d33c06ae86ull, 0x1c28ae9637b0b93cull},
    {"32massive11255", 4u, 10000u, 0, 0xbffcaa2ac1b0d94cull, 0xc16cb50d2c63e9edull},
    {"32massive11255", 4u, 10000u, 1, 0x2197055099ed8dfdull, 0xc16cb50d2c63e9edull},
    {"32massive11255", 4u, 10000u, 2, 0x80708e44ae36ab6dull, 0xc16cb50d2c63e9edull},
    {"32massive11255", 4u, 10000u, 3, 0x57f0ee26eb054dcdull, 0x2a396ad0c0474f6cull},
    {"32massive11255", 4u, 10000u, 4, 0x5d8753804199c390ull, 0x5ddae56d44ce584full},
    {"32massive11255", 4u, 10000u, 5, 0x603cb713bbc7f448ull, 0xbf0df3fbdede83dbull},
    {"32massive11255", 4u, 10000u, 6, 0xf4166f5443ed75a1ull, 0x59686af938d055f7ull},
    {"32massive11255", 4u, 10000u, 7, 0x3c4cf90269f4a75aull, 0x9ccea7f64b08a8b1ull},
    {"32massive11255", 16u, 1u, 0, 0x74c4a7a64871aeb7ull, 0x8bdb60338709cbd1ull},
    {"32massive11255", 16u, 1u, 1, 0xa386d95703609973ull, 0x06a4647d2817ba5aull},
    {"32massive11255", 16u, 1u, 2, 0x086e6e72b3185e81ull, 0xb9e1274c5d8e5ecbull},
    {"32massive11255", 16u, 1u, 3, 0x4378d3f417443060ull, 0xbba71fda80ebbfcdull},
    {"32massive11255", 16u, 1u, 4, 0x8f3e1f1ad943656dull, 0x80e0373d334de6b6ull},
    {"32massive11255", 16u, 1u, 5, 0xf2f765f92b83c9a3ull, 0xebeeaf61b1c83e79ull},
    {"32massive11255", 16u, 1u, 6, 0xfe1249ac70bd18b5ull, 0x1b7aefd1bada9356ull},
    {"32massive11255", 16u, 1u, 7, 0xba8e6eb9f161ee82ull, 0x98904f9fd2fc847dull},
    {"32massive11255", 16u, 4u, 0, 0xc913df8b536d473bull, 0x8ac8177f272d83c6ull},
    {"32massive11255", 16u, 4u, 1, 0xfa9b796ee1e49734ull, 0x0fcd7dc9923c41fdull},
    {"32massive11255", 16u, 4u, 2, 0x9587cb4f6d1e860bull, 0xfbdd15b6191635eaull},
    {"32massive11255", 16u, 4u, 3, 0x2cde8746d61e299full, 0x84f04cd6345c4d1aull},
    {"32massive11255", 16u, 4u, 4, 0xa1f29251bc6c598aull, 0xb71eccd675c4f2d0ull},
    {"32massive11255", 16u, 4u, 5, 0x82420201a35bcd8dull, 0x6c5901d96c26aa7full},
    {"32massive11255", 16u, 4u, 6, 0xfe1249ac70bd18b5ull, 0x3b06a0b5bf7c3550ull},
    {"32massive11255", 16u, 4u, 7, 0x022293cacbdfa83cull, 0x8ea7892ef6ec92cbull},
    {"32massive11255", 16u, 10000u, 0, 0xccf393b8392950f5ull, 0x393ceb95e2eb73ccull},
    {"32massive11255", 16u, 10000u, 1, 0x18785f0ce5e52695ull, 0x393ceb95e2eb73ccull},
    {"32massive11255", 16u, 10000u, 2, 0x785efc242a97c648ull, 0x393ceb95e2eb73ccull},
    {"32massive11255", 16u, 10000u, 3, 0xcf9f189973c2ddd7ull, 0xd703c62c2085523dull},
    {"32massive11255", 16u, 10000u, 4, 0xfc01a1b1fc22d2d0ull, 0x32aaa0fa0b5204d9ull},
    {"32massive11255", 16u, 10000u, 5, 0xc51bfbe365aa6041ull, 0x667df3c5f17f077aull},
    {"32massive11255", 16u, 10000u, 6, 0xfe1249ac70bd18b5ull, 0xdbda37ccbcf6dea6ull},
    {"32massive11255", 16u, 10000u, 7, 0x514993b85f564741ull, 0x297df9ccd00440d1ull},
};

TEST(Machine, FeederQueuesMatchPinnedDigests)
{
    std::string loaded;
    Scene scene;
    for (const MachinePin &pin : machinePins) {
        if (loaded != pin.scene) {
            scene = makeBenchmark(pin.scene, 0.25);
            loaded = pin.scene;
        }
        ParallelMachine m(scene,
                          pinConfig(pin.procs, pin.buffer, pin.plan));
        FrameResult r = m.run();
        std::string at = std::string(pin.scene) + " procs " +
                         std::to_string(pin.procs) + " buffer " +
                         std::to_string(pin.buffer) + " plan " +
                         std::to_string(pin.plan);
        EXPECT_EQ(digestHex(digestFrame(r)), digestHex(pin.frame)) << at;
        EXPECT_EQ(digestHex(feederDigest(m, r)), digestHex(pin.feeder))
            << at;
    }
}

} // namespace
} // namespace texdist
