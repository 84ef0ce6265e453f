/** @file Unit tests for the bounded FIFO. */

#include <gtest/gtest.h>

#include "sim/fifo.hh"

namespace texdist
{
namespace
{

TEST(BoundedFifo, StartsEmpty)
{
    BoundedFifo<int> fifo(4);
    EXPECT_TRUE(fifo.empty());
    EXPECT_FALSE(fifo.full());
    EXPECT_EQ(fifo.size(), 0u);
}

TEST(BoundedFifo, FifoOrder)
{
    BoundedFifo<int> fifo(8);
    for (int i = 0; i < 5; ++i)
        fifo.push(i);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(fifo.pop(), i);
    EXPECT_TRUE(fifo.empty());
}

TEST(BoundedFifo, FullAtCapacity)
{
    BoundedFifo<int> fifo(3);
    fifo.push(1);
    fifo.push(2);
    EXPECT_FALSE(fifo.full());
    fifo.push(3);
    EXPECT_TRUE(fifo.full());
    fifo.pop();
    EXPECT_FALSE(fifo.full());
}

TEST(BoundedFifo, CapacityOne)
{
    BoundedFifo<int> fifo(1);
    fifo.push(42);
    EXPECT_TRUE(fifo.full());
    EXPECT_EQ(fifo.pop(), 42);
    EXPECT_TRUE(fifo.empty());
    fifo.push(43);
    EXPECT_EQ(fifo.pop(), 43);
}

TEST(BoundedFifo, MoveOnlyFriendlyValueSemantics)
{
    // TriangleWork-like payloads carry vectors; check they move
    // through intact.
    struct Payload
    {
        std::vector<int> data;
    };
    BoundedFifo<Payload> fifo(2);
    Payload p;
    p.data = {1, 2, 3};
    fifo.push(p);
    Payload out = fifo.pop();
    EXPECT_EQ(out.data, (std::vector<int>{1, 2, 3}));
}

TEST(BoundedFifo, RepeatedFillDrainCyclesKeepOrder)
{
    // Full-queue wraparound: fill to capacity and drain completely,
    // many times over, so the underlying deque cycles through every
    // internal offset. Order and bookkeeping must survive.
    BoundedFifo<int> fifo(3);
    int next = 0;
    for (int cycle = 0; cycle < 50; ++cycle) {
        while (!fifo.full())
            fifo.push(next++);
        EXPECT_EQ(fifo.size(), 3u);
        int expect = next - 3;
        while (!fifo.empty())
            EXPECT_EQ(fifo.pop(), expect++);
        EXPECT_EQ(expect, next);
    }
}

TEST(BoundedFifo, PartialDrainWraparound)
{
    // Interleaved push/pop that keeps the queue near-full while the
    // head position wraps repeatedly.
    BoundedFifo<int> fifo(4);
    int in = 0, out = 0;
    for (int i = 0; i < 3; ++i)
        fifo.push(in++);
    for (int step = 0; step < 100; ++step) {
        fifo.push(in++);
        EXPECT_EQ(fifo.pop(), out++);
    }
    EXPECT_EQ(fifo.size(), 3u);
    while (!fifo.empty())
        EXPECT_EQ(fifo.pop(), out++);
    EXPECT_EQ(out, in);
}

TEST(BoundedFifo, ForcePushOverfillsThenDrains)
{
    // Degradation mode bypasses the capacity check; the queue must
    // report over-capacity honestly and drain in order.
    BoundedFifo<int> fifo(2);
    fifo.push(1);
    fifo.push(2);
    fifo.forcePush(3);
    fifo.forcePush(4);
    EXPECT_TRUE(fifo.full());
    EXPECT_EQ(fifo.size(), 4u);
    for (int i = 1; i <= 4; ++i)
        EXPECT_EQ(fifo.pop(), i);
    EXPECT_TRUE(fifo.empty());
    // Back under capacity: normal pushes work again.
    fifo.push(5);
    EXPECT_EQ(fifo.pop(), 5);
}

TEST(BoundedFifoDeath, PushToFullPanics)
{
    BoundedFifo<int> fifo(1);
    fifo.push(1);
    EXPECT_DEATH(fifo.push(2), "full FIFO");
}

TEST(BoundedFifoDeath, PopFromEmptyPanics)
{
    BoundedFifo<int> fifo(1);
    EXPECT_DEATH(fifo.pop(), "empty FIFO");
}

TEST(BoundedFifoDeath, ZeroCapacityFatal)
{
    EXPECT_EXIT(BoundedFifo<int>(0), ::testing::ExitedWithCode(1),
                "positive");
}

} // namespace
} // namespace texdist
