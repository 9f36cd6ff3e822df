/**
 * @file
 * Unit tests for the hardware fuzzy-barrier model: the four-state
 * FSM, tag/mask matching, and the broadcast network.
 */

#include <gtest/gtest.h>

#include <vector>

#include "barrier/network.hh"
#include "barrier/state.hh"
#include "barrier/topology.hh"
#include "barrier/unit.hh"

namespace fb::barrier
{
namespace
{

// --------------------------------------------------------------------- Unit

TEST(BarrierUnit, StartsNonBarrier)
{
    BarrierUnit u(4, 0);
    EXPECT_EQ(u.state(), BarrierState::NonBarrier);
    EXPECT_FALSE(u.participating());
    EXPECT_FALSE(u.readySignal());
}

TEST(BarrierUnit, NonParticipantIgnoresArrive)
{
    BarrierUnit u(2, 0);
    u.arrive();  // tag is 0: not participating
    EXPECT_EQ(u.state(), BarrierState::NonBarrier);
    EXPECT_TRUE(u.mayCross());
}

TEST(BarrierUnit, ArriveAssertsReady)
{
    BarrierUnit u(2, 0);
    u.setTag(1);
    u.arrive();
    EXPECT_EQ(u.state(), BarrierState::Ready);
    EXPECT_TRUE(u.readySignal());
    EXPECT_FALSE(u.mayCross());
}

TEST(BarrierUnit, FullEpisodeLifecycle)
{
    BarrierUnit u(2, 0);
    u.setTag(1);
    u.arrive();
    u.deliverSync();
    EXPECT_EQ(u.state(), BarrierState::Synced);
    EXPECT_TRUE(u.mayCross());
    u.cross();
    EXPECT_EQ(u.state(), BarrierState::NonBarrier);
    EXPECT_EQ(u.episodes(), 1u);
    // "No explicit reset is required": a second episode just works.
    u.arrive();
    EXPECT_EQ(u.state(), BarrierState::Ready);
}

TEST(BarrierUnit, StallTransition)
{
    BarrierUnit u(2, 0);
    u.setTag(1);
    u.arrive();
    u.noteStalled();
    EXPECT_EQ(u.state(), BarrierState::Stalled);
    EXPECT_TRUE(u.readySignal());  // still broadcasting readiness
    EXPECT_EQ(u.stalledEpisodes(), 1u);
    u.noteStalled();  // idempotent within an episode
    EXPECT_EQ(u.stalledEpisodes(), 1u);
    u.deliverSync();
    EXPECT_EQ(u.state(), BarrierState::Synced);
}

TEST(BarrierUnit, StallCycleAccounting)
{
    BarrierUnit u(2, 0);
    u.setTag(1);
    u.arrive();
    u.noteStalled();
    u.tickStalled();
    u.tickStalled();
    EXPECT_EQ(u.stallCycles(), 2u);
}

TEST(BarrierUnit, MaskExcludesSelf)
{
    BarrierUnit u(4, 2);
    u.setMask(0b1111);
    EXPECT_TRUE(u.mask().test(0));
    EXPECT_TRUE(u.mask().test(1));
    EXPECT_FALSE(u.mask().test(2));  // self bit always clear
    EXPECT_TRUE(u.mask().test(3));

    u.setMaskBit(2, true);  // ignored
    EXPECT_FALSE(u.mask().test(2));
    u.setMaskBit(3, false);
    EXPECT_FALSE(u.mask().test(3));
}

TEST(BarrierUnit, WordMaskAddressesLow64Prefix)
{
    // A 64-bit SETMASK immediate can only name processors 0..63; in a
    // wider machine it addresses that prefix and clears the rest. The
    // wide all-processors form is setMaskAll().
    BarrierUnit u(128, 0);
    u.setMask(0b110);
    EXPECT_TRUE(u.mask().test(1));
    EXPECT_TRUE(u.mask().test(2));
    EXPECT_EQ(u.mask().count(), 2u);

    u.setMask(~0ull);
    EXPECT_EQ(u.mask().count(), 63u);  // 0..63 minus self
    EXPECT_FALSE(u.mask().test(64));
    EXPECT_FALSE(u.mask().test(127));

    u.setMaskAll();
    EXPECT_EQ(u.mask().count(), 127u);  // everyone but self
    EXPECT_FALSE(u.mask().test(0));
    EXPECT_TRUE(u.mask().test(64));
    EXPECT_TRUE(u.mask().test(127));
}

TEST(BarrierUnit, WideMaskWritesMatchPerBitConstruction)
{
    // 130 processors: three mask words, the last one partial. The
    // word-wise mask writes must produce exactly the per-bit result,
    // self bit clear, whether self sits in the first or the last word.
    constexpr int n = 130;
    for (int self : {5, 129}) {
        BarrierUnit u(n, self);
        BitVector all(n), low(n);
        for (int p = 0; p < n; ++p) {
            if (p == self)
                continue;
            all.set(static_cast<std::size_t>(p));
            if (p < 64)
                low.set(static_cast<std::size_t>(p));
        }

        u.setMask(~0ull);
        EXPECT_TRUE(u.mask() == low) << "self " << self;
        EXPECT_FALSE(u.mask().test(static_cast<std::size_t>(self)));

        u.setMaskAll();
        EXPECT_TRUE(u.mask() == all) << "self " << self;
        EXPECT_FALSE(u.mask().test(static_cast<std::size_t>(self)));

        // A flipped bit in the last word is restored from the shadow
        // copy, counted once.
        u.corruptMaskBit(129);
        EXPECT_FALSE(u.mask() == all) << "self " << self;
        EXPECT_EQ(u.scrub(), 1) << "self " << self;
        EXPECT_TRUE(u.mask() == all) << "self " << self;
        EXPECT_EQ(u.scrub(), 0) << "self " << self;
    }
}

TEST(BarrierUnit, CrossFromNonBarrierIsNoOp)
{
    BarrierUnit u(2, 0);
    u.setTag(1);
    u.cross();  // never armed; e.g. control skipped the region
    EXPECT_EQ(u.state(), BarrierState::NonBarrier);
    EXPECT_EQ(u.episodes(), 0u);
}

// ------------------------------------------------------------------ Network

class NetworkTest : public ::testing::Test
{
  protected:
    /** Arm processor @p p with tag and full-group mask. */
    void
    arm(BarrierNetwork &net, int p, std::uint32_t tag, std::uint64_t mask)
    {
        net.unit(p).setTag(tag);
        net.unit(p).setMask(mask);
    }
};

TEST_F(NetworkTest, NoSyncUntilAllReady)
{
    BarrierNetwork net(2);
    arm(net, 0, 1, 0b11);
    arm(net, 1, 1, 0b11);

    net.unit(0).arrive();
    EXPECT_EQ(net.evaluate(), 0);
    EXPECT_EQ(net.unit(0).state(), BarrierState::Ready);

    net.unit(1).arrive();
    EXPECT_EQ(net.evaluate(), 2);
    EXPECT_EQ(net.unit(0).state(), BarrierState::Synced);
    EXPECT_EQ(net.unit(1).state(), BarrierState::Synced);
    EXPECT_EQ(net.syncEvents(), 1u);
}

TEST_F(NetworkTest, SimultaneousDelivery)
{
    // All four arrive before any evaluation: everyone syncs in the
    // same evaluation, like the common-clock hardware.
    BarrierNetwork net(4);
    for (int p = 0; p < 4; ++p) {
        arm(net, p, 1, 0b1111);
        net.unit(p).arrive();
    }
    EXPECT_EQ(net.evaluate(), 4);
    EXPECT_EQ(net.syncEvents(), 1u);
}

TEST_F(NetworkTest, TagMismatchBlocksSync)
{
    BarrierNetwork net(2);
    arm(net, 0, 1, 0b11);
    arm(net, 1, 2, 0b11);  // different logical barrier
    net.unit(0).arrive();
    net.unit(1).arrive();
    EXPECT_EQ(net.evaluate(), 0);
    EXPECT_EQ(net.unit(0).state(), BarrierState::Ready);
}

TEST_F(NetworkTest, TagMatchAfterRetag)
{
    BarrierNetwork net(2);
    arm(net, 0, 1, 0b11);
    arm(net, 1, 2, 0b11);
    net.unit(0).arrive();
    net.unit(1).arrive();
    EXPECT_EQ(net.evaluate(), 0);
    net.unit(1).setTag(1);  // software re-tags to the matching barrier
    EXPECT_EQ(net.evaluate(), 2);
}

TEST_F(NetworkTest, DisjointSubsetsSyncIndependently)
{
    // Section 5: "Disjoint subsets of processors can independently
    // synchronize among themselves."
    BarrierNetwork net(4);
    arm(net, 0, 1, 0b0011);
    arm(net, 1, 1, 0b0011);
    arm(net, 2, 2, 0b1100);
    arm(net, 3, 2, 0b1100);

    net.unit(0).arrive();
    net.unit(1).arrive();
    net.unit(2).arrive();
    // Group {0,1} is complete; group {2,3} is missing processor 3.
    EXPECT_EQ(net.evaluate(), 2);
    EXPECT_EQ(net.unit(0).state(), BarrierState::Synced);
    EXPECT_EQ(net.unit(2).state(), BarrierState::Ready);

    net.unit(3).arrive();
    EXPECT_EQ(net.evaluate(), 2);
    EXPECT_EQ(net.unit(2).state(), BarrierState::Synced);
    EXPECT_EQ(net.syncEvents(), 2u);
}

TEST_F(NetworkTest, SubsetMaskIgnoresOutsiders)
{
    // Processors 0 and 1 sync with each other; processor 2 never
    // participates and never blocks them.
    BarrierNetwork net(3);
    arm(net, 0, 1, 0b011);
    arm(net, 1, 1, 0b011);
    net.unit(0).arrive();
    net.unit(1).arrive();
    EXPECT_EQ(net.evaluate(), 2);
}

TEST_F(NetworkTest, RepeatedEpisodes)
{
    BarrierNetwork net(2);
    arm(net, 0, 1, 0b11);
    arm(net, 1, 1, 0b11);
    for (int episode = 0; episode < 5; ++episode) {
        net.unit(0).arrive();
        EXPECT_EQ(net.evaluate(), 0);
        net.unit(1).arrive();
        EXPECT_EQ(net.evaluate(), 2);
        net.unit(0).cross();
        net.unit(1).cross();
    }
    EXPECT_EQ(net.unit(0).episodes(), 5u);
    EXPECT_EQ(net.syncEvents(), 5u);
}

TEST_F(NetworkTest, StalledProcessorStillSignalsReady)
{
    BarrierNetwork net(2);
    arm(net, 0, 1, 0b11);
    arm(net, 1, 1, 0b11);
    net.unit(0).arrive();
    net.unit(0).noteStalled();  // exhausted its region
    net.unit(1).arrive();
    EXPECT_EQ(net.evaluate(), 2);
}

TEST_F(NetworkTest, WouldDeadlockOnHaltedPartner)
{
    BarrierNetwork net(2);
    arm(net, 0, 1, 0b11);
    arm(net, 1, 1, 0b11);
    net.unit(0).arrive();
    net.unit(0).noteStalled();
    // Processor 1 halted without arriving.
    EXPECT_TRUE(net.wouldDeadlock({false, true}));
    // If processor 1 were still running, no deadlock yet.
    EXPECT_FALSE(net.wouldDeadlock({false, false}));
}

TEST_F(NetworkTest, WouldDeadlockOnTagMismatch)
{
    BarrierNetwork net(2);
    arm(net, 0, 1, 0b11);
    arm(net, 1, 2, 0b11);
    net.unit(0).arrive();
    net.unit(0).noteStalled();
    net.unit(1).arrive();
    net.unit(1).noteStalled();
    EXPECT_TRUE(net.wouldDeadlock({false, false}));
}

TEST_F(NetworkTest, SyncLatencyDelaysDelivery)
{
    BarrierNetwork net(2, 3);
    arm(net, 0, 1, 0b11);
    arm(net, 1, 1, 0b11);
    net.unit(0).arrive();
    net.unit(1).arrive();
    // Group complete at cycle 10, but the broadcast takes 3 cycles.
    EXPECT_EQ(net.evaluate(10), 0);
    EXPECT_TRUE(net.deliveryPending());
    EXPECT_EQ(net.evaluate(11), 0);
    EXPECT_EQ(net.evaluate(12), 0);
    EXPECT_EQ(net.evaluate(13), 2);
    EXPECT_FALSE(net.deliveryPending());
    EXPECT_EQ(net.unit(0).state(), BarrierState::Synced);
}

TEST_F(NetworkTest, ZeroLatencyDeliversImmediately)
{
    BarrierNetwork net(2, 0);
    arm(net, 0, 1, 0b11);
    arm(net, 1, 1, 0b11);
    net.unit(0).arrive();
    net.unit(1).arrive();
    EXPECT_EQ(net.evaluate(42), 2);
    EXPECT_FALSE(net.deliveryPending());
}

TEST_F(NetworkTest, MaxBarriersForNStreams)
{
    // Section 5: an N-processor system needs at most N-1 logical
    // barriers. Exercise N-1 distinct tags pairwise on a 4-way net:
    // stream creation order 0->1, 1->2, 2->3 using tags 1, 2, 3.
    BarrierNetwork net(4);
    struct Pair { int a, b; std::uint32_t tag; };
    for (const Pair &pr : {Pair{0, 1, 1}, Pair{1, 2, 2}, Pair{2, 3, 3}}) {
        net.unit(pr.a).setTag(pr.tag);
        net.unit(pr.b).setTag(pr.tag);
        std::uint64_t mask =
            (1ull << pr.a) | (1ull << pr.b);
        net.unit(pr.a).setMask(mask);
        net.unit(pr.b).setMask(mask);
        net.unit(pr.a).arrive();
        EXPECT_EQ(net.evaluate(), 0);
        net.unit(pr.b).arrive();
        EXPECT_EQ(net.evaluate(), 2);
        net.unit(pr.a).cross();
        net.unit(pr.b).cross();
    }
    EXPECT_EQ(net.syncEvents(), 3u);
}

// ----------------------------------------------------------------- Topology

Topology
topoOrDie(const char *spec)
{
    Topology t;
    EXPECT_TRUE(Topology::parse(spec, t)) << spec;
    return t;
}

TEST(TopologySpec, ParseAndFormat)
{
    Topology t = topoOrDie("flat");
    EXPECT_TRUE(t.flat());
    EXPECT_EQ(t.toString(), "flat");

    t = topoOrDie("tree:4");
    EXPECT_EQ(t.kind, Topology::Kind::Tree);
    EXPECT_EQ(t.param, 4);
    EXPECT_EQ(t.levelLatency, 1u);
    EXPECT_EQ(t.toString(), "tree:4");

    t = topoOrDie("tree:8:3");
    EXPECT_EQ(t.param, 8);
    EXPECT_EQ(t.levelLatency, 3u);
    EXPECT_EQ(t.toString(), "tree:8:3");

    t = topoOrDie("cluster:16");
    EXPECT_EQ(t.kind, Topology::Kind::Cluster);
    EXPECT_EQ(t.param, 16);
    EXPECT_EQ(t.toString(), "cluster:16");

    EXPECT_TRUE(topoOrDie("tree:4") == topoOrDie("tree:4"));
    EXPECT_FALSE(topoOrDie("tree:4") == topoOrDie("tree:4:2"));
    EXPECT_FALSE(topoOrDie("tree:4") == topoOrDie("cluster:4"));
}

TEST(TopologySpec, ParseRejectsMalformedSpecs)
{
    Topology t = topoOrDie("tree:4:2");
    for (const char *bad :
         {"", "flat:2", "ring:4", "tree", "tree:", "tree:1", "tree:x",
          "tree:4:", "tree:4:0", "cluster:0", "cluster:-8"}) {
        Topology out = t;
        EXPECT_FALSE(Topology::parse(bad, out)) << bad;
        // A failed parse must leave the output untouched.
        EXPECT_TRUE(out == t) << bad;
    }
}

TEST(TopologySpec, SpanLevels)
{
    const Topology flat;
    EXPECT_EQ(flat.spanLevels(0, 1023), 0);
    EXPECT_EQ(flat.extraLatency(0, 1023), 0u);

    const Topology tree = topoOrDie("tree:4");
    EXPECT_EQ(tree.spanLevels(5, 5), 0);    // singleton: no climb
    EXPECT_EQ(tree.spanLevels(0, 3), 1);    // one leaf block
    EXPECT_EQ(tree.spanLevels(4, 7), 1);    // aligned sibling block
    EXPECT_EQ(tree.spanLevels(3, 4), 2);    // straddles two leaves
    EXPECT_EQ(tree.spanLevels(0, 15), 2);
    EXPECT_EQ(tree.spanLevels(0, 255), 4);
    EXPECT_EQ(tree.spanLevels(0, 1023), 5);
    EXPECT_EQ(tree.extraLatency(0, 3), 2u);  // 2 * span * level latency

    const Topology cluster = topoOrDie("cluster:8");
    EXPECT_EQ(cluster.spanLevels(2, 2), 0);
    EXPECT_EQ(cluster.spanLevels(0, 7), 1);    // inside one cluster
    EXPECT_EQ(cluster.spanLevels(8, 15), 1);
    EXPECT_EQ(cluster.spanLevels(0, 8), 2);    // through the root
    EXPECT_EQ(cluster.spanLevels(0, 1023), 2); // root is one hop, always
    EXPECT_EQ(cluster.extraLatency(0, 1023), 4u);

    const Topology deep = topoOrDie("tree:2:3");
    EXPECT_EQ(deep.spanLevels(0, 1), 1);
    EXPECT_EQ(deep.extraLatency(0, 1), 6u);  // level latency scales it
}

TEST_F(NetworkTest, TreeTopologyDelaysBySpan)
{
    // 16 processors on a 4-ary tree: a group confined to one leaf
    // block pays 2 * 1 level, the all-processor group 2 * 2 levels,
    // both on top of the base sync latency of 1.
    BarrierNetwork net(16, 1, topoOrDie("tree:4"));
    for (int p = 0; p < 4; ++p) {
        arm(net, p, 1, 0b1111);
        net.unit(p).arrive();
    }
    // Complete at cycle 10; delivery at 10 + 1 + 2*1*1 = 13.
    EXPECT_EQ(net.evaluate(10), 0);
    EXPECT_TRUE(net.deliveryPending());
    EXPECT_EQ(net.evaluate(12), 0);
    EXPECT_EQ(net.evaluate(13), 4);
    for (int p = 0; p < 4; ++p) {
        EXPECT_EQ(net.unit(p).state(), BarrierState::Synced);
        net.unit(p).cross();
    }

    // The full machine spans two levels: 20 + 1 + 2*2*1 = 25.
    for (int p = 0; p < 16; ++p) {
        net.unit(p).setTag(2);
        net.unit(p).setMaskAll();
        net.unit(p).arrive();
    }
    EXPECT_EQ(net.evaluate(20), 0);
    EXPECT_EQ(net.evaluate(24), 0);
    EXPECT_EQ(net.evaluate(25), 16);
    EXPECT_EQ(net.syncEvents(), 2u);
}

TEST_F(NetworkTest, ClusterTopologyPaysRootOnlyAcrossClusters)
{
    BarrierNetwork net(16, 1, topoOrDie("cluster:8"));
    // Group inside cluster 0: 10 + 1 + 2*1 = 13.
    arm(net, 0, 1, 0b11);
    arm(net, 1, 1, 0b11);
    net.unit(0).arrive();
    net.unit(1).arrive();
    EXPECT_EQ(net.evaluate(10), 0);
    EXPECT_EQ(net.evaluate(13), 2);
    net.unit(0).cross();
    net.unit(1).cross();

    // Group {0, 8} crosses clusters through the root: 20 + 1 + 2*2.
    arm(net, 0, 2, 0b100000001);
    arm(net, 8, 2, 0b100000001);
    net.unit(0).arrive();
    net.unit(8).arrive();
    EXPECT_EQ(net.evaluate(20), 0);
    EXPECT_EQ(net.evaluate(24), 0);
    EXPECT_EQ(net.evaluate(25), 2);
}

TEST_F(NetworkTest, ExplicitFlatTopologyMatchesDefault)
{
    // A flat Topology value must reproduce the paper's single-level
    // network bit for bit: delivery at completion + sync latency.
    BarrierNetwork net(2, 3, Topology{});
    arm(net, 0, 1, 0b11);
    arm(net, 1, 1, 0b11);
    net.unit(0).arrive();
    net.unit(1).arrive();
    EXPECT_EQ(net.evaluate(10), 0);
    EXPECT_EQ(net.evaluate(12), 0);
    EXPECT_EQ(net.evaluate(13), 2);
}

TEST_F(NetworkTest, ResetSwitchesTopology)
{
    BarrierNetwork net(4, 1, topoOrDie("tree:2"));
    EXPECT_EQ(net.topology().toString(), "tree:2");
    net.reset(0, topoOrDie("cluster:2"));
    EXPECT_EQ(net.topology().toString(), "cluster:2");
    // After the reset the new shape's latency applies: {0,1} inside
    // one 2-cluster, span 1, delivery at 10 + 0 + 2.
    arm(net, 0, 1, 0b11);
    arm(net, 1, 1, 0b11);
    net.unit(0).arrive();
    net.unit(1).arrive();
    EXPECT_EQ(net.evaluate(10), 0);
    EXPECT_EQ(net.evaluate(12), 2);
}

// ------------------------------------------------------- wide networks

TEST_F(NetworkTest, WideNetworkSyncsAllMembers)
{
    // 256 processors — four payload words of ready bits — on a
    // hierarchical shape; every member of the machine-wide group
    // observes delivery in the same evaluation.
    BarrierNetwork net(256, 0, topoOrDie("tree:4"));
    for (int p = 0; p < 256; ++p) {
        net.unit(p).setTag(1);
        net.unit(p).setMaskAll();
        net.unit(p).arrive();
    }
    EXPECT_EQ(net.readySet().count(), 256u);
    // Span of [0,255] on a 4-ary tree is 4 levels: 10 + 0 + 8 = 18.
    EXPECT_EQ(net.evaluate(10), 0);
    EXPECT_EQ(net.evaluate(17), 0);
    EXPECT_EQ(net.evaluate(18), 256);
    EXPECT_EQ(net.syncEvents(), 1u);
    for (int p : {0, 63, 64, 255})
        EXPECT_EQ(net.unit(p).state(), BarrierState::Synced);
}

TEST_F(NetworkTest, AnalyzeDeadlockAt256Processors)
{
    // The Fig. 2 diagnosis at scale: 255 processors stalled on a
    // machine-wide barrier, processor 255 halted without arriving.
    BarrierNetwork net(256);
    for (int p = 0; p < 256; ++p) {
        net.unit(p).setTag(1);
        net.unit(p).setMaskAll();
    }
    for (int p = 0; p < 255; ++p) {
        net.unit(p).arrive();
        net.unit(p).noteStalled();
    }
    std::vector<bool> halted(256, false);
    halted[255] = true;

    EXPECT_FALSE(net.wouldDeadlock(std::vector<bool>(256, false)));
    EXPECT_TRUE(net.wouldDeadlock(halted));

    DeadlockReport rep = net.analyzeDeadlock(halted);
    EXPECT_TRUE(rep.deadlocked);
    ASSERT_EQ(rep.stuck.size(), 255u);
    for (const auto &e : rep.stuck) {
        EXPECT_EQ(e.state, BarrierState::Stalled);
        EXPECT_EQ(e.tag, 1u);
        ASSERT_EQ(e.unsatisfied.size(), 1u);
        EXPECT_EQ(e.unsatisfied[0], 255);
    }
    EXPECT_EQ(rep.stuck[0].proc, 0);
    EXPECT_EQ(rep.stuck[254].proc, 254);
    EXPECT_FALSE(rep.toString().empty());
}

} // namespace
} // namespace fb::barrier
