/**
 * @file
 * Unit tests for the dataflow analysis framework (src/analysis/):
 * dominators, SCCs, the generic solver (including convergence on
 * looping and irreducible graphs) and liveness.
 */

#include <gtest/gtest.h>

#include "analysis/dataflow.hh"
#include "analysis/flow_graph.hh"
#include "analysis/liveness.hh"
#include "asm/assembler.hh"
#include "distill/ir.hh"

using namespace mssp;
using namespace mssp::analysis;

namespace
{

FlowGraph
diamond()
{
    // 0 -> 1 -> 3, 0 -> 2 -> 3
    FlowGraph g(4);
    g.addEdge(0, 1);
    g.addEdge(0, 2);
    g.addEdge(1, 3);
    g.addEdge(2, 3);
    return g;
}

FlowGraph
loopGraph()
{
    // 0 -> 1 <-> 2, 2 -> 3
    FlowGraph g(4);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(2, 1);
    g.addEdge(2, 3);
    return g;
}

/** The classic irreducible shape: two loop entries. */
FlowGraph
irreducible()
{
    // 0 -> 1, 0 -> 2, 1 <-> 2, 1 -> 3
    FlowGraph g(4);
    g.addEdge(0, 1);
    g.addEdge(0, 2);
    g.addEdge(1, 2);
    g.addEdge(2, 1);
    g.addEdge(1, 3);
    return g;
}

} // anonymous namespace

TEST(Dominators, Diamond)
{
    FlowGraph g = diamond();
    std::vector<int> idom = computeIdom(g);
    EXPECT_EQ(idom[0], 0);
    EXPECT_EQ(idom[1], 0);
    EXPECT_EQ(idom[2], 0);
    EXPECT_EQ(idom[3], 0);   // neither arm dominates the join

    DomTree dt(g);
    EXPECT_TRUE(dt.dominates(0, 3));
    EXPECT_FALSE(dt.dominates(1, 3));
    EXPECT_FALSE(dt.dominates(2, 3));
    EXPECT_TRUE(dt.dominates(1, 1));
}

TEST(Dominators, Loop)
{
    FlowGraph g = loopGraph();
    std::vector<int> idom = computeIdom(g);
    EXPECT_EQ(idom[1], 0);
    EXPECT_EQ(idom[2], 1);
    EXPECT_EQ(idom[3], 2);

    DomTree dt(g);
    EXPECT_TRUE(dt.dominates(1, 3));
    EXPECT_TRUE(dt.dominates(2, 3));
    EXPECT_FALSE(dt.dominates(3, 2));
}

TEST(Dominators, IrreducibleJoinFallsToEntry)
{
    FlowGraph g = irreducible();
    std::vector<int> idom = computeIdom(g);
    // Both loop entries are reachable around each other: only the
    // graph entry dominates them.
    EXPECT_EQ(idom[1], 0);
    EXPECT_EQ(idom[2], 0);
    EXPECT_EQ(idom[3], 1);
}

TEST(Dominators, UnreachableNode)
{
    FlowGraph g(3);
    g.addEdge(0, 1);   // node 2 is disconnected
    DomTree dt(g);
    EXPECT_TRUE(dt.reachable(1));
    EXPECT_FALSE(dt.reachable(2));
    EXPECT_EQ(computeIdom(g)[2], -1);
}

TEST(Sccs, LoopsAndSelfEdges)
{
    FlowGraph g(5);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(2, 1);   // {1,2} cyclic
    g.addEdge(2, 3);
    g.addEdge(3, 3);   // {3} cyclic via self-edge
    g.addEdge(3, 4);   // {4} trivial

    SccResult scc = computeSccs(g);
    EXPECT_EQ(scc.comp[1], scc.comp[2]);
    EXPECT_NE(scc.comp[0], scc.comp[1]);
    EXPECT_TRUE(scc.cyclic[static_cast<size_t>(scc.comp[1])]);
    EXPECT_TRUE(scc.cyclic[static_cast<size_t>(scc.comp[3])]);
    EXPECT_FALSE(scc.cyclic[static_cast<size_t>(scc.comp[0])]);
    EXPECT_FALSE(scc.cyclic[static_cast<size_t>(scc.comp[4])]);
}

TEST(Solver, ForwardReachesFixpointOnLoop)
{
    FlowGraph g = loopGraph();
    // "Taint" analysis: node 0 generates bit 1, node 3 generates bit
    // 2; nothing kills. Everything downstream of 0 sees bit 1.
    MaskDomain dom(g.size());
    dom.gen[0] = 0b10;
    dom.gen[3] = 0b100;

    auto res = solveDataflow(g, dom, Direction::Forward);
    EXPECT_EQ(res.out[0], 0b10u);
    EXPECT_EQ(res.out[1], 0b10u);
    EXPECT_EQ(res.out[2], 0b10u);
    EXPECT_EQ(res.out[3], 0b110u);
    // RPO iteration converges fast on a reducible loop.
    EXPECT_LE(res.sweeps, 3u);
}

TEST(Solver, ConvergesOnIrreducibleGraph)
{
    FlowGraph g = irreducible();
    MaskDomain dom(g.size());
    dom.gen[2] = 0b1000;   // flows 2 -> 1 -> 3 and around the loop

    auto res = solveDataflow(g, dom, Direction::Forward);
    EXPECT_EQ(res.out[1], 0b1000u);
    EXPECT_EQ(res.out[3], 0b1000u);
    // Must terminate; irreducibility may cost extra sweeps but the
    // fixpoint is the same.
    EXPECT_GE(res.sweeps, 2u);
    EXPECT_LE(res.sweeps, 6u);
}

TEST(Solver, BackwardLivenessOrientation)
{
    // 0 -> 1 -> 2; a use in 2 must be live-in all the way up unless
    // killed.
    FlowGraph g(3);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    MaskDomain dom(g.size());
    dom.gen[2] = 1u << 5;    // block 2 reads r5
    dom.kill[1] = 1u << 5;   // block 1 writes r5

    auto res = solveRegLiveness(g, dom);
    // in = live-out, out = live-in.
    EXPECT_EQ(res.out[2], 1u << 5);
    EXPECT_EQ(res.in[1], 1u << 5);
    EXPECT_EQ(res.out[1], 0u);   // killed by the write
    EXPECT_EQ(res.out[0], 0u);
}

TEST(Solver, MultiRootRpoCoversExtraRoots)
{
    FlowGraph g(4);
    g.addEdge(0, 1);
    g.addEdge(2, 3);   // reachable only via the extra root
    g.entry = 0;
    g.roots = {0, 2};

    std::vector<int> order = g.rpo();
    EXPECT_EQ(order.size(), 4u);
}

TEST(Liveness, LoopProgram)
{
    Program p = assemble(
        "    li t0, 3\n"
        "    li t1, 0\n"
        "loop:\n"
        "    add t1, t1, t0\n"
        "    addi t0, t0, -1\n"
        "    bne t0, zero, loop\n"
        "    out t1, 0\n"
        "    halt\n");
    Cfg cfg = Cfg::build(p, p.entry());
    auto live = computeLiveness(cfg);

    uint32_t loop_pc = DefaultCodeBase + 2;
    ASSERT_TRUE(live.count(loop_pc));
    // The loop body reads both counters before writing them.
    EXPECT_EQ(live[loop_pc].liveIn,
              (1u << reg::T0) | (1u << reg::T1));
    // Nothing is read before being written at the entry.
    EXPECT_EQ(live[p.entry()].liveIn, 0u);
    EXPECT_EQ(live[p.entry()].liveOut,
              (1u << reg::T0) | (1u << reg::T1));
}

TEST(Liveness, IrAndCfgAgreeOnStraightLine)
{
    Program p = assemble(
        "    li t0, 3\n"
        "    add t1, t0, t0\n"
        "    out t1, 0\n"
        "    halt\n");
    Cfg cfg = Cfg::build(p, p.entry());
    DistillIr ir = DistillIr::build(cfg, nullptr);

    auto cfg_live = computeLiveness(cfg);
    auto ir_live = computeIrLiveness(ir);

    int entry_blk = ir.blockOfOrigPc(p.entry());
    ASSERT_GE(entry_blk, 0);
    EXPECT_EQ(cfg_live[p.entry()].liveIn,
              ir_live[static_cast<size_t>(entry_blk)].liveIn);
    EXPECT_EQ(cfg_live[p.entry()].liveOut,
              ir_live[static_cast<size_t>(entry_blk)].liveOut);
}
