/**
 * @file
 * Unit tests for machine-state containers: cells, StateDelta, paged
 * memory and ArchState. (The algebraic laws of superimposition get
 * their own randomized suite in test_formal_properties.cpp.)
 */

#include <gtest/gtest.h>

#include <map>
#include <unordered_map>

#include "arch/arch_state.hh"
#include "arch/cell.hh"
#include "arch/paged_mem.hh"
#include "arch/state_delta.hh"
#include "asm/program.hh"
#include "sim/rng.hh"

namespace mssp
{
namespace
{

TEST(Cell, PackUnpack)
{
    CellId r = makeRegCell(7);
    EXPECT_EQ(cellKind(r), CellKind::Reg);
    EXPECT_EQ(cellIndex(r), 7u);

    CellId m = makeMemCell(0xdeadbeef);
    EXPECT_EQ(cellKind(m), CellKind::Mem);
    EXPECT_EQ(cellIndex(m), 0xdeadbeefu);

    EXPECT_EQ(cellKind(PcCell), CellKind::Pc);
    EXPECT_NE(makeRegCell(0), makeMemCell(0));
}

TEST(Cell, ToString)
{
    EXPECT_EQ(cellToString(makeRegCell(3)), "r3(a0)");
    EXPECT_EQ(cellToString(makeMemCell(0x10)), "mem[0x10]");
    EXPECT_EQ(cellToString(PcCell), "pc");
}

TEST(StateDelta, SetGetContains)
{
    StateDelta d;
    EXPECT_TRUE(d.empty());
    d.set(makeRegCell(1), 42);
    EXPECT_TRUE(d.contains(makeRegCell(1)));
    EXPECT_EQ(d.get(makeRegCell(1)).value(), 42u);
    EXPECT_FALSE(d.get(makeRegCell(2)).has_value());
    d.set(makeRegCell(1), 43);
    EXPECT_EQ(d.get(makeRegCell(1)).value(), 43u);
    EXPECT_EQ(d.size(), 1u);
}

TEST(StateDelta, SuperimposeOverwrites)
{
    StateDelta a, b;
    a.set(makeRegCell(1), 10);
    a.set(makeRegCell(2), 20);
    b.set(makeRegCell(2), 99);
    b.set(makeRegCell(3), 30);
    StateDelta c = StateDelta::superimposed(a, b);
    EXPECT_EQ(c.get(makeRegCell(1)).value(), 10u);
    EXPECT_EQ(c.get(makeRegCell(2)).value(), 99u);
    EXPECT_EQ(c.get(makeRegCell(3)).value(), 30u);
    EXPECT_EQ(c.size(), 3u);
}

TEST(StateDelta, ConsistentWithSubset)
{
    StateDelta small, big;
    small.set(makeRegCell(1), 1);
    big.set(makeRegCell(1), 1);
    big.set(makeRegCell(2), 2);
    EXPECT_TRUE(small.consistentWith(big));
    EXPECT_FALSE(big.consistentWith(small));  // r2 missing from small
    small.set(makeRegCell(2), 3);
    EXPECT_FALSE(small.consistentWith(big));  // value mismatch
}

TEST(StateDelta, SortedDeterministic)
{
    StateDelta d;
    d.set(makeMemCell(5), 50);
    d.set(makeRegCell(9), 90);
    d.set(makeMemCell(1), 10);
    auto v = d.sorted();
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[0].first, makeRegCell(9));
    EXPECT_EQ(v[1].first, makeMemCell(1));
    EXPECT_EQ(v[2].first, makeMemCell(5));
}

/** A random CellId drawn from a small universe (forces collisions). */
CellId
randomCell(Rng &rng)
{
    switch (rng.below(3)) {
      case 0:
        return makeRegCell(static_cast<unsigned>(rng.below(32)));
      case 1:
        return makeMemCell(static_cast<uint32_t>(rng.below(64)));
      default:
        return PcCell;
    }
}

// Model-based property test of the open-addressing flat map: a long
// random op sequence (set / first-binding capture through a
// lookup cursor / get / clear / grow) must agree with
// std::unordered_map at every point, across rehashes.
TEST(StateDeltaFlatMap, AgreesWithReferenceModel)
{
    Rng rng(0xfeedu);
    StateDelta d;
    std::unordered_map<CellId, uint32_t> model;

    for (int step = 0; step < 20000; ++step) {
        CellId cell = randomCell(rng);
        auto value = static_cast<uint32_t>(rng.next());
        switch (rng.below(5)) {
          case 0:
          case 1:
            d.set(cell, value);
            model[cell] = value;
            break;
          case 2: {
            // The slave's live-in capture: probe once, bind at the
            // cursor only when the cell has no binding yet.
            StateDelta::Cursor c = d.lookup(cell);
            if (c.found) {
                ASSERT_EQ(d.valueAt(c), model.at(cell));
            } else {
                d.insertAt(c, cell, value);
            }
            bool model_inserted = model.emplace(cell, value).second;
            ASSERT_EQ(!c.found, model_inserted);
            break;
          }
          case 3: {
            auto got = d.get(cell);
            auto it = model.find(cell);
            ASSERT_EQ(got.has_value(), it != model.end());
            if (got) {
                ASSERT_EQ(*got, it->second);
            }
            break;
          }
          default:
            if (rng.chance(0.01)) {
                d.clear();
                model.clear();
            }
            break;
        }
        ASSERT_EQ(d.size(), model.size());
    }

    // Iteration visits exactly the bound entries.
    size_t seen = 0;
    for (const auto &[cell, value] : d) {
        auto it = model.find(cell);
        ASSERT_NE(it, model.end());
        ASSERT_EQ(value, it->second);
        ++seen;
    }
    ASSERT_EQ(seen, model.size());
}

// The algebraic laws the commit unit relies on (the randomized law
// suite lives in test_formal_properties.cpp; this instance targets
// flat-map internals: collisions and growth).
TEST(StateDeltaFlatMap, LawsSurviveCollisionsAndGrowth)
{
    Rng rng(0x5eedu);
    for (int trial = 0; trial < 200; ++trial) {
        StateDelta a, b;
        std::map<CellId, uint32_t> ma, mb;
        for (int i = 0; i < 50; ++i) {
            CellId ca = randomCell(rng);
            CellId cb = randomCell(rng);
            auto va = static_cast<uint32_t>(rng.next());
            auto vb = static_cast<uint32_t>(rng.next());
            a.set(ca, va);
            ma[ca] = va;
            b.set(cb, vb);
            mb[cb] = vb;
        }
        // superimposed(a, b): b's bindings win, a's fill the rest.
        StateDelta c = StateDelta::superimposed(a, b);
        for (const auto &[cell, value] : mb)
            ASSERT_EQ(c.get(cell).value(), value);
        for (const auto &[cell, value] : ma) {
            if (!mb.count(cell)) {
                ASSERT_EQ(c.get(cell).value(), value);
            }
        }
        ASSERT_EQ(c.size(), StateDelta::superimposed(b, a).size());

        // a and b are each consistent with the superimposition where
        // it retained their bindings; c covers b entirely.
        ASSERT_TRUE(b.consistentWith(c));
        ASSERT_EQ(a == b, ma == mb);
    }
}

TEST(PagedMem, DefaultZeroAndWriteAllocates)
{
    PagedMem mem;
    EXPECT_EQ(mem.read(0x12345), 0u);
    EXPECT_EQ(mem.numPages(), 0u);
    mem.write(0x12345, 7);
    EXPECT_EQ(mem.read(0x12345), 7u);
    EXPECT_EQ(mem.numPages(), 1u);
    // Same page: no new allocation.
    mem.write(0x12346, 8);
    EXPECT_EQ(mem.numPages(), 1u);
    // Different page.
    mem.write(0x92345, 9);
    EXPECT_EQ(mem.numPages(), 2u);
}

TEST(PagedMem, PageBoundary)
{
    PagedMem mem;
    uint32_t last = PagedMem::PageWords - 1;
    mem.write(last, 1);
    mem.write(last + 1, 2);
    EXPECT_EQ(mem.read(last), 1u);
    EXPECT_EQ(mem.read(last + 1), 2u);
    EXPECT_EQ(mem.numPages(), 2u);
}

TEST(PagedMem, NonzeroWordsSorted)
{
    PagedMem mem;
    mem.write(100, 1);
    mem.write(5, 2);
    mem.write(0x50000, 3);
    mem.write(7, 0);    // zero value: not reported
    auto words = mem.nonzeroWords();
    ASSERT_EQ(words.size(), 3u);
    EXPECT_EQ(words[0], (std::pair<uint32_t, uint32_t>{5, 2}));
    EXPECT_EQ(words[1], (std::pair<uint32_t, uint32_t>{100, 1}));
    EXPECT_EQ(words[2], (std::pair<uint32_t, uint32_t>{0x50000, 3}));
}

TEST(PagedMem, CopyAssignReusesPagesAndDeepCopies)
{
    PagedMem a;
    a.write(10, 1);
    a.write(0x10000, 2);
    PagedMem b;
    b.write(10, 99);         // page to be reused
    b.write(0x90000, 42);    // page absent from a: must go away
    b = a;
    EXPECT_EQ(b.read(10), 1u);
    EXPECT_EQ(b.read(0x10000), 2u);
    EXPECT_EQ(b.read(0x90000), 0u);
    EXPECT_EQ(b.numPages(), a.numPages());
    // Deep copy: mutating one is invisible to the other (the MRU
    // fast path must not alias across objects).
    b.write(10, 7);
    EXPECT_EQ(a.read(10), 1u);
    a.write(0x10000, 5);
    EXPECT_EQ(b.read(0x10000), 2u);
}

TEST(ArchState, RegisterZeroHardwired)
{
    ArchState s;
    s.writeReg(0, 99);
    EXPECT_EQ(s.readReg(0), 0u);
    s.writeCell(makeRegCell(0), 99);
    EXPECT_EQ(s.readCell(makeRegCell(0)), 0u);
}

TEST(ArchState, CellRoundTrip)
{
    ArchState s;
    s.writeCell(makeRegCell(4), 44);
    s.writeCell(makeMemCell(0x200), 55);
    s.writeCell(PcCell, 0x1000);
    EXPECT_EQ(s.readReg(4), 44u);
    EXPECT_EQ(s.readMem(0x200), 55u);
    EXPECT_EQ(s.pc(), 0x1000u);
    EXPECT_EQ(s.readCell(makeRegCell(4)), 44u);
    EXPECT_EQ(s.readCell(makeMemCell(0x200)), 55u);
    EXPECT_EQ(s.readCell(PcCell), 0x1000u);
}

TEST(ArchState, LoadProgramSetsImageAndEntry)
{
    Program prog;
    prog.setWord(0x1000, 0xabcd);
    prog.setWord(0x2000, 0x1234);
    prog.setEntry(0x1000);
    ArchState s;
    s.loadProgram(prog);
    EXPECT_EQ(s.readMem(0x1000), 0xabcdu);
    EXPECT_EQ(s.readMem(0x2000), 0x1234u);
    EXPECT_EQ(s.pc(), 0x1000u);
}

} // anonymous namespace
} // namespace mssp
