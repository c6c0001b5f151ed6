/**
 * @file
 * Tests for object-file serialization: Program and DistilledProgram
 * round-trips, format validation, and an end-to-end check that a
 * deserialized distilled program drives the MSSP machine identically.
 */

#include <gtest/gtest.h>

#include "asm/objfile.hh"
#include "helpers.hh"

namespace mssp
{
namespace
{

TEST(ObjFile, ProgramRoundTrip)
{
    Program p = assemble(
        "    li t0, 42\n"
        "    out t0, 1\n"
        "lab:\n"
        "    halt\n"
        ".org 0x8000\n"
        "data: .word 1, 2, 0xdeadbeef\n");
    Program q = loadProgram(saveProgram(p));
    EXPECT_EQ(q.entry(), p.entry());
    EXPECT_EQ(q.image(), p.image());
    EXPECT_EQ(q.symbols(), p.symbols());
}

TEST(ObjFile, DistilledRoundTrip)
{
    setQuiet(true);
    PreparedWorkload w = prepare(test::biasedSumSource(150, 3),
                                 test::biasedSumSource(100, 4),
                                 DistillerOptions::paperPreset());
    DistilledProgram d2 = loadDistilled(saveDistilled(w.dist));
    EXPECT_EQ(d2.prog.image(), w.dist.prog.image());
    EXPECT_EQ(d2.prog.entry(), w.dist.prog.entry());
    EXPECT_EQ(d2.taskMap, w.dist.taskMap);
    EXPECT_EQ(d2.taskIntervals, w.dist.taskIntervals);
    EXPECT_EQ(d2.entryMap, w.dist.entryMap);
    EXPECT_EQ(d2.addrMap, w.dist.addrMap);
    EXPECT_EQ(d2.report.distilledStaticInsts,
              w.dist.report.distilledStaticInsts);
    EXPECT_EQ(d2.report.forkSites, w.dist.report.forkSites);
}

TEST(ObjFile, DeserializedDistilledDrivesTheMachine)
{
    setQuiet(true);
    std::string src = test::biasedSumSource(200, 5);
    PreparedWorkload w = prepare(src, test::biasedSumSource(128, 6),
                                 DistillerOptions::paperPreset());
    DistilledProgram d2 = loadDistilled(saveDistilled(w.dist));

    MsspConfig cfg;
    MsspMachine m1(w.orig, w.dist, cfg);
    MsspMachine m2(w.orig, d2, cfg);
    MsspResult r1 = m1.run(100000000ull);
    MsspResult r2 = m2.run(100000000ull);
    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_EQ(r1.outputs, r2.outputs);
    EXPECT_EQ(r1.committedInsts, r2.committedInsts);
}

TEST(ObjFile, EditMetadataSurvivesRoundTrip)
{
    setQuiet(true);
    PreparedWorkload w = prepare(test::biasedSumSource(150, 3),
                                 test::biasedSumSource(100, 4),
                                 DistillerOptions::paperPreset());
    ASSERT_FALSE(w.dist.report.edits.empty());
    DistilledProgram d2 = loadDistilled(saveDistilled(w.dist));
    ASSERT_EQ(d2.report.edits.size(), w.dist.report.edits.size());
    for (size_t i = 0; i < d2.report.edits.size(); ++i) {
        const DistillEdit &a = w.dist.report.edits[i];
        const DistillEdit &b = d2.report.edits[i];
        EXPECT_EQ(b.pass, a.pass) << "edit " << i;
        EXPECT_EQ(b.origPc, a.origPc) << "edit " << i;
        EXPECT_EQ(b.reg, a.reg) << "edit " << i;
        EXPECT_EQ(b.hasValue, a.hasValue) << "edit " << i;
        EXPECT_EQ(b.value, a.value) << "edit " << i;
        EXPECT_EQ(b.regionStart, a.regionStart) << "edit " << i;
        EXPECT_EQ(b.liveOut, a.liveOut) << "edit " << i;
    }
}

TEST(ObjFile, StaleFormatVersionIsRejectedWithMessage)
{
    // Files from older builds must be rejected with a message that
    // names both versions, not silently misparsed (v2 carries no
    // specedit lines and v3-v5 carry the retired specload/specplan
    // lines; accepting any would fail the specedit checks or the
    // parser in confusing ways instead).
    for (const char *header :
         {"mssp-distilled v2", "mssp-distilled v3",
          "mssp-distilled v4", "mssp-distilled v5"}) {
        std::string stale =
            std::string(header) + "\nentry 0x400000\n";
        try {
            loadDistilled(stale);
            FAIL() << "stale format version was accepted: "
                   << header;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what())
                          .find("unsupported object format version"),
                      std::string::npos)
                << e.what();
            EXPECT_NE(
                std::string(e.what()).find("mssp-distilled v6"),
                std::string::npos)
                << e.what();
        }
    }
}

TEST(ObjFile, RetiredSpecLoadAndSpecPlanLinesAreFatal)
{
    // v6 dropped the persisted load classes and plan; a v6 file that
    // still carries either line is malformed, not silently accepted.
    setQuiet(true);
    PreparedWorkload w = prepare(test::biasedSumSource(150, 3),
                                 test::biasedSumSource(100, 4),
                                 DistillerOptions::paperPreset());
    std::string text = saveDistilled(w.dist);
    EXPECT_EQ(text.find("specload"), std::string::npos);
    EXPECT_EQ(text.find("specplan"), std::string::npos);
    EXPECT_THROW(loadDistilled(text + "specload 0x400000 risky\n"),
                 FatalError);
    EXPECT_THROW(
        loadDistilled(text +
                      "specplan 0x400000 proven 0x5 1 0x5\n"),
        FatalError);
}

TEST(ObjFile, UnknownProofClassAndBadBenefitAreFatal)
{
    // specedit lines share the proof-name parse and the 64-bit
    // benefit parse; both rejection paths must stay fatal.
    setQuiet(true);
    PreparedWorkload w = prepare(test::biasedSumSource(150, 3),
                                 test::biasedSumSource(100, 4),
                                 DistillerOptions::paperPreset());
    std::string text = saveDistilled(w.dist);
    EXPECT_NO_THROW(loadDistilled(
        text + "specedit 0x10 0x400000 5 0x2000 proven 0x5 1 -\n"));
    EXPECT_THROW(
        loadDistilled(text + "specedit 0x10 0x400000 5 0x2000 "
                             "surely 0x5 1 -\n"),
        FatalError);
    EXPECT_THROW(
        loadDistilled(text + "specedit 0x10 0x400000 5 0x2000 "
                             "proven 0x5 -3 -\n"),
        FatalError);
}

TEST(ObjFile, LargeBenefitSurvivesRoundTrip)
{
    // benefitMicro is 64-bit; a value past 2^32 must not truncate.
    setQuiet(true);
    PreparedWorkload w = prepare(test::biasedSumSource(150, 3),
                                 test::biasedSumSource(100, 4),
                                 DistillerOptions::paperPreset());
    DistilledProgram big = w.dist;
    SpecEdit e;
    e.origPc = 0x10;
    e.distPc = 0x400000;
    e.reg = 5;
    e.addr = 0x2000;
    e.value = 5;
    e.benefitMicro = 0x123456789abcull;
    big.specEdits.push_back(e);
    DistilledProgram d2 = loadDistilled(saveDistilled(big));
    ASSERT_EQ(d2.specEdits.size(), 1u);
    EXPECT_EQ(d2.specEdits[0].benefitMicro, 0x123456789abcull);
}

TEST(ObjFile, BadMagicIsFatal)
{
    EXPECT_THROW(loadProgram("garbage\n"), FatalError);
    EXPECT_THROW(loadDistilled(saveProgram(Program{})), FatalError);
}

TEST(ObjFile, MalformedLineIsFatal)
{
    std::string good = saveProgram(Program{});
    EXPECT_THROW(loadProgram(good + "word nonsense\n"), FatalError);
    EXPECT_THROW(loadProgram(good + "frobnicate 1 2\n"), FatalError);
}

TEST(ObjFile, CommentsAndBlankLinesIgnored)
{
    Program p;
    p.setWord(0x10, 7);
    p.setEntry(0x10);
    std::string text = saveProgram(p) + "\n; a comment\n\n";
    Program q = loadProgram(text);
    EXPECT_EQ(q.word(0x10), 7u);
}

} // anonymous namespace
} // namespace mssp
