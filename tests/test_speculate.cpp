/**
 * @file
 * The value-speculating distiller (distill/speculate.cc) and its
 * .mdo persistence (the specedit, specdrop and specgen lines).
 *
 * The contract under test, per DESIGN.md §13: baking a Proven
 * speculation-plan candidate into the master's image must never
 * change architected results (the machine polices every prediction
 * through the fork/verify/squash protocol), the speculated image
 * must persist byte-deterministically with full specedit provenance,
 * and every corruption class — tampered record, tampered image word,
 * dropped provenance — must be caught by mssp-lint statically or the
 * crossval SEQ replay dynamically.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "analysis/specplan.hh"
#include "analysis/verifier.hh"
#include "asm/objfile.hh"
#include "eval/crossval.hh"
#include "eval/experiment.hh"
#include "helpers.hh"
#include "sim/logging.hh"
#include "util/string_utils.hh"
#include "workloads/workloads.hh"

namespace mssp
{
namespace
{

/** Prepare one registry workload and speculate it. */
struct Speculated
{
    PreparedWorkload w;
    DistilledProgram spec;
};

Speculated
speculateWorkload(const std::string &name, double scale = 0.05)
{
    setQuiet(true);
    Workload wl = workloadByName(name, scale);
    Speculated s;
    s.w = prepare(wl.refSource, wl.trainSource,
                  DistillerOptions::paperPreset());
    s.spec = distillSpeculated(s.w.orig, s.w.profile,
                               DistillerOptions::paperPreset(),
                               SpeculateOptions{});
    return s;
}

/** Rewrite the first line starting with @p key via @p edit. */
std::string
tamperLine(const std::string &text, const std::string &key,
           const std::function<std::string(const std::string &)> &edit)
{
    std::string out;
    bool done = false;
    size_t pos = 0;
    while (pos < text.size()) {
        size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            nl = text.size();
        std::string line = text.substr(pos, nl - pos);
        if (!done && line.rfind(key, 0) == 0) {
            line = edit(line);
            done = true;
        }
        if (!line.empty() || nl < text.size())
            out += line + "\n";
        pos = nl + 1;
    }
    EXPECT_TRUE(done) << "no '" << key << "' line to tamper with";
    return out;
}

} // anonymous namespace

TEST(Speculate, BakedImageStaysEquivalentToSeqOracle)
{
    // mcf: pointer chasing with one Proven plan candidate. The baked
    // image must commit byte-identical architected state.
    Speculated s = speculateWorkload("mcf");
    ASSERT_GE(s.spec.specEdits.size(), 1u);
    MsspMachine m(s.w.orig, s.spec, MsspConfig{});
    MsspResult r = m.run(400000000ull);
    test::expectEquivalent(s.w.orig, r);
}

TEST(Speculate, SpeculatedDistillationIsByteDeterministic)
{
    Speculated a = speculateWorkload("bzip2");
    Speculated b = speculateWorkload("bzip2");
    EXPECT_EQ(saveDistilled(a.spec), saveDistilled(b.spec));
}

TEST(Speculate, V5RoundTripPreservesEverySpecField)
{
    Speculated s = speculateWorkload("gcc");
    ASSERT_FALSE(s.spec.specEdits.empty());
    std::string text = saveDistilled(s.spec);
    DistilledProgram back = loadDistilled(text);
    EXPECT_EQ(back.specEdits, s.spec.specEdits);
    EXPECT_EQ(back.specDropped, s.spec.specDropped);
    EXPECT_EQ(back.specGeneration, s.spec.specGeneration);
    // Second save must reproduce the bytes exactly.
    EXPECT_EQ(saveDistilled(back), text);
}

TEST(Speculate, SpeculatedImagePassesEveryStaticValidator)
{
    // The speculated image's checkpoint masks and edit metadata must
    // be its own, stamped afresh — not the un-speculated base
    // image's, which distillSpeculated() plans on to pick the bakes.
    for (const Workload &wl : specAnalogues(0.05)) {
        SCOPED_TRACE(wl.name);
        Speculated s = speculateWorkload(wl.name);
        analysis::LintReport rep =
            analysis::verifyDistilled(s.w.orig, s.spec);
        EXPECT_EQ(rep.errors(), 0u) << rep.toText();
        analysis::SemanticResult sem =
            analysis::verifyDistilledSemantic(s.w.orig, s.spec);
        EXPECT_EQ(sem.lint.errors(), 0u) << sem.lint.toText();
    }
}

TEST(Speculate, BakesComeFromTheLintedPlan)
{
    // distillSpeculated() plans the image distill() returns, before
    // any bake. So every bake must be a candidate that mssp-lint
    // --plan reports for that image, at a distilled PC whose original
    // PC is the baked load's, with the same address, value, proof
    // and benefit.
    size_t baked = 0;
    for (const Workload &wl : specAnalogues(0.05)) {
        SCOPED_TRACE(wl.name);
        Speculated s = speculateWorkload(wl.name);
        analysis::SpecPlanReport plan =
            analysis::analyzeSpecPlan(s.w.orig, s.w.dist);
        for (const SpecEdit &e : s.spec.specEdits) {
            bool planned = std::any_of(
                plan.candidates.begin(), plan.candidates.end(),
                [&](const analysis::SpecPlanCandidate &c) {
                    auto it = s.w.dist.pcOrigin.find(c.pc);
                    return it != s.w.dist.pcOrigin.end() &&
                           it->second == e.origPc &&
                           c.addr == e.addr && c.value == e.value &&
                           c.proof == e.proof &&
                           c.benefitMicro == e.benefitMicro;
                });
            EXPECT_TRUE(planned) << strfmt(
                "bake of the load at 0x%x (value 0x%x, benefit "
                "%llu) matches no linted plan candidate",
                e.origPc, e.value,
                static_cast<unsigned long long>(e.benefitMicro));
            ++baked;
        }
    }
    EXPECT_GT(baked, 0u);
}

TEST(Speculate, TamperedSpecEditValueIsCaughtStaticallyAndAtRuntime)
{
    Speculated s = speculateWorkload("mcf");
    ASSERT_FALSE(s.spec.specEdits.empty());
    // Flip the recorded baked value (token 6 of the specedit line).
    std::string bad = tamperLine(
        saveDistilled(s.spec), "specedit", [](const std::string &l) {
            std::vector<std::string> toks;
            for (std::string_view t : split(l, ' '))
                toks.emplace_back(t);
            toks[6] = "0xdeadbeef";
            std::string out;
            for (size_t i = 0; i < toks.size(); ++i)
                out += (i ? " " : "") + toks[i];
            return out;
        });
    DistilledProgram tampered = loadDistilled(bad);

    // Statically: the record no longer matches the image's baked
    // constant.
    analysis::LintReport rep =
        analysis::verifyDistilled(s.w.orig, tampered);
    EXPECT_GT(rep.errors(), 0u);
    EXPECT_NE(rep.toText().find("specedit-mismatch"),
              std::string::npos)
        << rep.toText();

    // Dynamically: the SEQ replay of the original program observes
    // values the corrupted record never predicts.
    SpecEditDynamicResult dyn =
        validateSpecEditsDynamic(s.w.orig, tampered);
    EXPECT_GE(dyn.checkedEdits, 1u);
    EXPECT_GT(dyn.provenMismatches, 0u) << dyn.firstViolation;
}

TEST(Speculate, TamperedBakedImageWordIsCaughtByLint)
{
    Speculated s = speculateWorkload("mcf");
    ASSERT_FALSE(s.spec.specEdits.empty());
    // Overwrite the LoadImm word the edit points at with a nop-like
    // unrelated instruction; the record and image now disagree.
    uint32_t dist_pc = s.spec.specEdits.front().distPc;
    std::string key = strfmt("word 0x%x ", dist_pc);
    std::string bad = tamperLine(
        saveDistilled(s.spec), key, [&](const std::string &) {
            return strfmt("word 0x%x 0x0", dist_pc);
        });
    DistilledProgram tampered = loadDistilled(bad);
    analysis::LintReport rep =
        analysis::verifyDistilled(s.w.orig, tampered);
    EXPECT_GT(rep.errors(), 0u);
    EXPECT_NE(rep.toText().find("specedit-mismatch"),
              std::string::npos)
        << rep.toText();
}

TEST(Speculate, DroppedProvenanceIsCaughtAsCoverageError)
{
    Speculated s = speculateWorkload("mcf");
    ASSERT_FALSE(s.spec.specEdits.empty());
    // Remove the ValueSpec edit-log line backing the first specedit:
    // a speculated image without provenance for a bake must not lint
    // clean.
    const SpecEdit &e = s.spec.specEdits.front();
    std::string key = strfmt("edit value-spec 0x%x", e.origPc);
    std::string text = saveDistilled(s.spec);
    ASSERT_NE(text.find(key), std::string::npos);
    std::string bad =
        tamperLine(text, key, [](const std::string &) {
            return std::string();
        });
    DistilledProgram tampered = loadDistilled(bad);
    analysis::LintReport rep =
        analysis::verifyDistilled(s.w.orig, tampered);
    EXPECT_GT(rep.errors(), 0u);
    EXPECT_NE(rep.toText().find("specedit-coverage"),
              std::string::npos)
        << rep.toText();
}

TEST(Speculate, DespeculatedLoadsAreExcludedAndRecorded)
{
    Speculated s = speculateWorkload("mcf");
    ASSERT_FALSE(s.spec.specEdits.empty());
    SpeculateOptions sopts;
    sopts.despeculated.push_back(s.spec.specEdits.front().origPc);
    sopts.generation = 3;
    DistilledProgram dropped = distillSpeculated(
        s.w.orig, s.w.profile, DistillerOptions::paperPreset(),
        sopts);
    EXPECT_EQ(dropped.specEdits.size(), s.spec.specEdits.size() - 1);
    EXPECT_EQ(dropped.specDropped, sopts.despeculated);
    EXPECT_EQ(dropped.specGeneration, 3u);
    for (const SpecEdit &e : dropped.specEdits)
        EXPECT_NE(e.origPc, sopts.despeculated.front());
    // And the exclusion set round-trips through the object format.
    DistilledProgram back = loadDistilled(saveDistilled(dropped));
    EXPECT_EQ(back.specDropped, sopts.despeculated);
    EXPECT_EQ(back.specGeneration, 3u);
}

TEST(Speculate, SweepBakesProvenLoadsAndShortensMasterPath)
{
    // The paper's payoff across the whole registry: every speculated
    // image stays SEQ-equivalent, never lengthens the master's
    // retired path, and at least 8 of the 12 workloads bake >=1
    // Proven load while retiring strictly fewer master instructions.
    setQuiet(true);
    size_t proven_and_fewer = 0;
    for (const Workload &wl : specAnalogues(0.05)) {
        SCOPED_TRACE(wl.name);
        PreparedWorkload w =
            prepare(wl.refSource, wl.trainSource,
                    DistillerOptions::paperPreset());
        DistilledProgram spec = distillSpeculated(
            w.orig, w.profile, DistillerOptions::paperPreset(),
            SpeculateOptions{});
        size_t proven = 0;
        for (const SpecEdit &e : spec.specEdits)
            proven += e.proof == ValueProof::Proven ? 1 : 0;

        WorkloadRun base =
            runPrepared(wl.name, w, MsspConfig{}, 400000000ull);
        ASSERT_TRUE(base.ok);
        PreparedWorkload sw{w.orig, w.profile, spec};
        WorkloadRun srun =
            runPrepared(wl.name, sw, MsspConfig{}, 400000000ull);
        EXPECT_TRUE(srun.ok);
        EXPECT_LE(srun.counters.masterInsts, base.counters.masterInsts);
        if (proven >= 1 &&
            srun.counters.masterInsts < base.counters.masterInsts)
            ++proven_and_fewer;
    }
    EXPECT_GE(proven_and_fewer, 8u);
}

} // namespace mssp
