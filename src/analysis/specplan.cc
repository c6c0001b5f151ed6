/**
 * @file
 * Speculation planner implementation (see specplan.hh).
 */

#include "analysis/specplan.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"
#include "util/string_utils.hh"

namespace mssp::analysis
{

namespace
{

/** "12.345678" — benefitMicro rendered as a fixed-point unit score. */
std::string
fmtBenefit(uint64_t micro)
{
    return strfmt("%llu.%06llu",
                  static_cast<unsigned long long>(micro / 1000000),
                  static_cast<unsigned long long>(micro % 1000000));
}

/**
 * The per-candidate static cost model (DESIGN.md §5.4):
 *
 *   benefit = P * 100 * ratio / (1 + density) / (1 + guards)
 *
 * P = 1 (Proven) or 1/|feasible| (Likely); ratio = original /
 * distilled static instruction count (distillation leverage);
 * density = Risky-load fraction of the classified loads sharing a
 * fork region with the candidate; guards = pruned branches whose
 * block shares a region (each is a potential misprediction that
 * squashes the speculation anyway). Inputs are small integers, so
 * the IEEE double result — and its micro-unit rounding — is
 * deterministic.
 */
uint64_t
benefitOf(const LoadValueFact &f, const DistilledProgram &dist,
          const ValueFlowResult &vf)
{
    double proofW =
        f.proof == ValueProof::Proven
            ? 1.0
            : 1.0 / static_cast<double>(
                        std::max<size_t>(1, f.feasible.size()));

    size_t origInsts = std::max<size_t>(
        1, dist.report.origStaticInsts);
    size_t distInsts = std::max<size_t>(
        1, dist.report.distilledStaticInsts);
    double ratio = static_cast<double>(origInsts) /
                   static_cast<double>(distInsts);

    size_t shared = 0, risky = 0;
    for (const auto &[pc, info] : vf.loadRegions) {
        if (!regionsIntersect(info.regions, f.regions))
            continue;
        shared++;
        risky += info.cls == LoadSpecClass::Risky;
    }
    double density = static_cast<double>(risky) /
                     static_cast<double>(std::max<size_t>(1, shared));

    size_t guards = 0;
    for (const DistillEdit &e : dist.report.edits) {
        if (e.pass != DistillEdit::Pass::BranchPrune)
            continue;
        auto it = dist.addrMap.find(e.regionStart);
        RegionMask mask = RegionAll;
        if (it != dist.addrMap.end()) {
            auto bit = vf.blockRegions.find(it->second);
            if (bit != vf.blockRegions.end())
                mask = bit->second;
        }
        guards += regionsIntersect(mask, f.regions);
    }

    double benefit = proofW * 100.0 * ratio / (1.0 + density) /
                     (1.0 + static_cast<double>(guards));
    return static_cast<uint64_t>(std::llround(benefit * 1e6));
}

} // anonymous namespace

size_t
SpecPlanReport::proven() const
{
    size_t n = 0;
    for (const SpecPlanCandidate &c : candidates)
        n += c.proof == ValueProof::Proven;
    return n;
}

size_t
SpecPlanReport::likely() const
{
    size_t n = 0;
    for (const SpecPlanCandidate &c : candidates)
        n += c.proof == ValueProof::Likely;
    return n;
}

std::vector<SpecPlanCandidate>
planSpeculation(const DistilledProgram &dist, const ValueFlowResult &vf)
{
    std::vector<SpecPlanCandidate> out;
    out.reserve(vf.facts.size());
    for (const LoadValueFact &f : vf.facts) {
        SpecPlanCandidate c;
        c.pc = f.pc;
        c.addr = f.addr;
        c.cls = f.cls;
        c.proof = f.proof;
        c.value = f.value;
        c.feasible = f.feasible;
        c.storePc = f.storePc;
        c.regions = f.regions;
        c.benefitMicro = benefitOf(f, dist, vf);
        c.detail = f.detail;
        out.push_back(std::move(c));
    }
    std::sort(out.begin(), out.end(),
              [](const SpecPlanCandidate &x,
                 const SpecPlanCandidate &y) {
                  if (x.benefitMicro != y.benefitMicro)
                      return x.benefitMicro > y.benefitMicro;
                  return x.pc < y.pc;
              });
    return out;
}

SpecPlanReport
analyzeSpecPlan(const Program &orig, const DistilledProgram &dist)
{
    Cfg origCfg = Cfg::build(orig, orig.entry());
    AbsintResult origAi = analyzeProgram(orig, origCfg);
    MergedImageAnalysis mia(orig, origCfg, origAi, dist);
    ValueFlowResult vf = analyzeValueFlow(mia, classifySpecLoads(mia));
    SpecPlanReport rep;
    rep.candidates = planSpeculation(dist, vf);
    rep.loadsConsidered = vf.loadsConsidered;
    return rep;
}

std::string
SpecPlanReport::toText() const
{
    std::string out;
    for (size_t i = 0; i < candidates.size(); ++i) {
        const SpecPlanCandidate &c = candidates[i];
        out += strfmt("plan #%zu pc=0x%x [%s] class=%s addr=0x%x "
                      "value=0x%x benefit=%s",
                      i, c.pc, valueProofName(c.proof),
                      loadSpecClassName(c.cls), c.addr, c.value,
                      fmtBenefit(c.benefitMicro).c_str());
        if (c.feasible.size() > 1) {
            out += " feasible={";
            for (size_t k = 0; k < c.feasible.size(); ++k)
                out += strfmt("%s0x%x", k ? ", " : "", c.feasible[k]);
            out += "}";
        }
        if (c.storePc != UINT32_MAX)
            out += strfmt(" demoted-by=0x%x", c.storePc);
        out += strfmt(": %s\n", c.detail.c_str());
    }
    out += strfmt("%zu candidate(s): %zu proven, %zu likely (of %zu "
                  "eligible load(s))\n",
                  candidates.size(), proven(), likely(),
                  loadsConsidered);
    return out;
}

std::string
SpecPlanReport::toJson(const std::string &workload) const
{
    std::string out = "{\"schema\": \"mssp-specplan-v1\", ";
    if (workload.empty())
        out += "\"workload\": null, ";
    else
        out += strfmt("\"workload\": \"%s\", ", workload.c_str());
    out += strfmt("\"counts\": {\"candidates\": %zu, \"proven\": "
                  "%zu, \"likely\": %zu, \"considered\": %zu}, ",
                  candidates.size(), proven(), likely(),
                  loadsConsidered);
    out += "\"candidates\": [";
    for (size_t i = 0; i < candidates.size(); ++i) {
        const SpecPlanCandidate &c = candidates[i];
        if (i)
            out += ", ";
        out += strfmt("{\"rank\": %zu, \"pc\": \"0x%x\", \"proof\": "
                      "\"%s\", \"class\": \"%s\", \"addr\": "
                      "\"0x%x\", \"value\": \"0x%x\", "
                      "\"benefitMicro\": %llu, ",
                      i, c.pc, valueProofName(c.proof),
                      loadSpecClassName(c.cls), c.addr, c.value,
                      static_cast<unsigned long long>(
                          c.benefitMicro));
        out += "\"feasible\": [";
        for (size_t k = 0; k < c.feasible.size(); ++k)
            out += strfmt("%s\"0x%x\"", k ? ", " : "", c.feasible[k]);
        out += "], ";
        if (c.storePc != UINT32_MAX)
            out += strfmt("\"storePc\": \"0x%x\", ", c.storePc);
        else
            out += "\"storePc\": null, ";
        out += strfmt("\"detail\": \"%s\"}",
                      jsonEscape(c.detail).c_str());
    }
    // Embed the metadata-validation findings as the report's "lint"
    // object (its trailing newline dropped).
    std::string lj = lint.toJson();
    while (!lj.empty() && lj.back() == '\n')
        lj.pop_back();
    out += "], \"lint\": " + lj + "}\n";
    return out;
}

} // namespace mssp::analysis
