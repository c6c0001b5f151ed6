#include "eval/suite.hh"

#include <functional>
#include <map>
#include <ostream>
#include <utility>

#include "analysis/specplan.hh"
#include "analysis/specsafe.hh"
#include "analysis/verifier.hh"
#include "eval/adapt.hh"
#include "eval/crossval.hh"
#include "sim/logging.hh"
#include "sim/supervisor.hh"
#include "sim/thread_annotations.hh"
#include "workloads/workloads.hh"

namespace mssp
{

namespace
{

std::string
fmtG(double v)
{
    return strfmt("%g", v);
}

} // anonymous namespace

size_t
SuiteReport::evalFailures() const
{
    size_t n = 0;
    for (const SuiteWorkloadResult &w : workloads)
        n += w.ok() ? 0 : 1;
    return n;
}

bool
SuiteReport::ok() const
{
    return evalFailures() == 0 && campaign.failures() == 0 &&
           campaign.allTypesFired() && quarantinedTotal() == 0;
}

std::string
SuiteReport::toJson() const
{
    std::string out = "{\"schema\": \"mssp-suite-v6\",\n";
    out += strfmt(" \"seed\": %llu, \"scale\": %s, ",
                  static_cast<unsigned long long>(options.seed),
                  fmtG(options.scale).c_str());
    out += "\"workloads\": [";
    for (size_t i = 0; i < options.workloads.size(); ++i) {
        out += strfmt("%s\"%s\"", i ? ", " : "",
                      options.workloads[i].c_str());
    }
    out += "],\n \"eval\": [\n";
    for (size_t i = 0; i < workloads.size(); ++i) {
        const SuiteWorkloadResult &w = workloads[i];
        out += strfmt(
            "  {\"workload\": \"%s\", "
            "\"lint\": {\"errors\": %zu, \"warnings\": %zu}, "
            "\"semantic\": {\"edits\": %zu, \"proven\": %zu, "
            "\"risky\": %zu, \"unknown\": %zu, \"errors\": %zu}, "
            "\"specsafe\": {\"loads\": %zu, "
            "\"provablyInvariant\": %zu, \"regionInvariant\": %zu, "
            "\"risky\": %zu, \"errors\": %zu, \"violations\": %llu}, "
            "\"specplan\": {\"candidates\": %zu, \"proven\": %zu, "
            "\"likely\": %zu, \"errors\": %zu, "
            "\"provenMismatches\": %llu, "
            "\"likelyObservations\": %llu, \"likelyHits\": %llu, "
            "\"likelyHitRate\": %s}, "
            "\"run\": {\"ok\": %s, \"stopReason\": \"%s\", "
            "\"seqInsts\": %llu, \"baselineCycles\": %llu, "
            "\"msspCycles\": %llu, \"speedup\": %s, "
            "\"masterInsts\": %llu, "
            "\"distillRatio\": %s, \"meanTaskSize\": %s}, "
            "\"speculation\": {\"baked\": %zu, "
            "\"bakedProven\": %zu, \"iterations\": %zu, "
            "\"converged\": %s, \"despeculated\": %zu, "
            "\"lintErrors\": %zu, \"editMismatches\": %llu, "
            "\"run\": {\"ok\": %s, \"msspCycles\": %llu, "
            "\"speedup\": %s, \"masterInsts\": %llu}}, "
            "\"crossval\": {\"divergenceSquashes\": %llu, "
            "\"consistent\": %s}, \"ok\": %s}%s\n",
            w.name.c_str(), w.lintErrors, w.lintWarnings, w.edits,
            w.proven, w.risky, w.unknown, w.semanticErrors,
            w.specLoads, w.specProvablyInvariant,
            w.specRegionInvariant, w.specRisky, w.specErrors,
            static_cast<unsigned long long>(w.specViolations),
            w.planCandidates, w.planProven, w.planLikely,
            w.planErrors,
            static_cast<unsigned long long>(w.planProvenMismatches),
            static_cast<unsigned long long>(
                w.planLikelyObservations),
            static_cast<unsigned long long>(w.planLikelyHits),
            w.planLikelyObservations
                ? fmtG(static_cast<double>(w.planLikelyHits) /
                       static_cast<double>(w.planLikelyObservations))
                      .c_str()
                : "null",
            w.run.ok ? "true" : "false", toString(w.run.stopReason),
            static_cast<unsigned long long>(w.run.seqInsts),
            static_cast<unsigned long long>(w.run.baselineCycles),
            static_cast<unsigned long long>(w.run.msspCycles),
            fmtG(w.run.speedup).c_str(),
            static_cast<unsigned long long>(w.run.counters.masterInsts),
            fmtG(w.run.distillRatio).c_str(),
            fmtG(w.run.meanTaskSize).c_str(),
            w.specBaked, w.specBakedProven, w.specAdaptIterations,
            w.specAdaptConverged ? "true" : "false",
            w.specDespeculated, w.specImageLintErrors,
            static_cast<unsigned long long>(w.specEditMismatches),
            w.specRun.ok ? "true" : "false",
            static_cast<unsigned long long>(w.specRun.msspCycles),
            fmtG(w.specRun.speedup).c_str(),
            static_cast<unsigned long long>(w.specRun.counters.masterInsts),
            static_cast<unsigned long long>(w.divergenceSquashes),
            w.consistent ? "true" : "false",
            w.ok() ? "true" : "false",
            i + 1 < workloads.size() ? "," : "");
    }
    // Embed the campaign's own deterministic document as the value of
    // "campaign" (its trailing newline dropped).
    std::string camp = campaign.toJson();
    while (!camp.empty() && camp.back() == '\n')
        camp.pop_back();
    out += " ],\n \"evalQuarantine\": " + evalQuarantine.toJson() +
           ",\n";
    out += " \"campaign\": " + camp + ",\n";
    out += strfmt(" \"evalFailures\": %zu, \"quarantined\": %zu, "
                  "\"ok\": %s}\n",
                  evalFailures(), quarantinedTotal(),
                  ok() ? "true" : "false");
    return out;
}

std::string
SuiteReport::summary() const
{
    Table t({"workload", "lint", "sem-err", "proven/edits",
             "loads PI/RI/R", "spec", "plan P/L", "pv-miss", "l-hit",
             "run", "speedup", "baked P/T", "adapt", "spec-run",
             "div-squash", "consistent", "verdict"});
    for (const SuiteWorkloadResult &w : workloads) {
        std::string lhit = "-";
        if (w.planLikelyObservations) {
            lhit = strfmt(
                "%.0f%%",
                100.0 * static_cast<double>(w.planLikelyHits) /
                    static_cast<double>(w.planLikelyObservations));
        }
        t.addRow({w.name,
                  w.lintErrors ? strfmt("%zu ERR", w.lintErrors)
                               : "clean",
                  strfmt("%zu", w.semanticErrors),
                  strfmt("%zu/%zu", w.proven, w.edits),
                  strfmt("%zu/%zu/%zu", w.specProvablyInvariant,
                         w.specRegionInvariant, w.specRisky),
                  w.specErrors || w.specViolations
                      ? strfmt("%zu err %llu viol", w.specErrors,
                               static_cast<unsigned long long>(
                                   w.specViolations))
                      : "clean",
                  strfmt("%zu/%zu", w.planProven, w.planLikely),
                  strfmt("%llu", static_cast<unsigned long long>(
                                     w.planProvenMismatches)),
                  lhit,
                  w.run.ok ? "ok" : toString(w.run.stopReason),
                  fmt2(w.run.speedup),
                  strfmt("%zu/%zu", w.specBakedProven, w.specBaked),
                  w.specAdaptConverged
                      ? strfmt("conv@%zu", w.specAdaptIterations)
                      : "NOCONV",
                  w.specImageLintErrors || w.specEditMismatches
                      ? strfmt("%zu err %llu miss",
                               w.specImageLintErrors,
                               static_cast<unsigned long long>(
                                   w.specEditMismatches))
                      : (w.specRun.ok ? "ok"
                                      : toString(
                                            w.specRun.stopReason)),
                  strfmt("%llu", static_cast<unsigned long long>(
                                     w.divergenceSquashes)),
                  w.consistent ? "yes" : "NO",
                  w.ok() ? "ok" : "FAIL"});
    }
    std::string s =
        t.render("mssp-suite: distill + lint + semantic + specsafe "
                 "+ specplan + run + crossval");
    s += evalQuarantine.summary();
    s += "\n";
    s += campaign.summary();
    s += strfmt("\nsuite: %zu eval failure(s), %zu campaign "
                "failure(s), %zu quarantined -> %s\n",
                evalFailures(), campaign.failures(),
                quarantinedTotal(), ok() ? "OK" : "FAIL");
    return s;
}

SuiteReport
runSuite(const SuiteOptions &opts, std::ostream *log)
{
    SuiteReport report;
    report.options = opts;
    if (report.options.workloads.empty()) {
        for (const Workload &wl : specAnalogues(opts.scale))
            report.options.workloads.push_back(wl.name);
    }
    const std::vector<std::string> &names = report.options.workloads;
    unsigned jobs = opts.jobs ? opts.jobs : 1;

    // Phase one: one job per workload runs the evaluation chain and
    // builds the campaign's oracle from the prepared pipeline.
    using Phase1 = std::pair<SuiteWorkloadResult, SeqOracle>;
    Mutex log_m;
    std::vector<std::function<Phase1()>> work;
    work.reserve(names.size());
    for (const std::string &name : names) {
        work.push_back([&opts, &log_m, log, &name] {
            SuiteWorkloadResult r;
            r.name = name;

            Workload wl = workloadByName(name, opts.scale);
            PreparedWorkload prepared =
                prepare(wl.refSource, wl.trainSource,
                        DistillerOptions::paperPreset());

            analysis::LintReport lint =
                analysis::verifyDistilled(prepared.orig,
                                          prepared.dist);
            r.lintErrors = lint.errors();
            r.lintWarnings = lint.warnings();

            analysis::SemanticResult sem =
                analysis::verifyDistilledSemantic(prepared.orig,
                                                  prepared.dist);
            r.edits = sem.semantic.verdicts.size();
            r.proven = sem.semantic.proven();
            r.risky = sem.semantic.risky();
            r.unknown = sem.semantic.unknown();
            r.semanticErrors = sem.lint.errors();

            analysis::SpecSafeReport spec =
                analysis::analyzeSpecSafe(prepared.orig,
                                          prepared.dist);
            r.specLoads = spec.loads.size();
            r.specProvablyInvariant = spec.provablyInvariant();
            r.specRegionInvariant = spec.regionInvariant();
            r.specRisky = spec.risky();
            r.specErrors = spec.lint.errors();
            r.specViolations =
                validateSpecSafeDynamic(prepared.orig, prepared.dist,
                                        spec.loads)
                    .valueChanges;

            analysis::SpecPlanReport plan =
                analysis::analyzeSpecPlan(prepared.orig,
                                          prepared.dist);
            r.planCandidates = plan.candidates.size();
            r.planProven = plan.proven();
            r.planLikely = plan.likely();
            r.planErrors = plan.lint.errors();
            SpecPlanDynamicResult pdyn = validateSpecPlanDynamic(
                prepared.orig, prepared.dist, plan.candidates);
            r.planProvenMismatches = pdyn.provenMismatches;
            r.planLikelyObservations = pdyn.likelyObservations;
            r.planLikelyHits = pdyn.likelyHits;

            r.run = runPrepared(name, prepared, MsspConfig{},
                                opts.runMaxCycles);

            // Speculation stage: adapt a value-speculated image off
            // the same profile, gate it statically (all validators on
            // the speculated image), dynamically (baked constants vs
            // the SEQ replay of the original), and architecturally
            // (full machine run vs the same baseline).
            AdaptOptions aopts;
            aopts.runMaxCycles = opts.runMaxCycles;
            AdaptResult adapted = adaptSpeculation(
                prepared.orig, prepared.profile,
                DistillerOptions::paperPreset(), aopts);
            r.specBaked = adapted.dist.specEdits.size();
            for (const SpecEdit &e : adapted.dist.specEdits)
                r.specBakedProven +=
                    e.proof == ValueProof::Proven ? 1 : 0;
            r.specAdaptIterations = adapted.iterations.size();
            r.specAdaptConverged = adapted.converged;
            r.specDespeculated = adapted.despeculated.size();
            r.specImageLintErrors =
                analysis::verifyDistilled(prepared.orig, adapted.dist)
                    .errors() +
                analysis::verifyDistilledSemantic(prepared.orig,
                                                  adapted.dist)
                    .lint.errors() +
                analysis::analyzeSpecSafe(prepared.orig, adapted.dist)
                    .lint.errors() +
                analysis::analyzeSpecPlan(prepared.orig, adapted.dist)
                    .lint.errors();
            r.specEditMismatches =
                validateSpecEditsDynamic(prepared.orig, adapted.dist)
                    .provenMismatches;
            PreparedWorkload spec_prepared{prepared.orig,
                                           prepared.profile,
                                           std::move(adapted.dist)};
            r.specRun = runPrepared(name, spec_prepared, MsspConfig{},
                                    opts.runMaxCycles);

            r.divergenceSquashes =
                r.run.counters.tasksSquashedLiveIn +
                r.run.counters.tasksSquashedWrongPc;
            bool all_proven = r.proven == r.edits;
            r.consistent = r.run.ok &&
                           (!all_proven || r.divergenceSquashes == 0);

            SeqOracle oracle = makeSeqOracle(std::move(prepared));
            if (log) {
                MutexLock lock(log_m);
                *log << strfmt("  [eval] %-10s %s\n", r.name.c_str(),
                               r.ok() ? "ok" : "FAIL");
                log->flush();
            }
            return Phase1(std::move(r), std::move(oracle));
        });
    }
    SupervisedResult<Phase1> phase1 =
        runSupervised<Phase1>(jobs, std::move(work), names);
    std::map<std::string, SeqOracle> oracles;
    for (Phase1 &done : phase1.healthy) {
        oracles.emplace(done.first.name, std::move(done.second));
        report.workloads.push_back(std::move(done.first));
    }
    report.evalQuarantine = std::move(phase1.quarantine);
    if (log && !report.evalQuarantine.empty()) {
        *log << report.evalQuarantine.summary();
        log->flush();
    }

    // Phase two: the fault-campaign cell sweep on its own threads,
    // reusing phase one's oracles (no workload is prepared twice). A
    // quarantined workload has no oracle yet; the campaign's warm
    // phase builds it deterministically.
    CampaignOptions copts;
    copts.workloads = names;
    copts.intensities = opts.intensities;
    copts.scale = opts.scale;
    copts.seed = opts.seed;
    copts.maxCycles = opts.campaignMaxCycles;
    copts.jobs = jobs;
    report.campaign = runFaultCampaign(copts, log, std::move(oracles));
    return report;
}

} // namespace mssp
