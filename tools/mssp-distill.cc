/**
 * @file
 * mssp-distill: profile a training binary and distill a reference
 * binary into an MSSP distilled object.
 *
 *   mssp-distill ref.{s,mo} [--train train.{s,mo}] [-o out.mdo]
 *                [--workload NAME] [--scale S]
 *                [--theta T] [--no-valuespec] [--no-silentstores]
 *                [--task-size N] [--report] [--verify]
 *                [--speculate] [--adapt N]
 *
 * --workload NAME distills a registry analogue (workloads/
 * workloads.hh) instead of an input file; --scale sets its size.
 *
 * --speculate runs the value-speculating distiller (distill/
 * speculate.cc): every Proven speculation-plan candidate is baked
 * into the master's image as a load-immediate, recorded as a
 * specedit, and the object is written as .mdo v5. --adapt N
 * additionally closes the squash-feedback loop (eval/adapt.hh) for
 * up to N iterations, de-speculating loads policed by
 * high-squash-rate fork sites; a loop that fails to converge within
 * the bound writes nothing and exits 1.
 *
 * --verify runs the mssp-lint static checks — the structural
 * contract, the semantic translation validation of the edit log, the
 * speculation-safety classification of every load, and the persisted
 * speculation plan — on the freshly distilled image; on errors
 * nothing is written and the exit status is 1. On a speculated image
 * this includes the specedit record checks and a SEQ replay of the
 * original program comparing each baked constant against the values
 * the load actually reads (eval/crossval.hh).
 *
 * Exit status (docs/LINT.md exit-code table): 0 = written,
 * 1 = failure, 2 = usage (including a bad numeric flag value).
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "analysis/specplan.hh"
#include "analysis/specsafe.hh"
#include "analysis/verifier.hh"
#include "asm/assembler.hh"
#include "asm/objfile.hh"
#include "core/pipeline.hh"
#include "eval/adapt.hh"
#include "eval/crossval.hh"
#include "sim/logging.hh"
#include "util/file.hh"
#include "util/string_utils.hh"
#include "workloads/workloads.hh"

using namespace mssp;

namespace
{

constexpr const char *kTool = "mssp-distill";

Program
loadAny(const std::string &path)
{
    std::string text = readFile(path);
    if (startsWith(trim(text), "mssp-object"))
        return loadProgram(text);
    return assemble(text);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string ref_path, train_path, out_path, workload_name;
    DistillerOptions opts = DistillerOptions::paperPreset();
    bool show_report = false;
    bool verify = false;
    bool speculate = false;
    unsigned adapt_iters = 0;
    double scale = 1.0;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--train" && i + 1 < argc) {
            train_path = argv[++i];
        } else if (arg == "-o" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--workload" && i + 1 < argc) {
            workload_name = argv[++i];
        } else if (arg == "--scale" && i + 1 < argc) {
            scale = flagNumber<double>(kTool, arg, argv[++i],
                                       1e-3, 1e3);
        } else if (arg == "--speculate") {
            speculate = true;
        } else if (arg == "--adapt" && i + 1 < argc) {
            speculate = true;
            adapt_iters = flagNumber<unsigned>(kTool, arg,
                                               argv[++i], 0, 1000);
        } else if (arg == "--theta" && i + 1 < argc) {
            opts.biasThreshold = flagNumber<double>(
                kTool, arg, argv[++i], 0, 1);
        } else if (arg == "--no-valuespec") {
            opts.enableValueSpec = false;
        } else if (arg == "--no-silentstores") {
            opts.enableSilentStoreElim = false;
        } else if (arg == "--task-size" && i + 1 < argc) {
            opts.forkSelect.targetTaskSize = flagNumber<uint64_t>(
                kTool, arg, argv[++i], 1, UINT32_MAX);
        } else if (arg == "--report") {
            show_report = true;
        } else if (arg == "--verify") {
            verify = true;
        } else if (arg[0] != '-' && ref_path.empty()) {
            ref_path = arg;
        } else {
            std::fprintf(stderr,
                         "usage: mssp-distill ref.{s,mo} [--train t] "
                         "[-o out.mdo] [--workload NAME] [--scale S] "
                         "[--theta T] [--no-valuespec] "
                         "[--no-silentstores] [--task-size N] "
                         "[--report] [--verify] "
                         "[--speculate] [--adapt N]\n");
            return 2;
        }
    }
    if (ref_path.empty() && workload_name.empty()) {
        std::fprintf(stderr, "mssp-distill: no input file\n");
        return 2;
    }
    if (!ref_path.empty() && !workload_name.empty()) {
        std::fprintf(stderr, "mssp-distill: an input file and "
                             "--workload are mutually exclusive\n");
        return 2;
    }
    std::string input_name =
        ref_path.empty() ? workload_name : ref_path;
    if (out_path.empty()) {
        out_path = input_name;
        size_t dot = out_path.rfind('.');
        if (dot != std::string::npos)
            out_path.resize(dot);
        out_path += ".mdo";
    }

    try {
        Program ref, train;
        if (!workload_name.empty()) {
            Workload wl = workloadByName(workload_name, scale);
            ref = assemble(wl.refSource);
            train = assemble(wl.trainSource);
        } else {
            ref = loadAny(ref_path);
            train = train_path.empty() ? ref : loadAny(train_path);
        }
        PreparedWorkload w = prepare(ref, train, opts);

        if (adapt_iters > 0) {
            AdaptOptions aopts;
            aopts.maxIters = adapt_iters;
            AdaptResult adapted =
                adaptSpeculation(ref, w.profile, opts, aopts);
            for (const AdaptIteration &it : adapted.iterations) {
                std::printf("adapt gen %u: %zu baked, %llu squash "
                            "events, de-speculated %zu\n",
                            it.generation, it.baked,
                            static_cast<unsigned long long>(
                                it.squashEvents),
                            it.despeculated.size());
            }
            if (!adapted.converged) {
                std::fprintf(stderr,
                             "mssp-distill: squash-feedback loop did "
                             "not converge in %u iteration(s); not "
                             "writing %s\n",
                             adapt_iters, out_path.c_str());
                return 1;
            }
            w.dist = std::move(adapted.dist);
        } else if (speculate) {
            w.dist = distillSpeculated(ref, w.profile, opts,
                                       SpeculateOptions{});
        }

        if (verify) {
            analysis::LintReport rep =
                analysis::verifyDistilled(ref, w.dist);
            analysis::SemanticResult sem =
                analysis::verifyDistilledSemantic(ref, w.dist);
            rep.findings.insert(rep.findings.end(),
                                sem.lint.findings.begin(),
                                sem.lint.findings.end());
            analysis::SpecSafeReport spec =
                analysis::analyzeSpecSafe(ref, w.dist);
            rep.findings.insert(rep.findings.end(),
                                spec.lint.findings.begin(),
                                spec.lint.findings.end());
            analysis::SpecPlanReport plan =
                analysis::analyzeSpecPlan(ref, w.dist);
            rep.findings.insert(rep.findings.end(),
                                plan.lint.findings.begin(),
                                plan.lint.findings.end());
            if (!rep.clean())
                std::fputs(rep.toText().c_str(), stderr);
            if (rep.errors()) {
                std::fprintf(stderr,
                             "mssp-distill: verification failed; "
                             "not writing %s\n",
                             out_path.c_str());
                return 1;
            }
            if (!w.dist.specEdits.empty()) {
                SpecEditDynamicResult dyn =
                    validateSpecEditsDynamic(ref, w.dist);
                if (dyn.provenMismatches) {
                    std::fprintf(stderr,
                                 "mssp-distill: %llu baked-value "
                                 "mismatch(es) against the SEQ "
                                 "replay (%s); not writing %s\n",
                                 static_cast<unsigned long long>(
                                     dyn.provenMismatches),
                                 dyn.firstViolation.c_str(),
                                 out_path.c_str());
                    return 1;
                }
            }
        }
        writeFile(out_path, saveDistilled(w.dist));
        std::printf("%s: %zu -> %zu static insts, %zu fork sites "
                    "-> %s\n",
                    input_name.c_str(), w.dist.report.origStaticInsts,
                    w.dist.report.distilledStaticInsts,
                    w.dist.taskMap.size(), out_path.c_str());
        if (!w.dist.specEdits.empty() || !w.dist.specDropped.empty()) {
            size_t proven = 0;
            for (const SpecEdit &e : w.dist.specEdits)
                proven += e.proof == ValueProof::Proven ? 1 : 0;
            std::printf("speculation: %zu baked (%zu proven), "
                        "%zu de-speculated, generation %u\n",
                        w.dist.specEdits.size(), proven,
                        w.dist.specDropped.size(),
                        w.dist.specGeneration);
        }
        if (show_report)
            std::fputs(w.dist.report.toString().c_str(), stdout);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "mssp-distill: %s\n", e.what());
        return 1;
    }
    return 0;
}
