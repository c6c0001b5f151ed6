/**
 * @file
 * mssp-lint: static verification of distilled programs.
 *
 *   mssp-lint ref.{s,mo} [--image img.mdo] [--train t]
 *             [--semantic | --specsafe | --plan]
 *             [--json | --report=json]
 *   mssp-lint --workload NAME [--semantic | --specsafe | --plan]
 *             [--json | --report=json]
 *   mssp-lint {--specsafe | --plan} --workloads NAME[,NAME...]|all
 *             [--jobs N] [--json | --report=json]
 *
 * With --image, verifies an existing distilled object against the
 * reference program. Otherwise (or with --workload) the reference is
 * profiled and distilled in-process first, so the tool doubles as a
 * one-shot distiller health check.
 *
 * --semantic additionally runs the abstract-interpretation
 * translation validator (analysis/semantic.cc): every recorded edit
 * is classified proven/risky/unknown, and with --report=json the
 * output carries a per-edit "edits" array alongside the findings.
 *
 * --specsafe runs the speculation-safety classifier
 * (analysis/specsafe.hh) instead: every static load in the distilled
 * image is classified provably-invariant / region-invariant / risky.
 *
 * --plan runs the value-flow analysis and speculation planner
 * (analysis/specplan.hh): every predictable load becomes a ranked
 * plan candidate (proven/likely, predicted value, benefit score).
 *
 * Both compute their result on demand; the .mdo carries neither.
 * Their embedded lint object and error counts stay in the output
 * formats but are always empty.
 *
 * --workloads sweeps many registry workloads in one invocation
 * (specsafe or plan mode), sharded over --jobs host threads; the
 * aggregated JSON document is byte-identical for any job count.
 *
 * Exit codes (all modes): 0 clean, 1 warnings only, 2 errors found,
 * 3 bad usage or unreadable input. With --report=json every exit
 * path — including usage errors and unreadable input — emits a JSON
 * document naming its schema on stdout, so downstream jq pipelines
 * never see an empty stream. Checks and the JSON schemas:
 * docs/LINT.md, docs/SCHEMAS.md.
 */

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "analysis/specplan.hh"
#include "analysis/specsafe.hh"
#include "analysis/verifier.hh"
#include "asm/assembler.hh"
#include "asm/objfile.hh"
#include "core/pipeline.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "util/file.hh"
#include "util/string_utils.hh"
#include "workloads/workloads.hh"

using namespace mssp;

namespace
{

Program
loadAny(const std::string &path)
{
    std::string text = readFile(path);
    if (startsWith(trim(text), "mssp-object"))
        return loadProgram(text);
    return assemble(text);
}

/** Error document for --report=json early exits: names the schema
 *  the invocation would have produced, so piped jq still parses. */
void
emitJsonError(const char *schema, const std::string &message,
              bool usage_error)
{
    std::printf("{\"schema\": \"%s\", \"error\": \"%s\", \"usage\": "
                "%s}\n",
                schema, jsonEscape(message).c_str(),
                usage_error ? "true" : "false");
}

int
usage(bool json, const char *schema)
{
    if (json)
        emitJsonError(schema, "bad usage", true);
    std::fprintf(
        stderr,
        "usage: mssp-lint ref.{s,mo} [--image img.mdo] "
        "[--train t.{s,mo}] [--semantic | --specsafe | --plan] "
        "[--json | --report=json]\n"
        "       mssp-lint --workload NAME [--scale X] "
        "[--image img.mdo] [--semantic | --specsafe "
        "| --plan] [--json | --report=json]\n"
        "       mssp-lint {--specsafe | --plan} --workloads "
        "NAME[,NAME...]|all [--jobs N] [--scale X] "
        "[--json | --report=json]\n");
    return 3;
}

/** A bad numeric flag value: a usage error naming the flag. */
int
badValue(bool json, const char *schema, const std::string &flag,
         const char *text)
{
    std::fprintf(stderr, "mssp-lint: bad value '%s' for %s\n", text,
                 flag.c_str());
    return usage(json, schema);
}

/** The unified exit-code contract (docs/LINT.md): 0 clean, 1
 *  warnings only, 2 errors. */
int
exitCode(const analysis::LintReport &rep)
{
    if (rep.errors())
        return 2;
    return rep.warnings() ? 1 : 0;
}

/** One workload's analysis, for the --workloads sweep. */
struct SpecSweepRow
{
    std::string name;
    analysis::SpecSafeReport specsafe;
    analysis::SpecPlanReport plan;
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string ref_path, image_path, train_path, workload;
    std::string workloads_arg;
    bool json = false;
    bool semantic = false;
    bool specsafe = false;
    bool plan = false;
    unsigned jobs = defaultJobs();
    double scale = 1.0;

    // The json flag must be known before any usage error can fire,
    // so the error document contract holds regardless of argument
    // order.
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--json" || arg == "--report=json")
            json = true;
        else if (arg == "--semantic")
            semantic = true;
        else if (arg == "--specsafe")
            specsafe = true;
        else if (arg == "--plan")
            plan = true;
    }
    const char *schema = plan       ? "mssp-specplan-v1"
                         : specsafe ? "mssp-specsafe-v1"
                                    : "mssp-lint-v1";

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--image" && i + 1 < argc) {
            image_path = argv[++i];
        } else if (arg == "--train" && i + 1 < argc) {
            train_path = argv[++i];
        } else if (arg == "--workload" && i + 1 < argc) {
            workload = argv[++i];
        } else if (arg == "--workloads" && i + 1 < argc) {
            workloads_arg = argv[++i];
        } else if (arg == "--jobs" && i + 1 < argc) {
            std::optional<unsigned> v =
                parseNumber<unsigned>(argv[++i], 1, 1024);
            if (!v)
                return badValue(json, schema, arg, argv[i]);
            jobs = *v;
        } else if (arg == "--scale" && i + 1 < argc) {
            std::optional<double> v =
                parseNumber<double>(argv[++i], 1e-3, 1e3);
            if (!v)
                return badValue(json, schema, arg, argv[i]);
            scale = *v;
        } else if (arg == "--json" || arg == "--report=json" ||
                   arg == "--semantic" || arg == "--specsafe" ||
                   arg == "--plan") {
            // consumed by the pre-scan
        } else if (arg[0] != '-' && ref_path.empty()) {
            ref_path = arg;
        } else {
            return usage(json, schema);
        }
    }
    if (semantic + specsafe + plan > 1)
        return usage(json, schema);
    if (!workloads_arg.empty()) {
        // The sweep form is specsafe/plan-only and takes no other
        // input.
        if ((!specsafe && !plan) || !ref_path.empty() ||
            !workload.empty() || !image_path.empty())
            return usage(json, schema);
    } else if (ref_path.empty() == workload.empty()) {
        return usage(json, schema);
    }

    try {
        // --workloads: sharded sweep, one aggregated document.
        if (!workloads_arg.empty()) {
            std::vector<std::string> names;
            if (workloads_arg == "all") {
                for (const Workload &wl : specAnalogues(scale))
                    names.push_back(wl.name);
            } else {
                for (const auto &n : split(workloads_arg, ','))
                    names.push_back(std::string(trim(n)));
            }

            std::vector<std::function<SpecSweepRow()>> work;
            work.reserve(names.size());
            for (const std::string &name : names) {
                work.push_back([&name, scale, plan] {
                    Workload w = workloadByName(name, scale);
                    PreparedWorkload p =
                        prepare(assemble(w.refSource),
                                assemble(w.trainSource),
                                DistillerOptions::paperPreset());
                    SpecSweepRow row;
                    row.name = name;
                    if (plan) {
                        row.plan = analysis::analyzeSpecPlan(p.orig,
                                                             p.dist);
                    } else {
                        row.specsafe =
                            analysis::analyzeSpecSafe(p.orig,
                                                      p.dist);
                    }
                    return row;
                });
            }
            std::vector<SpecSweepRow> rows =
                runSharded<SpecSweepRow>(jobs, std::move(work));

            if (plan) {
                size_t cands = 0, proven = 0, likely = 0,
                       considered = 0, errors = 0, warnings = 0;
                for (const SpecSweepRow &r : rows) {
                    cands += r.plan.candidates.size();
                    proven += r.plan.proven();
                    likely += r.plan.likely();
                    considered += r.plan.loadsConsidered;
                    errors += r.plan.lint.errors();
                    warnings += r.plan.lint.warnings();
                }
                if (json) {
                    std::string out =
                        "{\"schema\": \"mssp-specplan-v1\", "
                        "\"aggregate\": true, ";
                    out += strfmt(
                        "\"counts\": {\"workloads\": %zu, "
                        "\"candidates\": %zu, \"proven\": %zu, "
                        "\"likely\": %zu, \"considered\": %zu, "
                        "\"errors\": %zu}, ",
                        rows.size(), cands, proven, likely,
                        considered, errors);
                    out += "\"reports\": [\n";
                    for (size_t i = 0; i < rows.size(); ++i) {
                        std::string doc =
                            rows[i].plan.toJson(rows[i].name);
                        while (!doc.empty() && doc.back() == '\n')
                            doc.pop_back();
                        out += doc;
                        out += i + 1 < rows.size() ? ",\n" : "\n";
                    }
                    out += "]}\n";
                    std::fputs(out.c_str(), stdout);
                } else {
                    for (const SpecSweepRow &r : rows) {
                        std::printf("== %s ==\n", r.name.c_str());
                        std::fputs(r.plan.toText().c_str(), stdout);
                        std::fputs(r.plan.lint.toText().c_str(),
                                   stdout);
                    }
                    std::printf(
                        "total: %zu workload(s), %zu candidate(s): "
                        "%zu proven, %zu likely (of %zu eligible "
                        "load(s)); %zu error(s)\n",
                        rows.size(), cands, proven, likely,
                        considered, errors);
                }
                if (errors)
                    return 2;
                return warnings ? 1 : 0;
            }

            size_t loads = 0, pi = 0, ri = 0, risky = 0, errors = 0,
                   warnings = 0;
            for (const SpecSweepRow &r : rows) {
                loads += r.specsafe.loads.size();
                pi += r.specsafe.provablyInvariant();
                ri += r.specsafe.regionInvariant();
                risky += r.specsafe.risky();
                errors += r.specsafe.lint.errors();
                warnings += r.specsafe.lint.warnings();
            }

            if (json) {
                std::string out =
                    "{\"schema\": \"mssp-specsafe-v1\", "
                    "\"aggregate\": true, ";
                out += strfmt(
                    "\"counts\": {\"workloads\": %zu, \"loads\": "
                    "%zu, \"provablyInvariant\": %zu, "
                    "\"regionInvariant\": %zu, \"risky\": %zu, "
                    "\"errors\": %zu}, ",
                    rows.size(), loads, pi, ri, risky, errors);
                out += "\"reports\": [\n";
                for (size_t i = 0; i < rows.size(); ++i) {
                    std::string doc =
                        rows[i].specsafe.toJson(rows[i].name);
                    while (!doc.empty() && doc.back() == '\n')
                        doc.pop_back();
                    out += doc;
                    out += i + 1 < rows.size() ? ",\n" : "\n";
                }
                out += "]}\n";
                std::fputs(out.c_str(), stdout);
            } else {
                for (const SpecSweepRow &r : rows) {
                    std::printf("== %s ==\n", r.name.c_str());
                    std::fputs(r.specsafe.toText().c_str(), stdout);
                    std::fputs(r.specsafe.lint.toText().c_str(),
                               stdout);
                }
                std::printf(
                    "total: %zu workload(s), %zu load(s): %zu "
                    "provably-invariant, %zu region-invariant, %zu "
                    "risky; %zu error(s)\n",
                    rows.size(), loads, pi, ri, risky, errors);
            }
            if (errors)
                return 2;
            return warnings ? 1 : 0;
        }

        Program ref, train;
        if (!workload.empty()) {
            Workload w = workloadByName(workload, scale);
            ref = assemble(w.refSource);
            train = assemble(w.trainSource);
        } else {
            ref = loadAny(ref_path);
            train = train_path.empty() ? ref : loadAny(train_path);
        }

        DistilledProgram dist;
        if (!image_path.empty())
            dist = loadDistilled(readFile(image_path));
        else
            dist = prepare(ref, train,
                           DistillerOptions::paperPreset())
                       .dist;

        if (plan) {
            analysis::SpecPlanReport rep =
                analysis::analyzeSpecPlan(ref, dist);
            if (json) {
                std::fputs(rep.toJson(workload).c_str(), stdout);
            } else {
                std::fputs(rep.toText().c_str(), stdout);
                std::fputs(rep.lint.toText().c_str(), stdout);
            }
            return exitCode(rep.lint);
        }

        if (specsafe) {
            analysis::SpecSafeReport rep =
                analysis::analyzeSpecSafe(ref, dist);
            if (json) {
                std::fputs(rep.toJson(workload).c_str(), stdout);
            } else {
                std::fputs(rep.toText().c_str(), stdout);
                std::fputs(rep.lint.toText().c_str(), stdout);
            }
            return exitCode(rep.lint);
        }

        analysis::LintReport rep =
            analysis::verifyDistilled(ref, dist);
        if (!semantic) {
            std::fputs(json ? rep.toJson().c_str()
                            : rep.toText().c_str(),
                       stdout);
            return exitCode(rep);
        }

        analysis::SemanticResult sem =
            analysis::verifyDistilledSemantic(ref, dist);
        sem.lint.findings.insert(sem.lint.findings.begin(),
                                 rep.findings.begin(),
                                 rep.findings.end());
        if (json) {
            std::fputs(sem.toJson().c_str(), stdout);
        } else {
            std::fputs(sem.semantic.toText().c_str(), stdout);
            std::fputs(sem.lint.toText().c_str(), stdout);
        }
        return exitCode(sem.lint);
    } catch (const FatalError &e) {
        if (json)
            emitJsonError(schema, e.what(), false);
        std::fprintf(stderr, "mssp-lint: %s\n", e.what());
        return 3;
    }
}
