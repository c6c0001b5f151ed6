/**
 * @file
 * perfbench: the repository benchmark (perfbench/README.md).
 *
 * Four closed-loop workloads, one client each, all driven through the
 * library's public API:
 *
 *   run       MsspMachine on the 12 analogues, checked against
 *             runBaseline (SEQ) on every pass
 *   pipeline  the static toolchain (assemble, profile, distill,
 *             distillSpeculated, the four analysis entry points)
 *   faults    runCampaignCell over 12 analogues x 10 fault types
 *   suite     runSuite, sharded over min(4, nproc) host threads
 *
 * Every pass checks its own outputs and counts failures against
 * attempts. Every deterministic count of a pass (simulated cycles,
 * instructions, squashes, report hashes, ...) must repeat exactly on
 * every pass, traced or not; the benchmark exits non-zero otherwise.
 *
 * With --trace 0 the benchmark times whole passes only and prints the
 * end-to-end metrics. With --trace 1 it alternates untraced and traced
 * passes; traced passes record one span around every call it makes
 * into a library module (layer.function, item id, start, end,
 * parent), keep them in memory, write them once at exit as Chrome
 * trace-event JSON, and print the per-layer metrics. Spans sit in this
 * file only: nothing inside the library is instrumented.
 *
 * The last line of standard output is one JSON object:
 *   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/specplan.hh"
#include "analysis/specsafe.hh"
#include "analysis/verifier.hh"
#include "core/mssp_api.hh"
#include "eval/experiment.hh"
#include "eval/suite.hh"
#include "fault/campaign.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "sim/rng.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace mssp;
using Clock = std::chrono::steady_clock;

constexpr uint64_t ProfileMaxInsts = 50000000ull;  // prepare()'s default
constexpr uint64_t RunMaxCycles = 400000000ull;    // runSuite's default
constexpr uint64_t BaselineMaxInsts = 1000000000ull;
constexpr double FaultIntensity = 10.0;
/** Set-up repeats at least MinSetupReps times and, while it is cheap,
 *  until SetupBudgetS has passed (at most MaxSetupReps times); setup_s
 *  is the median. */
constexpr unsigned MinSetupReps = 3;
constexpr double SetupBudgetS = 1.0;
constexpr unsigned MaxSetupReps = 50;
/** Measured passes at least (beyond the untimed warm-up pass); passes
 *  continue until --seconds have passed. */
constexpr size_t MinPasses = 2;

// -- Options ---------------------------------------------------------------

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    double scale = 1.0;
    /** Deliberately corrupt the first N items' outputs (smoke test:
     *  proves a wrong output is counted as a failure). */
    unsigned corrupt = 0;
    std::string traceOut;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload run|pipeline|faults|suite|all"
                 " [--seed N] [--seconds S] [--trace 0|1] [--scale X]\n"
                 "                 [--corrupt N] [--trace-out FILE]\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
            continue;
        }
        if (a == "--trace-out") {
            o.traceOut = v;
            continue;
        }
        if (a == "--seed") {
            o.seed = std::strtoull(v, &end, 10);
            if (end == v || *end != '\0')
                usage("bad value for --seed");
            continue;
        }
        double d = std::strtod(v, &end);
        if (end == v || *end != '\0' || !std::isfinite(d) || d < 0 ||
            d > 1e6)
            usage(("bad value for " + a).c_str());
        if (a == "--seconds")
            o.seconds = d;
        else if (a == "--trace")
            o.trace = d != 0;
        else if (a == "--scale" && d > 0)
            o.scale = d;
        else if (a == "--corrupt")
            o.corrupt = static_cast<unsigned>(d);
        else
            usage(("unknown or out-of-range argument " + a).c_str());
    }
    if (o.workload.empty())
        usage("--workload is required");
    return o;
}

// -- Tracing ---------------------------------------------------------------

/** Span totals of one pass, by full name and by layer (self time). */
struct SpanTotals
{
    std::map<std::string, double> ms;       ///< layer.function -> ms
    std::map<std::string, double> selfMs;   ///< layer -> self ms
    /** Durations (ms) of every span named fault.runCampaignCell. */
    std::vector<double> cellMs;
};

/**
 * In-memory span recorder. When off, span() is a plain call: no clock
 * read, no allocation.
 */
class Tracer
{
  public:
    void setOn(bool on) { on_ = on; }

    /** Run @p f inside a span named @p name ("layer.function"). */
    template <class F>
    decltype(auto)
    span(const char *name, F &&f)
    {
        if (!on_)
            return f();
        Closer c{*this, open(name)};
        return f();
    }

    /** Run @p f as one benchmark item (analogue or cell): its span is
     *  the parent of every layer call made inside. */
    template <class F>
    decltype(auto)
    item(const std::string &label, F &&f)
    {
        if (!on_)
            return f();
        auto [it, fresh] =
            labels_.try_emplace(label, static_cast<int>(labels_.size()));
        if (fresh)
            labelNames_.push_back(label);
        int saved = item_;
        item_ = it->second;
        Closer c{*this, open("bench.item")};
        struct Restore
        {
            int &slot;
            int value;
            ~Restore() { slot = value; }
        } restore{item_, saved};
        return f();
    }

    size_t mark() const { return spans_.size(); }

    /** Aggregate the spans recorded since @p first. */
    SpanTotals
    totalsSince(size_t first) const
    {
        SpanTotals t;
        std::vector<int64_t> child(spans_.size() - first, 0);
        for (size_t i = first; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            if (s.parent >= static_cast<int64_t>(first))
                child[s.parent - first] += s.endNs - s.startNs;
        }
        for (size_t i = first; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            double dur = static_cast<double>(s.endNs - s.startNs) / 1e6;
            double self =
                static_cast<double>(s.endNs - s.startNs -
                                    child[i - first]) / 1e6;
            std::string name = s.name;
            t.ms[name] += dur;
            t.selfMs[name.substr(0, name.find('.'))] += self;
            if (name == "fault.runCampaignCell")
                t.cellMs.push_back(dur);
        }
        return t;
    }

    /** Write every span as Chrome trace-event JSON. */
    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{\"traceEvents\": [\n");
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::string name = s.name;
            std::fprintf(
                f,
                "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                "\"args\": {\"id\": %zu, \"item\": \"%s\", "
                "\"parent\": %lld}}%s\n",
                s.name, name.substr(0, name.find('.')).c_str(),
                static_cast<double>(s.startNs) / 1e3,
                static_cast<double>(s.endNs - s.startNs) / 1e3, i,
                s.item >= 0 ? labelNames_[s.item].c_str() : "",
                static_cast<long long>(s.parent),
                i + 1 < spans_.size() ? "," : "");
        }
        std::fprintf(f, "]}\n");
        return std::fclose(f) == 0;
    }

  private:
    struct Span
    {
        const char *name;
        int item;
        int64_t startNs;
        int64_t endNs;
        int64_t parent;   ///< index of the enclosing span, -1 at top
    };

    struct Closer
    {
        Tracer &t;
        size_t id;
        ~Closer() { t.close(id); }
    };

    int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - t0_)
            .count();
    }

    size_t
    open(const char *name)
    {
        int64_t parent =
            stack_.empty() ? -1 : static_cast<int64_t>(stack_.back());
        spans_.push_back({name, item_, nowNs(), 0, parent});
        stack_.push_back(spans_.size() - 1);
        return spans_.size() - 1;
    }

    void
    close(size_t id)
    {
        spans_[id].endNs = nowNs();
        stack_.pop_back();
    }

    bool on_ = false;
    Clock::time_point t0_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<size_t> stack_;
    int item_ = -1;
    std::map<std::string, int> labels_;
    std::vector<std::string> labelNames_;
};

// -- Passes and metrics ------------------------------------------------------

/** What one pass did. @c counts holds every deterministic value of the
 *  pass (simulated results and work counts); they must repeat exactly
 *  on every pass. */
struct Pass
{
    double wallS = 0.0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::map<std::string, double> counts;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile @p p (0..100). */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s)
        h = (h ^ c) * 0x100000001b3ull;
    return h;
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;   // KiB on Linux
}

/** The order the 12 analogues are visited in: a seeded shuffle. */
std::vector<Workload>
seededAnalogues(double scale, uint64_t seed)
{
    std::vector<Workload> wls = specAnalogues(scale);
    Rng rng(Rng::mix(seed, 0));
    for (size_t i = wls.size(); i > 1; --i)
        std::swap(wls[i - 1], wls[rng.next() % i]);
    return wls;
}

/** One benchmark workload: prepared inputs plus one closed-loop pass. */
class Bench
{
  public:
    virtual ~Bench() = default;
    Bench() = default;
    Bench(const Bench &) = delete;
    Bench &operator=(const Bench &) = delete;

    /** Build every input the pass needs (timed as setup_s). */
    virtual void setup(Tracer &tr) = 0;
    /** One pass over the whole input set, outputs checked. */
    virtual Pass pass(Tracer &tr) = 0;
};

// -- run ---------------------------------------------------------------------

class RunBench : public Bench
{
  public:
    explicit RunBench(const Options &o) : opts_(o) {}

    void
    setup(Tracer &tr) override
    {
        images_.clear();
        std::vector<Workload> wls = tr.span("workloads.specAnalogues", [&] {
            return seededAnalogues(opts_.scale, opts_.seed);
        });
        for (const Workload &wl : wls) {
            tr.item(wl.name, [&] {
                Program ref = tr.span("asm.assemble",
                                      [&] { return assemble(wl.refSource); });
                Program train = tr.span(
                    "asm.assemble", [&] { return assemble(wl.trainSource); });
                ProfileData prof = tr.span("profile.profileProgram", [&] {
                    return profileProgram(train, ProfileMaxInsts);
                });
                DistilledProgram dist = tr.span("distill.distill", [&] {
                    return distill(ref, prof,
                                   DistillerOptions::paperPreset());
                });
                images_.push_back({wl.name, std::move(ref),
                                   std::move(dist)});
            });
        }
    }

    Pass
    pass(Tracer &tr) override
    {
        Pass p;
        auto &c = p.counts;
        std::vector<double> speedups, pathRatios;
        const MsspConfig cfg;
        for (size_t i = 0; i < images_.size(); ++i) {
            const Image &img = images_[i];
            tr.item(img.name, [&] {
                auto machine = tr.span("mssp.MsspMachine", [&] {
                    return std::make_unique<MsspMachine>(img.orig,
                                                         img.dist, cfg);
                });
                MsspResult r = tr.span("mssp.run", [&] {
                    return machine->run(RunMaxCycles);
                });
                BaselineResult b = tr.span("exec.runBaseline", [&] {
                    return runBaseline(img.orig, cfg.slaveIpc,
                                       BaselineMaxInsts);
                });
                if (i < opts_.corrupt)
                    r.outputs.push_back({0, 0xbad});
                bool ok = b.halted && r.halted && r.outputs == b.outputs &&
                          r.committedInsts == b.insts;
                p.attempted += 1;
                p.failed += ok ? 0 : 1;

                const MsspCounters &k = machine->counters();
                c["mssp.committed_insts"] += r.committedInsts;
                c["mssp.master_insts"] += k.masterInsts;
                c["mssp.slave_insts"] += k.slaveInsts;
                c["mssp.wasted_slave_insts"] += k.wastedSlaveInsts;
                c["mssp.seq_mode_insts"] += k.seqModeInsts;
                c["mssp.cycles"] += r.cycles;
                c["mssp.tasks_forked"] += k.tasksForked;
                c["mssp.tasks_committed"] += k.tasksCommitted;
                c["mssp.squash_events"] += k.squashEvents;
                c["mssp.watchdog_squashes"] += k.watchdogSquashes;
                c["mssp.slave_idle_cycles"] += k.slaveIdleCycles;
                c["mssp.slave_pause_cycles"] += k.slavePauseCycles;
                c["mssp.slave_cycles"] +=
                    static_cast<double>(cfg.numSlaves) * r.cycles;
                c["mem.l1_hits"] += k.l1Hits;
                c["mem.l1_misses"] += k.l1Misses;
                c["exec.seq_insts"] += b.insts;
                c["sim.baseline_cycles"] += b.cycles;
                speedups.push_back(ratio(b.cycles, r.cycles));
                pathRatios.push_back(ratio(k.masterInsts, b.insts));
            });
        }
        c["sim_cycles"] = c["mssp.cycles"];
        c["sim_speedup_geomean"] = geomean(speedups);
        c["sim_master_path_ratio"] = geomean(pathRatios);
        return p;
    }

  private:
    struct Image
    {
        std::string name;
        Program orig;
        DistilledProgram dist;
    };

    const Options &opts_;
    std::vector<Image> images_;
};

// -- pipeline ----------------------------------------------------------------

class PipelineBench : public Bench
{
  public:
    explicit PipelineBench(const Options &o) : opts_(o) {}

    void
    setup(Tracer &tr) override
    {
        wls_ = tr.span("workloads.specAnalogues", [&] {
            return seededAnalogues(opts_.scale, opts_.seed);
        });
    }

    Pass
    pass(Tracer &tr) override
    {
        Pass p;
        auto &c = p.counts;
        const DistillerOptions dopts = DistillerOptions::paperPreset();
        for (size_t i = 0; i < wls_.size(); ++i) {
            const Workload &wl = wls_[i];
            tr.item(wl.name, [&] {
                Program ref = tr.span("asm.assemble",
                                      [&] { return assemble(wl.refSource); });
                Program train = tr.span(
                    "asm.assemble", [&] { return assemble(wl.trainSource); });
                ProfileData prof = tr.span("profile.profileProgram", [&] {
                    return profileProgram(train, ProfileMaxInsts);
                });
                DistilledProgram dist = tr.span("distill.distill", [&] {
                    return distill(ref, prof, dopts);
                });
                DistilledProgram spec =
                    tr.span("distill.distillSpeculated", [&] {
                        return distillSpeculated(ref, prof, dopts,
                                                 SpeculateOptions{});
                    });
                // A wrong image: every fork site loses its checkpoint
                // mask, which the structural verifier must reject.
                if (i < opts_.corrupt)
                    dist.checkpointRegs.clear();
                analysis::LintReport lint =
                    tr.span("analysis.verifyDistilled", [&] {
                        return analysis::verifyDistilled(ref, dist);
                    });
                analysis::SemanticResult sem =
                    tr.span("analysis.verifyDistilledSemantic", [&] {
                        return analysis::verifyDistilledSemantic(ref, dist);
                    });
                analysis::SpecSafeReport safe =
                    tr.span("analysis.analyzeSpecSafe", [&] {
                        return analysis::analyzeSpecSafe(ref, dist);
                    });
                analysis::SpecPlanReport plan =
                    tr.span("analysis.analyzeSpecPlan", [&] {
                        return analysis::analyzeSpecPlan(ref, dist);
                    });
                size_t errors = lint.errors() + sem.lint.errors() +
                                safe.lint.errors() + plan.lint.errors();
                p.attempted += 1;
                p.failed += errors ? 1 : 0;

                c["asm.words"] += ref.sizeWords() + train.sizeWords();
                c["profile.insts"] += prof.totalInsts;
                c["distill.edits"] += dist.report.edits.size();
                c["distill.fork_sites"] += dist.taskMap.size();
                c["distill.baked"] += spec.specEdits.size();
                c["distill.speculated_words"] += spec.prog.sizeWords();
                c["analysis.lint_warnings"] += lint.warnings();
                c["analysis.semantic_proven"] += sem.semantic.proven();
                c["analysis.loads_classified"] += safe.loads.size();
                c["analysis.plan_candidates"] += plan.candidates.size();
                c["analysis.error_findings"] += errors;
            });
        }
        return p;
    }

  private:
    const Options &opts_;
    std::vector<Workload> wls_;
};

// -- faults ------------------------------------------------------------------

class FaultsBench : public Bench
{
  public:
    explicit FaultsBench(const Options &o) : opts_(o) {}

    void
    setup(Tracer &tr) override
    {
        oracles_.clear();
        cells_.clear();
        // Canonical registry order and mssp-faultcamp's cell seeds, so
        // a cell here is the cell `mssp-faultcamp --scale S
        // --intensities 10 --seed N` runs.
        std::vector<Workload> wls = tr.span("workloads.specAnalogues", [&] {
            return specAnalogues(opts_.scale);
        });
        for (size_t w = 0; w < wls.size(); ++w) {
            const Workload &wl = wls[w];
            tr.item(wl.name, [&] {
                PreparedWorkload pw;
                pw.orig = tr.span("asm.assemble",
                                  [&] { return assemble(wl.refSource); });
                Program train = tr.span(
                    "asm.assemble", [&] { return assemble(wl.trainSource); });
                pw.profile = tr.span("profile.profileProgram", [&] {
                    return profileProgram(train, ProfileMaxInsts);
                });
                pw.dist = tr.span("distill.distill", [&] {
                    return distill(pw.orig, pw.profile, DistillerOptions{});
                });
                oracles_.push_back(tr.span("exec.makeSeqOracle", [&] {
                    return makeSeqOracle(std::move(pw));
                }));
            });
            // A wrong oracle: every cell of this analogue must fail.
            if (w < opts_.corrupt)
                oracles_.back().outputs.push_back({0, 0xbad});
        }
        CampaignOptions copts;
        uint64_t index = 0;
        for (size_t w = 0; w < wls.size(); ++w) {
            for (FaultType type : allFaultTypes()) {
                double rate = std::min(1.0, faultBaseRate(type) *
                                                FaultIntensity);
                cells_.push_back(
                    {wls[w].name, w, type, rate, Rng::mix(opts_.seed, index),
                     campaignBudget(copts, oracles_[w].insts)});
                ++index;
            }
        }
    }

    Pass
    pass(Tracer &tr) override
    {
        Pass p;
        auto &c = p.counts;
        for (const Cell &cell : cells_) {
            const SeqOracle &oracle = oracles_[cell.oracle];
            tr.item(cell.workload + "/" + toString(cell.type), [&] {
                CampaignRun run = tr.span("fault.runCampaignCell", [&] {
                    return runCampaignCell(cell.workload, oracle, cell.type,
                                           cell.rate, cell.seed, cell.budget);
                });
                p.attempted += 1;
                p.failed += run.ok() ? 0 : 1;
                std::string by = std::string("by_type.") +
                                 toString(cell.type) + ".";
                c["fault.cells"] += 1;
                c["fault.injections"] += run.injections;
                c["fault.invariant_failures"] +=
                    !run.outputOk + !run.forwardProgress +
                    !run.archClean + !run.commitInvariantOk;
                c["mssp.cycles"] += run.cycles;
                c["mssp.committed_insts"] +=
                    run.forwardProgress ? oracle.insts : 0;
                c["mssp.squash_events"] += run.recovery.squashEvents;
                c["mssp.watchdog_squashes"] +=
                    run.recovery.watchdogSquashes;
                c["mssp.seq_mode_insts"] += run.recovery.seqModeInsts;
                c[by + "squash_events"] += run.recovery.squashEvents;
                c[by + "seq_mode_insts"] += run.recovery.seqModeInsts;
                c[by + "committed_insts"] +=
                    run.forwardProgress ? oracle.insts : 0;
                c[by + "cycles"] += run.cycles;
            });
        }
        c["sim_cycles"] = c["mssp.cycles"];
        return p;
    }

  private:
    struct Cell
    {
        std::string workload;
        size_t oracle;   ///< index into oracles_
        FaultType type;
        double rate;
        uint64_t seed;
        uint64_t budget;
    };

    const Options &opts_;
    std::vector<SeqOracle> oracles_;
    std::vector<Cell> cells_;
};

// -- suite -------------------------------------------------------------------

class SuiteBench : public Bench
{
  public:
    explicit SuiteBench(const Options &o) : opts_(o) {}

    void
    setup(Tracer &tr) override
    {
        sopts_ = SuiteOptions{};
        sopts_.scale = opts_.scale;
        sopts_.seed = opts_.seed;
        sopts_.jobs = std::min(4u, defaultJobs());
        // A wrong configuration: a cycle cap no analogue can halt in
        // fails every run stage.
        if (opts_.corrupt)
            sopts_.runMaxCycles = 1000;
        tr.span("workloads.specAnalogues", [&] {
            for (const Workload &wl : specAnalogues(opts_.scale))
                sopts_.workloads.push_back(wl.name);
        });
    }

    Pass
    pass(Tracer &tr) override
    {
        Pass p;
        auto &c = p.counts;
        SuiteReport rep = tr.item("suite", [&] {
            return tr.span("eval.runSuite",
                           [&] { return runSuite(sopts_); });
        });
        size_t cells = rep.campaign.runs.size() + rep.campaign.quarantined();
        p.attempted = rep.workloads.size() + rep.evalQuarantine.size() +
                      cells;
        p.failed = rep.evalFailures() + rep.quarantinedTotal() +
                   rep.campaign.failures() +
                   (rep.campaign.allTypesFired() ? 0 : 1);

        std::vector<double> speedups, pathRatios;
        double cycles = 0;
        for (const SuiteWorkloadResult &w : rep.workloads) {
            speedups.push_back(w.run.speedup);
            pathRatios.push_back(w.run.distillRatio);
            cycles += w.run.msspCycles + w.specRun.msspCycles;
        }
        for (const CampaignRun &r : rep.campaign.runs)
            cycles += r.cycles;
        c["eval.workloads"] = rep.workloads.size();
        c["eval.campaign_cells"] = cells;
        // The report is byte-deterministic for fixed options: pin the
        // whole document, split so each half is exact in a double.
        uint64_t h = fnv1a(rep.toJson());
        c["eval.report_hash_hi"] = static_cast<double>(h >> 32);
        c["eval.report_hash_lo"] = static_cast<double>(h & 0xffffffffu);
        c["sim_cycles"] = cycles;
        c["sim_speedup_geomean"] = geomean(speedups);
        c["sim_master_path_ratio"] = geomean(pathRatios);
        return p;
    }

  private:
    const Options &opts_;
    SuiteOptions sopts_;
};

std::unique_ptr<Bench>
makeBench(const std::string &name, const Options &o)
{
    if (name == "run")
        return std::make_unique<RunBench>(o);
    if (name == "pipeline")
        return std::make_unique<PipelineBench>(o);
    if (name == "faults")
        return std::make_unique<FaultsBench>(o);
    if (name == "suite")
        return std::make_unique<SuiteBench>(o);
    return nullptr;
}

// -- Metric tables ---------------------------------------------------------

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** The end-to-end metrics (BENCHMARK.json "end_to_end"). */
const MetricDef EndToEnd[] = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/** The per-layer metrics (BENCHMARK.json "per_layer"); a layer the
 *  workload never calls reads 0. */
const MetricDef PerLayer[] = {
    {"asm.self_ms", "ms"},
    {"asm.assemble_ms", "ms"},
    {"asm.words", "count"},
    {"profile.self_ms", "ms"},
    {"profile.profile_ms", "ms"},
    {"profile.insts", "count"},
    {"profile.mips", "Minst/s"},
    {"distill.self_ms", "ms"},
    {"distill.distill_ms", "ms"},
    {"distill.speculated_ms", "ms"},
    {"distill.edits", "count"},
    {"distill.fork_sites", "count"},
    {"distill.baked", "count"},
    {"analysis.self_ms", "ms"},
    {"analysis.lint_ms", "ms"},
    {"analysis.semantic_ms", "ms"},
    {"analysis.specsafe_ms", "ms"},
    {"analysis.specplan_ms", "ms"},
    {"analysis.loads_classified", "count"},
    {"analysis.plan_candidates", "count"},
    {"analysis.error_findings", "count"},
    {"exec.self_ms", "ms"},
    {"exec.seq_ms", "ms"},
    {"exec.seq_insts", "count"},
    {"exec.seq_mips", "Minst/s"},
    {"mssp.self_ms", "ms"},
    {"mssp.construct_ms", "ms"},
    {"mssp.run_ms", "ms"},
    {"mssp.committed_mips", "Minst/s"},
    {"mssp.host_ns_per_cycle", "ns"},
    {"mssp.host_ns_per_executed_inst", "ns"},
    {"mssp.committed_insts", "count"},
    {"mssp.master_insts", "count"},
    {"mssp.slave_insts", "count"},
    {"mssp.wasted_slave_insts", "count"},
    {"mssp.seq_mode_insts", "count"},
    {"mssp.cycles", "count"},
    {"mssp.tasks_forked", "count"},
    {"mssp.tasks_committed", "count"},
    {"mssp.commit_rate", "ratio"},
    {"mssp.squash_events", "count"},
    {"mssp.watchdog_squashes", "count"},
    {"mssp.slave_idle_share", "ratio"},
    {"mssp.slave_pause_share", "ratio"},
    {"mem.l1_hit_rate", "ratio"},
    {"mem.l1_hits", "count"},
    {"mem.l1_misses", "count"},
    {"fault.self_ms", "ms"},
    {"fault.cell_ms", "ms"},
    {"fault.cell_ms_p90", "ms"},
    {"fault.cells", "count"},
    {"fault.injections", "count"},
    {"fault.invariant_failures", "count"},
    {"fault.seq_mode_share", "ratio"},
    {"eval.self_ms", "ms"},
    {"eval.suite_ms", "ms"},
    {"setup.asm_ms", "ms"},
    {"setup.profile_ms", "ms"},
    {"setup.distill_ms", "ms"},
    {"setup.exec_ms", "ms"},
    {"sim_cycles", "count"},
    {"sim_speedup_geomean", "ratio"},
    {"sim_master_path_ratio", "ratio"},
    {"trace.overhead_ms", "ms"},
};

/** Span name -> per-layer time metric it feeds. */
const std::map<std::string, std::string> SpanMetric = {
    {"asm.assemble", "asm.assemble_ms"},
    {"profile.profileProgram", "profile.profile_ms"},
    {"distill.distill", "distill.distill_ms"},
    {"distill.distillSpeculated", "distill.speculated_ms"},
    {"analysis.verifyDistilled", "analysis.lint_ms"},
    {"analysis.verifyDistilledSemantic", "analysis.semantic_ms"},
    {"analysis.analyzeSpecSafe", "analysis.specsafe_ms"},
    {"analysis.analyzeSpecPlan", "analysis.specplan_ms"},
    {"exec.runBaseline", "exec.seq_ms"},
    {"mssp.MsspMachine", "mssp.construct_ms"},
    {"mssp.run", "mssp.run_ms"},
    {"fault.runCampaignCell", "fault.cell_ms"},
    {"eval.runSuite", "eval.suite_ms"},
};

/** Per-layer values of one run: span medians plus derived ratios. */
std::map<std::string, double>
layerMetrics(const Pass &ref, const std::vector<SpanTotals> &traced,
             const std::vector<SpanTotals> &setups, double overheadMs)
{
    std::map<std::string, double> m;
    for (const auto &[name, value] : ref.counts)
        m[name] = value;
    auto spanMedian = [&traced](auto pick) {
        std::vector<double> v;
        for (const SpanTotals &t : traced)
            v.push_back(pick(t));
        return median(v);
    };
    for (const auto &[span, metric] : SpanMetric) {
        m[metric] = spanMedian([&span](const SpanTotals &t) {
            auto it = t.ms.find(span);
            return it == t.ms.end() ? 0.0 : it->second;
        });
    }
    for (const char *layer : {"asm", "profile", "distill", "analysis",
                              "exec", "mssp", "fault", "eval"}) {
        m[std::string(layer) + ".self_ms"] =
            spanMedian([layer](const SpanTotals &t) {
                auto it = t.selfMs.find(layer);
                return it == t.selfMs.end() ? 0.0 : it->second;
            });
    }
    // fault.cell_ms is per cell, not per pass.
    std::vector<double> cells;
    for (const SpanTotals &t : traced)
        cells.insert(cells.end(), t.cellMs.begin(), t.cellMs.end());
    m["fault.cell_ms"] = median(cells);
    m["fault.cell_ms_p90"] = percentile(cells, 90);

    for (const char *layer : {"asm", "profile", "distill", "exec"}) {
        std::vector<double> v;
        for (const SpanTotals &t : setups) {
            auto it = t.selfMs.find(layer);
            v.push_back(it == t.selfMs.end() ? 0.0 : it->second);
        }
        m[std::string("setup.") + layer + "_ms"] = median(v);
    }

    double machineMs = m["mssp.construct_ms"] + m["mssp.run_ms"];
    if (m["fault.self_ms"] > 0)
        machineMs = m["fault.self_ms"];   // the machine runs inside cells
    m["mssp.committed_mips"] =
        ratio(m["mssp.committed_insts"], machineMs * 1e3);
    m["mssp.host_ns_per_cycle"] =
        ratio(m["mssp.run_ms"] * 1e6, m["mssp.cycles"]);
    m["mssp.host_ns_per_executed_inst"] =
        ratio(m["mssp.run_ms"] * 1e6,
              m["mssp.master_insts"] + m["mssp.slave_insts"] +
                  m["mssp.seq_mode_insts"]);
    m["mssp.commit_rate"] =
        ratio(m["mssp.tasks_committed"], m["mssp.tasks_forked"]);
    m["mssp.slave_idle_share"] =
        ratio(m["mssp.slave_idle_cycles"], m["mssp.slave_cycles"]);
    m["mssp.slave_pause_share"] =
        ratio(m["mssp.slave_pause_cycles"], m["mssp.slave_cycles"]);
    m["mem.l1_hit_rate"] =
        ratio(m["mem.l1_hits"], m["mem.l1_hits"] + m["mem.l1_misses"]);
    m["profile.mips"] =
        ratio(m["profile.insts"], m["profile.profile_ms"] * 1e3);
    m["exec.seq_mips"] =
        ratio(m["exec.seq_insts"], m["exec.seq_ms"] * 1e3);
    m["fault.seq_mode_share"] =
        ratio(m["mssp.seq_mode_insts"], m["mssp.committed_insts"]);
    m["trace.overhead_ms"] = overheadMs;
    return m;
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

/** Result of one workload run, ready to print. */
struct Outcome
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;   ///< name -> (value, unit), in table order
};

std::string
resultJson(const Outcome &r)
{
    std::string s = strfmt("{\"correct\": %s, \"attempted\": %llu, "
                           "\"failed\": %llu, \"metrics\": {",
                           r.correct ? "true" : "false",
                           static_cast<unsigned long long>(r.attempted),
                           static_cast<unsigned long long>(r.failed));
    for (size_t i = 0; i < r.metrics.size(); ++i) {
        const auto &[name, vu] = r.metrics[i];
        s += strfmt("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                    i ? ", " : "", name.c_str(), num(vu.first).c_str(),
                    vu.second.c_str());
    }
    return s + "}}";
}

/** Names of deterministic values that differ between two passes. */
std::vector<std::string>
mismatches(const Pass &a, const Pass &b)
{
    std::vector<std::string> out;
    if (a.attempted != b.attempted || a.failed != b.failed)
        out.push_back("attempted/failed");
    for (const auto &[name, value] : a.counts) {
        auto it = b.counts.find(name);
        if (it == b.counts.end() || it->second != value)
            out.push_back(name);
    }
    if (a.counts.size() != b.counts.size())
        out.push_back("(count set)");
    return out;
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Run one workload: set-ups, one untimed warm-up pass, then measured
 * passes until --seconds and MinPasses are both met (with tracing,
 * MinPasses gives one untraced and one traced pass).
 * @retval false when a deterministic value did not repeat.
 */
bool
runWorkload(const std::string &name, const Options &o, Tracer &tr,
            Outcome &out)
{
    std::unique_ptr<Bench> bench = makeBench(name, o);
    if (!bench)
        usage(("unknown workload " + name).c_str());

    std::vector<double> setupS;
    std::vector<SpanTotals> setupSpans;
    Clock::time_point setupStart = Clock::now();
    while (setupS.size() < MinSetupReps ||
           (setupS.size() < MaxSetupReps &&
            secondsSince(setupStart) < SetupBudgetS)) {
        tr.setOn(o.trace);
        size_t mark = tr.mark();
        Clock::time_point t0 = Clock::now();
        bench->setup(tr);
        setupS.push_back(secondsSince(t0));
        if (o.trace)
            setupSpans.push_back(tr.totalsSince(mark));
    }

    // Warm-up pass: untraced, untimed, and the determinism reference.
    tr.setOn(false);
    Pass ref = bench->pass(tr);

    std::vector<Pass> passes;
    std::vector<double> plainS, tracedS;
    std::vector<SpanTotals> traced;
    Clock::time_point start = Clock::now();
    while (passes.size() < MinPasses || secondsSince(start) < o.seconds) {
        // With tracing, odd passes are traced and even passes are the
        // untraced reference for the tracing overhead.
        bool on = o.trace && passes.size() % 2 == 1;
        tr.setOn(on);
        size_t mark = tr.mark();
        Clock::time_point t0 = Clock::now();
        Pass p = bench->pass(tr);
        p.wallS = secondsSince(t0);
        (on ? tracedS : plainS).push_back(p.wallS);
        if (on)
            traced.push_back(tr.totalsSince(mark));
        passes.push_back(std::move(p));
    }
    tr.setOn(false);

    std::fprintf(stderr, "perfbench: %s set-up seconds:", name.c_str());
    for (double s : setupS)
        std::fprintf(stderr, " %.4f", s);
    std::fprintf(stderr, "\nperfbench: %s pass seconds:", name.c_str());
    for (const Pass &p : passes)
        std::fprintf(stderr, " %.4f", p.wallS);
    std::fprintf(stderr, "\n");

    bool deterministic = true;
    for (size_t i = 0; i < passes.size(); ++i) {
        std::vector<std::string> diff = mismatches(ref, passes[i]);
        if (diff.empty())
            continue;
        deterministic = false;
        std::fprintf(stderr,
                     "perfbench: %s pass %zu (%s) differs from the "
                     "warm-up pass in:",
                     name.c_str(), i + 1,
                     o.trace && i % 2 == 1 ? "traced" : "untraced");
        for (const std::string &d : diff)
            std::fprintf(stderr, " %s", d.c_str());
        std::fprintf(stderr, "\n");
    }

    out.attempted += ref.attempted;
    out.failed += ref.failed;
    out.correct = out.correct && ref.failed == 0;

    double wall = median(plainS);
    double setup = median(setupS);
    std::printf("%-8s wall_s       %.4f s (median of %zu passes)\n",
                name.c_str(), wall, plainS.size());
    if (plainS.size() >= 11) {
        // Highest nearest-rank percentile with >= 10 samples beyond it.
        size_t k = plainS.size() - 10;
        std::vector<double> sorted = plainS;
        std::sort(sorted.begin(), sorted.end());
        std::printf("%-8s wall_s       %.4f s (p%.0f, n=%zu)\n",
                    name.c_str(), sorted[k - 1],
                    100.0 * static_cast<double>(k) /
                        static_cast<double>(sorted.size()),
                    sorted.size());
    }
    std::printf("%-8s setup_s      %.4f s (median of %zu set-ups)\n",
                name.c_str(), setup, setupS.size());
    double rss = peakRssMb();
    std::printf("%-8s peak_rss_mb  %.1f MB\n", name.c_str(), rss);
    std::printf("%-8s fail_rate    %.4f (%llu failed of %llu)\n",
                name.c_str(), ratio(ref.failed, ref.attempted),
                static_cast<unsigned long long>(ref.failed),
                static_cast<unsigned long long>(ref.attempted));
    for (const char *sim : {"sim_speedup_geomean", "sim_master_path_ratio",
                            "sim_cycles"}) {
        auto it = ref.counts.find(sim);
        if (it != ref.counts.end())
            std::printf("%-8s %-22s %s\n", name.c_str(), sim,
                        num(it->second).c_str());
    }

    std::string prefix = o.workload == "all" ? name + "." : "";
    if (!o.trace) {
        std::map<std::string, double> m = {
            {"wall_s", wall}, {"setup_s", setup},
            {"peak_rss_mb", rss}};
        for (const MetricDef &d : EndToEnd)
            out.metrics.push_back({prefix + d.name, {m[d.name], d.unit}});
        return deterministic;
    }

    std::map<std::string, double> m = layerMetrics(
        ref, traced, setupSpans,
        (median(tracedS) - median(plainS)) * 1e3);
    for (const MetricDef &d : PerLayer)
        out.metrics.push_back({prefix + d.name, {m[d.name], d.unit}});
    std::printf("%-8s self time by layer (median traced pass, ms):",
                name.c_str());
    for (const char *layer : {"asm", "profile", "distill", "analysis",
                              "exec", "mssp", "fault", "eval"}) {
        std::printf(" %s=%.1f", layer,
                    m[std::string(layer) + ".self_ms"]);
    }
    std::printf("\n");
    if (name == "faults") {
        std::printf("%-8s %-20s %12s %14s %14s\n", name.c_str(),
                    "fault type", "squashes", "seq-mode insts",
                    "seq share");
        for (FaultType t : allFaultTypes()) {
            std::string by = std::string("by_type.") + toString(t) + ".";
            std::printf("%-8s %-20s %12.0f %14.0f %14.4f\n", name.c_str(),
                        toString(t), m[by + "squash_events"],
                        m[by + "seq_mode_insts"],
                        ratio(m[by + "seq_mode_insts"],
                              m[by + "committed_insts"]));
        }
    }
    return deterministic;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options o = parseArgs(argc, argv);
    setQuiet(true);
    std::vector<std::string> names;
    if (o.workload == "all")
        names = {"run", "pipeline", "faults", "suite"};
    else
        names = {o.workload};

    Tracer tr;
    Outcome result;
    bool deterministic = true;
    try {
        for (const std::string &name : names)
            deterministic = runWorkload(name, o, tr, result) && deterministic;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    if (o.trace && !o.traceOut.empty() && !tr.write(o.traceOut)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     o.traceOut.c_str());
        return 1;
    }
    if (!deterministic) {
        std::fprintf(stderr, "perfbench: deterministic values did not "
                             "repeat; no result\n");
        return 1;
    }
    std::printf("%s\n", resultJson(result).c_str());
    return 0;
}
