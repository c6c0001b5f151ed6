#include "fault/campaign.hh"

#include <algorithm>
#include <functional>
#include <mutex>
#include <numeric>

#include "exec/seq_machine.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "sim/rng.hh"
#include "workloads/workloads.hh"

namespace mssp
{

double
faultBaseRate(FaultType t)
{
    // Per-opportunity grains differ wildly: a fork happens once per
    // ~100 instructions, a machine cycle every cycle ("per cycle":
    // each cycle the Spec-mode master runs; "per task cyc": each cycle
    // per slave holding an unfinished task, paused or stalled ones
    // included — see FaultPlan::rate). These bases are
    // tuned so intensity 1 perturbs a few percent of opportunities
    // and intensity 10 is a sustained assault that still recovers.
    switch (t) {
      case FaultType::CheckpointCorrupt: return 0.05;     // per fork
      case FaultType::LiveInFlip:        return 0.05;     // per fork
      case FaultType::MasterRegFlip:     return 0.001;    // per cycle
      case FaultType::MasterPcCorrupt:   return 0.0002;   // per cycle
      case FaultType::SpawnDelay:        return 0.1;      // per fork
      case FaultType::SpawnDrop:         return 0.02;     // per fork
      case FaultType::SlaveStall:        return 0.001;    // per task cyc
      case FaultType::SlaveKill:         return 0.0005;   // per task cyc
      case FaultType::SpuriousSquash:    return 0.01;     // per commit
      case FaultType::ImagePatch:        return 0.0001;   // per cycle
      case FaultType::None:              break;
    }
    return 0.0;
}

MsspConfig
campaignConfig()
{
    MsspConfig cfg;
    // Campaigns run small workloads under sustained assault; the
    // default 20k-cycle watchdog would spend the whole budget
    // waiting. Tighten it and escalate early so recovery dominates.
    cfg.watchdogCycles = 2500;
    cfg.watchdogEscalateAfter = 2;
    cfg.masterRunawayInsts = 20000;
    return cfg;
}

SeqOracle
makeSeqOracle(PreparedWorkload prepared)
{
    SeqOracle o;
    o.prepared = std::move(prepared);
    SeqMachine seq(o.prepared.orig);
    SeqRunResult r = seq.run(500000000ull);
    MSSP_ASSERT(r.halted);   // registry workloads all terminate
    o.outputs = seq.outputs();
    o.regs = seq.state().regs();
    o.insts = r.instCount;
    return o;
}

SeqOracle
makeSeqOracle(const Workload &wl)
{
    return makeSeqOracle(prepare(wl.refSource, wl.trainSource));
}

uint64_t
campaignBudget(const CampaignOptions &opts, uint64_t oracle_insts)
{
    return opts.maxCycles
               ? opts.maxCycles
               : std::max<uint64_t>(opts.minCycles,
                                    opts.cyclesPerInst * oracle_insts);
}

CampaignRun
runCampaignCell(const std::string &name, const SeqOracle &oracle,
                FaultType type, double rate, uint64_t seed,
                uint64_t budget)
{
    CampaignRun run;
    run.workload = name;
    run.type = type;
    run.rate = rate;
    run.seed = seed;
    run.budgetCycles = budget;

    FaultPlan plan;
    plan.type = type;
    plan.rate = rate;
    plan.seed = seed;
    FaultInjector injector(seed, {plan});

    MsspMachine machine(oracle.prepared.orig, oracle.prepared.dist,
                        campaignConfig());
    machine.setFaultInjector(&injector);
    // Invariant (c), sharp form: the machine must only ever commit a
    // task whose live-ins match architected state (this is its own
    // verification re-checked from outside — a bug in the commit
    // path shows up here before it corrupts the final state).
    machine.setCommitHook([&run](const Task &t, const ArchState &arch) {
        if (t.liveInMismatches(arch) != 0)
            run.commitInvariantOk = false;
    });

    MsspResult res = machine.run(budget);
    run.cycles = res.cycles;
    run.stopReason = res.stopReason;
    run.injections = injector.counters().count(type);
    run.recovery = machine.counters();
    run.seqBackoff = machine.currentSeqBackoff();
    run.epochs = machine.epochStats();

    run.forwardProgress = res.halted;
    run.outputOk = res.halted && res.outputs == oracle.outputs;
    run.archClean = res.halted && machine.arch().regs() == oracle.regs;
    return run;
}

namespace
{

std::string
fmtRate(double r)
{
    return strfmt("%g", r);
}

} // anonymous namespace

size_t
CampaignReport::failures() const
{
    size_t n = 0;
    for (const CampaignRun &r : runs)
        n += r.ok() ? 0 : 1;
    return n;
}

std::array<uint64_t, NumFaultTypes>
CampaignReport::injectionsByType() const
{
    std::array<uint64_t, NumFaultTypes> by{};
    for (const CampaignRun &r : runs)
        by[static_cast<size_t>(r.type)] += r.injections;
    return by;
}

bool
CampaignReport::allTypesFired() const
{
    auto by = injectionsByType();
    for (FaultType t : options.types) {
        if (by[static_cast<size_t>(t)] == 0)
            return false;
    }
    return !options.types.empty();
}

std::string
CampaignReport::toJson() const
{
    std::string out = "{\"schema\": \"mssp-faultcamp-v3\",\n";
    out += strfmt(" \"seed\": %llu, \"scale\": %s,\n",
                  static_cast<unsigned long long>(options.seed),
                  fmtRate(options.scale).c_str());
    out += " \"workloads\": [";
    for (size_t i = 0; i < options.workloads.size(); ++i) {
        out += strfmt("%s\"%s\"", i ? ", " : "",
                      options.workloads[i].c_str());
    }
    out += "],\n \"types\": [";
    for (size_t i = 0; i < options.types.size(); ++i) {
        out += strfmt("%s\"%s\"", i ? ", " : "",
                      toString(options.types[i]));
    }
    out += "],\n \"runs\": [\n";
    for (size_t i = 0; i < runs.size(); ++i) {
        const CampaignRun &r = runs[i];
        const MsspCounters &rec = r.recovery;
        out += strfmt(
            "  {\"workload\": \"%s\", \"type\": \"%s\", "
            "\"rate\": %s, \"seed\": %llu, "
            "\"injections\": %llu, \"cycles\": %llu, "
            "\"budgetCycles\": %llu, \"stopReason\": \"%s\", "
            "\"outputOk\": %s, \"forwardProgress\": %s, "
            "\"archClean\": %s, \"commitInvariantOk\": %s, "
            "\"ok\": %s, \"recovery\": {"
            "\"squashEvents\": %llu, \"watchdogSquashes\": %llu, "
            "\"watchdogEscalations\": %llu, "
            "\"masterRunawayKills\": %llu, "
            "\"masterDeadRestarts\": %llu, "
            "\"spuriousSquashes\": %llu, "
            "\"seqBackoffEvents\": %llu, \"seqBackoffDecays\": %llu, "
            "\"currentSeqBackoff\": %llu, \"seqModeInsts\": %llu}}%s\n",
            r.workload.c_str(), toString(r.type),
            fmtRate(r.rate).c_str(),
            static_cast<unsigned long long>(r.seed),
            static_cast<unsigned long long>(r.injections),
            static_cast<unsigned long long>(r.cycles),
            static_cast<unsigned long long>(r.budgetCycles),
            toString(r.stopReason),
            r.outputOk ? "true" : "false",
            r.forwardProgress ? "true" : "false",
            r.archClean ? "true" : "false",
            r.commitInvariantOk ? "true" : "false",
            r.ok() ? "true" : "false",
            static_cast<unsigned long long>(rec.squashEvents),
            static_cast<unsigned long long>(rec.watchdogSquashes),
            static_cast<unsigned long long>(rec.watchdogEscalations),
            static_cast<unsigned long long>(rec.masterRunawayKills),
            static_cast<unsigned long long>(rec.masterDeadRestarts),
            static_cast<unsigned long long>(rec.tasksSquashedSpurious),
            static_cast<unsigned long long>(rec.seqBackoffEvents),
            static_cast<unsigned long long>(rec.seqBackoffDecays),
            static_cast<unsigned long long>(r.seqBackoff),
            static_cast<unsigned long long>(rec.seqModeInsts),
            i + 1 < runs.size() ? "," : "");
    }
    auto by = injectionsByType();
    out += " ],\n \"injectionsByType\": {";
    bool first = true;
    for (FaultType t : allFaultTypes()) {
        out += strfmt("%s\"%s\": %llu", first ? "" : ", ",
                      toString(t),
                      static_cast<unsigned long long>(
                          by[static_cast<size_t>(t)]));
        first = false;
    }
    out += strfmt("},\n \"quarantine\": %s,\n",
                  quarantine.toJson().c_str());
    out += strfmt(" \"runsTotal\": %zu, \"failures\": %zu, "
                  "\"quarantined\": %zu, \"allTypesFired\": %s}\n",
                  runs.size(), failures(), quarantined(),
                  allTypesFired() ? "true" : "false");
    return out;
}

std::string
CampaignReport::epochStatsJson() const
{
    std::string out =
        "{\"schema\": \"mssp-epochstats-v1\",\n \"cells\": [\n";
    for (size_t i = 0; i < runs.size(); ++i) {
        const CampaignRun &r = runs[i];
        const EpochStats &e = r.epochs;
        out += strfmt(
            "  {\"workload\": \"%s\", \"type\": \"%s\", "
            "\"intensity\": %s, \"cycles\": %llu, \"epochs\": %llu, "
            "\"batchedCycles\": %llu, \"fallbacks\": {",
            r.workload.c_str(), toString(r.type),
            fmtRate(r.intensity).c_str(),
            static_cast<unsigned long long>(r.cycles),
            static_cast<unsigned long long>(e.epochs),
            static_cast<unsigned long long>(e.batchedCycles));
        for (size_t f = 0; f < NumEpochFallbacks; ++f) {
            out += strfmt("%s\"%s\": %llu", f ? ", " : "",
                          toString(static_cast<EpochFallback>(f)),
                          static_cast<unsigned long long>(
                              e.fallbacks[f]));
        }
        out += strfmt("}}%s\n", i + 1 < runs.size() ? "," : "");
    }
    out += " ]}\n";
    return out;
}

std::string
CampaignReport::summary() const
{
    std::string s = strfmt(
        "fault campaign: %zu runs, %zu failures, %zu quarantined%s\n"
        "%-10s %-19s %9s %6s %9s %8s %8s  %s\n",
        runs.size(), failures(), quarantined(),
        allTypesFired() ? "" : "  [WARNING: some types never fired]",
        "workload", "fault", "rate", "inj", "cycles", "squash",
        "seqInst", "verdict");
    for (const CampaignRun &r : runs) {
        s += strfmt(
            "%-10s %-19s %9s %6llu %9llu %8llu %8llu  %s\n",
            r.workload.c_str(), toString(r.type),
            fmtRate(r.rate).c_str(),
            static_cast<unsigned long long>(r.injections),
            static_cast<unsigned long long>(r.cycles),
            static_cast<unsigned long long>(r.recovery.squashEvents),
            static_cast<unsigned long long>(r.recovery.seqModeInsts),
            r.ok() ? "ok"
                   : strfmt("FAIL(%s%s%s%s)",
                            r.outputOk ? "" : " output",
                            r.forwardProgress ? "" : " progress",
                            r.archClean ? "" : " arch",
                            r.commitInvariantOk ? "" : " commit")
                         .c_str());
    }
    s += quarantine.summary();
    return s;
}

CampaignReport
runFaultCampaign(const CampaignOptions &opts, std::ostream *log,
                 std::map<std::string, SeqOracle> oracles)
{
    CampaignReport report;
    report.options = opts;
    if (report.options.workloads.empty()) {
        for (const Workload &wl : specAnalogues(opts.scale))
            report.options.workloads.push_back(wl.name);
    }
    if (report.options.types.empty())
        report.options.types = allFaultTypes();
    if (report.options.intensities.empty())
        report.options.intensities = {1.0};

    // Enumerate every (workload, type, intensity) cell in canonical
    // order and preassign its seed from that order, so scheduling can
    // never leak into a run (DESIGN.md §10 determinism contract).
    struct Cell
    {
        std::string workload;
        FaultType type;
        double intensity;
        double rate;
        uint64_t seed;
        uint64_t index;
    };
    std::vector<Cell> cells;
    uint64_t run_index = 0;
    for (const std::string &name : report.options.workloads) {
        for (FaultType type : report.options.types) {
            for (double intensity : report.options.intensities) {
                double rate = std::min(
                    1.0, faultBaseRate(type) * intensity);
                cells.push_back({name, type, intensity, rate,
                                 Rng::mix(opts.seed, run_index),
                                 ++run_index});
            }
        }
    }

    // Build the missing oracles with one sharded job per workload
    // before any cell runs: oracle construction (prepare + SEQ run)
    // dominates small-scale campaigns. The table is read-only after.
    unsigned jobs = opts.jobs ? opts.jobs : 1;
    std::vector<std::string> missing;
    for (const std::string &name : report.options.workloads) {
        if (!oracles.count(name))
            missing.push_back(name);
    }
    std::vector<std::function<SeqOracle()>> warm;
    warm.reserve(missing.size());
    for (const std::string &name : missing) {
        warm.push_back([&opts, &name] {
            return makeSeqOracle(workloadByName(name, opts.scale));
        });
    }
    std::vector<SeqOracle> built =
        runSharded<SeqOracle>(jobs, std::move(warm));
    for (size_t i = 0; i < missing.size(); ++i)
        oracles.emplace(missing[i], std::move(built[i]));

    std::mutex log_m;
    std::vector<std::function<CampaignRun()>> work;
    std::vector<std::string> labels;
    work.reserve(cells.size());
    labels.reserve(cells.size());
    for (const Cell &cell : cells) {
        labels.push_back(strfmt("%s/%s/%s", cell.workload.c_str(),
                                toString(cell.type),
                                fmtRate(cell.rate).c_str()));
        const SeqOracle &oracle = oracles.at(cell.workload);
        work.push_back([&opts, &oracle, &log_m, log, cell] {
            CampaignRun run = runCampaignCell(
                cell.workload, oracle, cell.type, cell.rate,
                cell.seed, campaignBudget(opts, oracle.insts));
            run.intensity = cell.intensity;
            if (log) {
                // Progress lines stream as cells finish (completion
                // order under --jobs > 1); the JSON report is the
                // deterministic artifact.
                std::lock_guard<std::mutex> lock(log_m);
                *log << strfmt(
                    "  [%3llu] %-10s %-19s rate=%-9s inj=%-5llu "
                    "%s\n",
                    static_cast<unsigned long long>(cell.index),
                    cell.workload.c_str(), toString(cell.type),
                    fmtRate(cell.rate).c_str(),
                    static_cast<unsigned long long>(run.injections),
                    run.ok() ? "ok" : "FAIL");
                log->flush();
            }
            return run;
        });
    }
    // Threaded sweeps claim cells heaviest first (by the oracle's
    // instruction count, which scales each cell's budget), so the
    // longest workload's cells do not start in the last wave. The
    // report stays in canonical order; --jobs 1 keeps it as the
    // claim order too, progress log included.
    std::vector<size_t> order;
    if (jobs > 1) {
        std::vector<uint64_t> weight;
        for (const Cell &cell : cells)
            weight.push_back(oracles.at(cell.workload).insts);
        order.resize(cells.size());
        std::iota(order.begin(), order.end(), size_t{0});
        std::stable_sort(order.begin(), order.end(),
                         [&weight](size_t a, size_t b) {
                             return weight[a] > weight[b];
                         });
    }
    // A cell that throws is quarantined instead of aborting the
    // sweep. The warm phase above stays plain runSharded on purpose:
    // every cell of a workload needs its oracle.
    SupervisedResult<CampaignRun> swept = runSupervised<CampaignRun>(
        jobs, std::move(work), labels, order);
    report.runs = std::move(swept.healthy);
    report.quarantine = std::move(swept.quarantine);
    if (log && !report.quarantine.empty()) {
        *log << report.quarantine.summary();
        log->flush();
    }
    return report;
}

} // namespace mssp
