#include "eval/crossval.hh"

#include <functional>
#include <map>
#include <optional>

#include "analysis/merged_image.hh"
#include "analysis/verifier.hh"
#include "asm/assembler.hh"
#include "core/pipeline.hh"
#include "eval/experiment.hh"
#include "exec/seq_machine.hh"
#include "sim/parallel.hh"
#include "util/string_utils.hh"
#include "workloads/workloads.hh"

namespace mssp
{

namespace
{

/** Watches the SEQ replay and records, per tracked static load PC,
 *  the last value read — flagging any change. */
class InvariantLoadWatcher : public SeqMachine::Observer
{
  public:
    InvariantLoadWatcher(
        SeqMachine &machine,
        const std::vector<analysis::LoadClassification> &loads)
        : machine_(machine)
    {
        for (const analysis::LoadClassification &c : loads) {
            if (c.cls == LoadSpecClass::ProvablyInvariant)
                last_[c.pc] = std::nullopt;
        }
    }

    size_t checkedLoads() const { return last_.size(); }

    void
    onStep(uint32_t pc, const StepResult &res) override
    {
        if (!isLoad(res.inst.op))
            return;
        auto it = last_.find(pc);
        if (it == last_.end())
            return;
        // onStep fires post-instruction: the loaded value sits in rd.
        // A load into r0 leaves no trace there, but also cannot have
        // clobbered rs1, so the address still reconstructs exactly
        // (ProvablyInvariant loads are never MMIO, so re-reading
        // memory is side-effect free).
        uint32_t value;
        if (res.inst.rd != 0) {
            value = machine_.readReg(res.inst.rd);
        } else {
            uint32_t addr =
                machine_.readReg(res.inst.rs1) + res.inst.imm;
            value = machine_.state().readMem(addr);
        }
        result.observations++;
        if (it->second && *it->second != value) {
            result.valueChanges++;
            if (result.firstViolation.empty()) {
                result.firstViolation = strfmt(
                    "load at 0x%x read 0x%x, previously 0x%x", pc,
                    value, *it->second);
            }
        }
        it->second = value;
    }

    SpecSafeDynamicResult result;

  private:
    SeqMachine &machine_;
    std::map<uint32_t, std::optional<uint32_t>> last_;
};

/** Watches the SEQ replay and scores every plan candidate's value
 *  prediction against the value its load actually reads. */
class PlanPredictionWatcher : public SeqMachine::Observer
{
  public:
    PlanPredictionWatcher(
        SeqMachine &machine,
        const std::vector<analysis::SpecPlanCandidate> &candidates)
        : machine_(machine)
    {
        result.candidates.reserve(candidates.size());
        for (const analysis::SpecPlanCandidate &c : candidates) {
            index_[c.pc] = result.candidates.size();
            result.candidates.push_back(
                {c.pc, c.proof, c.value, 0, 0});
        }
    }

    void
    onStep(uint32_t pc, const StepResult &res) override
    {
        if (!isLoad(res.inst.op))
            return;
        auto it = index_.find(pc);
        if (it == index_.end())
            return;
        // Same post-instruction read as InvariantLoadWatcher: rd
        // holds the value; an r0 load leaves rs1 intact, so the
        // address reconstructs (candidate loads are never MMIO, so
        // re-reading is side-effect free).
        uint32_t value;
        if (res.inst.rd != 0) {
            value = machine_.readReg(res.inst.rd);
        } else {
            uint32_t addr =
                machine_.readReg(res.inst.rs1) + res.inst.imm;
            value = machine_.state().readMem(addr);
        }
        SpecPlanCandidateDyn &dyn = result.candidates[it->second];
        dyn.observations++;
        bool hit = value == dyn.predicted;
        if (hit)
            dyn.hits++;
        if (dyn.proof == ValueProof::Proven) {
            if (!hit) {
                result.provenMismatches++;
                if (result.firstViolation.empty()) {
                    result.firstViolation = strfmt(
                        "proven candidate at 0x%x read 0x%x, "
                        "predicted 0x%x",
                        pc, value, dyn.predicted);
                }
            }
        } else {
            result.likelyObservations++;
            if (hit)
                result.likelyHits++;
        }
    }

    SpecPlanDynamicResult result;

  private:
    SeqMachine &machine_;
    std::map<uint32_t, size_t> index_;
};

/** Watches a SEQ replay of the *original* program and scores every
 *  baked specedit's constant against the value its load reads. */
class SpecEditWatcher : public SeqMachine::Observer
{
  public:
    SpecEditWatcher(SeqMachine &machine,
                    const std::vector<SpecEdit> &edits)
        : machine_(machine)
    {
        for (const SpecEdit &e : edits)
            tracked_[e.origPc] = {e.proof, e.value};
        result.checkedEdits = tracked_.size();
    }

    void
    onStep(uint32_t pc, const StepResult &res) override
    {
        if (!isLoad(res.inst.op))
            return;
        auto it = tracked_.find(pc);
        if (it == tracked_.end())
            return;
        // Post-instruction read, as in the other watchers: rd holds
        // the value; an r0 load leaves rs1 intact, so the address
        // reconstructs (baked loads are never MMIO).
        uint32_t value;
        if (res.inst.rd != 0) {
            value = machine_.readReg(res.inst.rd);
        } else {
            uint32_t addr =
                machine_.readReg(res.inst.rs1) + res.inst.imm;
            value = machine_.state().readMem(addr);
        }
        result.observations++;
        bool hit = value == it->second.second;
        if (it->second.first == ValueProof::Proven) {
            if (!hit) {
                result.provenMismatches++;
                if (result.firstViolation.empty()) {
                    result.firstViolation = strfmt(
                        "baked load at 0x%x read 0x%x, image bakes "
                        "0x%x",
                        pc, value, it->second.second);
                }
            }
        } else {
            result.likelyObservations++;
            if (hit)
                result.likelyHits++;
        }
    }

    SpecEditDynamicResult result;

  private:
    SeqMachine &machine_;
    std::map<uint32_t, std::pair<ValueProof, uint32_t>> tracked_;
};

} // anonymous namespace

SpecEditDynamicResult
validateSpecEditsDynamic(const Program &orig,
                         const DistilledProgram &dist,
                         uint64_t max_insts)
{
    // The *original* program is the ground truth the baked constants
    // claim to reproduce — replay it, not the merged image.
    SeqMachine machine(orig);
    SpecEditWatcher watcher(machine, dist.specEdits);
    machine.setObserver(&watcher);
    machine.run(max_insts);
    return watcher.result;
}

SpecPlanDynamicResult
validateSpecPlanDynamic(
    const Program &orig, const DistilledProgram &dist,
    const std::vector<analysis::SpecPlanCandidate> &candidates,
    uint64_t max_insts)
{
    SeqMachine machine(analysis::mergedImage(orig, dist));
    PlanPredictionWatcher watcher(machine, candidates);
    machine.setObserver(&watcher);
    // Same bounded-window contract as validateSpecSafeDynamic: the
    // replay need not halt cleanly, the budget bounds it either way.
    machine.run(max_insts);
    return watcher.result;
}

SpecSafeDynamicResult
validateSpecSafeDynamic(
    const Program &orig, const DistilledProgram &dist,
    const std::vector<analysis::LoadClassification> &loads,
    uint64_t max_insts)
{
    SeqMachine machine(analysis::mergedImage(orig, dist));
    InvariantLoadWatcher watcher(machine, loads);
    machine.setObserver(&watcher);
    // The distilled program is an approximation; its raw SEQ replay
    // need not halt cleanly (it may fault or spin) — the instruction
    // budget bounds the observation window either way.
    machine.run(max_insts);
    watcher.result.checkedLoads = watcher.checkedLoads();
    return watcher.result;
}

bool
CrossValReport::allConsistent() const
{
    for (const CrossValRow &r : rows) {
        if (!r.consistent)
            return false;
    }
    return true;
}

std::string
CrossValReport::toText() const
{
    Table t({"workload", "ok", "edits", "proven", "risky", "unknown",
             "sem-err", "div-squash", "loads PI/RI/R", "spec-err",
             "pi-chg", "plan P/L", "plan-err", "pv-miss", "l-hit",
             "consistent"});
    for (const CrossValRow &r : rows) {
        std::string lhit = "-";
        if (r.planLikelyObservations) {
            lhit = strfmt(
                "%.0f%%",
                100.0 * static_cast<double>(r.planLikelyHits) /
                    static_cast<double>(r.planLikelyObservations));
        }
        t.addRow({r.name, r.ok ? "yes" : "NO",
                  strfmt("%zu", r.edits), strfmt("%zu", r.proven),
                  strfmt("%zu", r.risky), strfmt("%zu", r.unknown),
                  strfmt("%zu", r.semanticErrors),
                  strfmt("%llu", static_cast<unsigned long long>(
                                     r.divergenceSquashes)),
                  strfmt("%zu/%zu/%zu", r.specProvablyInvariant,
                         r.specRegionInvariant, r.specRisky),
                  strfmt("%zu", r.specErrors),
                  strfmt("%llu", static_cast<unsigned long long>(
                                     r.provInvariantValueChanges)),
                  strfmt("%zu/%zu", r.planProven, r.planLikely),
                  strfmt("%zu", r.planErrors),
                  strfmt("%llu", static_cast<unsigned long long>(
                                     r.planProvenMismatches)),
                  lhit, r.consistent ? "yes" : "NO"});
    }
    return t.render("static risk vs. dynamic misspeculation");
}

CrossValReport
crossValidate(double scale, const MsspConfig &cfg,
              uint64_t max_cycles, unsigned jobs)
{
    std::vector<Workload> workloads = specAnalogues(scale);
    std::vector<std::function<CrossValRow()>> work;
    work.reserve(workloads.size());
    for (const Workload &wl : workloads) {
        work.push_back([&wl, &cfg, max_cycles] {
            CrossValRow row;
            row.name = wl.name;

            PreparedWorkload prepared =
                prepare(assemble(wl.refSource),
                        assemble(wl.trainSource),
                        DistillerOptions::paperPreset());

            analysis::SemanticResult sem =
                analysis::verifyDistilledSemantic(prepared.orig,
                                                  prepared.dist);
            row.edits = sem.semantic.verdicts.size();
            row.proven = sem.semantic.proven();
            row.risky = sem.semantic.risky();
            row.unknown = sem.semantic.unknown();
            row.semanticErrors = sem.lint.errors();

            analysis::SpecSafeReport spec =
                analysis::analyzeSpecSafe(prepared.orig,
                                          prepared.dist);
            row.specLoads = spec.loads.size();
            row.specProvablyInvariant = spec.provablyInvariant();
            row.specRegionInvariant = spec.regionInvariant();
            row.specRisky = spec.risky();
            row.specErrors = spec.lint.errors();

            WorkloadRun run =
                runPrepared(wl.name, prepared, cfg, max_cycles);
            row.ok = run.ok;
            row.divergenceSquashes =
                run.counters.tasksSquashedLiveIn +
                run.counters.tasksSquashedWrongPc;

            SpecSafeDynamicResult dyn = validateSpecSafeDynamic(
                prepared.orig, prepared.dist, spec.loads);
            row.provInvariantValueChanges = dyn.valueChanges;

            analysis::SpecPlanReport plan =
                analysis::analyzeSpecPlan(prepared.orig,
                                          prepared.dist);
            row.planCandidates = plan.candidates.size();
            row.planProven = plan.proven();
            row.planLikely = plan.likely();
            row.planErrors = plan.lint.errors();

            SpecPlanDynamicResult pdyn = validateSpecPlanDynamic(
                prepared.orig, prepared.dist, plan.candidates);
            row.planProvenMismatches = pdyn.provenMismatches;
            row.planLikelyObservations = pdyn.likelyObservations;
            row.planLikelyHits = pdyn.likelyHits;

            // The validator's claim is one-directional: a workload
            // whose edits are all Proven must not squash on
            // divergence. The converse (risky edits must squash) does
            // not hold — static analysis over-approximates dynamic
            // behaviour. The specsafe claim is absolute: a
            // ProvablyInvariant load that changed value means the
            // alias analysis is wrong, full stop. So is the plan's:
            // a Proven candidate reading anything but its predicted
            // value means the value-flow analysis is wrong.
            bool all_proven = row.proven == row.edits;
            row.consistent =
                run.ok && (!all_proven || row.divergenceSquashes == 0)
                && row.specErrors == 0
                && row.provInvariantValueChanges == 0
                && row.planErrors == 0
                && row.planProvenMismatches == 0;
            return row;
        });
    }
    CrossValReport rep;
    rep.rows = runSharded<CrossValRow>(jobs, std::move(work));
    return rep;
}

} // namespace mssp
