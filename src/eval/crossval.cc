#include "eval/crossval.hh"

#include <map>
#include <optional>

#include "analysis/merged_image.hh"
#include "exec/seq_machine.hh"
#include "util/string_utils.hh"

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

} // namespace mssp
