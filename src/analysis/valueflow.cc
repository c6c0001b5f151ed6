/**
 * @file
 * Value-flow analysis implementation (see valueflow.hh).
 */

#include "analysis/valueflow.hh"

#include <algorithm>
#include <set>

#include "analysis/dataflow.hh"
#include "arch/mmio.hh"
#include "sim/logging.hh"

namespace mssp::analysis
{

namespace
{

/**
 * Abstract state of the value-flow domain: the register intervals
 * plus one interval per *tracked* memory word (the constant addresses
 * of invariant-class loads). The mem map carries exactly the tracked
 * key set in every reachable state, so meet and equality align
 * pointwise.
 */
struct VfState
{
    AbsState regs;
    std::map<uint32_t, AbsVal> mem;

    bool operator==(const VfState &) const = default;
};

/**
 * One instruction's effect on a VfState. Loads from a tracked word
 * forward the flow fact; stores update tracked words strongly (exact
 * address) or weakly (overlapping interval); everything else is the
 * plain absint register transfer.
 */
void
vfStep(uint32_t pc, const Instruction &inst, VfState &st,
       const Program *image, const StoreSummary *stores)
{
    if (!st.regs.reachable)
        return;
    switch (inst.op) {
      case Opcode::Lw: {
        AbsVal addr = absMemAddr(st.regs, inst);
        if (addr.isConst()) {
            auto it = st.mem.find(addr.cval());
            if (it != st.mem.end() && !it->second.isBottom()) {
                st.regs.setReg(inst.rd, it->second);
                return;
            }
        }
        absStep(pc, inst, st.regs, image, stores);
        return;
      }
      case Opcode::Sw: {
        AbsVal addr = absMemAddr(st.regs, inst);
        AbsVal val = st.regs.reg(inst.rs2);
        if (addr.isConst()) {
            // Exact address: the store definitely overwrites this
            // word and no other — a strong update.
            auto it = st.mem.find(addr.cval());
            if (it != st.mem.end())
                it->second = val;
            return;
        }
        for (auto &[a, v] : st.mem) {
            if (addr.contains(a))
                v = v.join(val);
        }
        return;
      }
      default:
        absStep(pc, inst, st.regs, image, stores);
        return;
    }
}

/** The value-flow domain over whole basic blocks (the AbsDomain of
 *  absint.cc extended with the tracked-memory component). */
struct VfDomain
{
    using Value = VfState;

    const Cfg &cfg;
    const std::vector<uint32_t> &starts;
    const Program *image;
    const StoreSummary *stores;
    /** Boundary per root block start; roots absent here fall back to
     *  @c fallbackRoot (conservative landing-pad state). */
    const std::map<uint32_t, VfState> *rootBoundary;
    const VfState *fallbackRoot;
    std::vector<bool> is_root;

    static constexpr unsigned kWidenDelay = 3;
    mutable std::vector<unsigned> visits;

    VfDomain(const Cfg &cfg, const std::vector<uint32_t> &starts,
             const FlowGraph &g, const Program *image,
             const StoreSummary *stores,
             const std::map<uint32_t, VfState> *rootBoundary,
             const VfState *fallbackRoot)
        : cfg(cfg), starts(starts), image(image), stores(stores),
          rootBoundary(rootBoundary), fallbackRoot(fallbackRoot),
          is_root(g.size(), false), visits(g.size(), 0)
    {
        is_root[static_cast<size_t>(g.entry)] = true;
        for (int r : g.roots)
            is_root[static_cast<size_t>(r)] = true;
    }

    Value top() const { return VfState{}; }   // unreachable

    Value
    boundary(int n) const
    {
        if (!is_root[static_cast<size_t>(n)])
            return VfState{};
        if (rootBoundary) {
            auto it =
                rootBoundary->find(starts[static_cast<size_t>(n)]);
            if (it != rootBoundary->end())
                return it->second;
        }
        return *fallbackRoot;
    }

    void
    meet(Value &into, const Value &from) const
    {
        if (!from.regs.reachable)
            return;
        if (!into.regs.reachable) {
            into = from;
            return;
        }
        for (unsigned r = 0; r < NumRegs; ++r)
            into.regs.regs[r] = into.regs.regs[r].join(from.regs.regs[r]);
        for (auto &[a, v] : into.mem) {
            auto it = from.mem.find(a);
            if (it != from.mem.end())
                v = v.join(it->second);
        }
    }

    /** Kill flow along the untaken side of a decided branch (same
     *  rule as the plain interval domain, on the register part). */
    Value
    edgeOut(int from, int to, const Value &out) const
    {
        if (!out.regs.reachable)
            return out;
        const BasicBlock &bb =
            cfg.blockAt(starts[static_cast<size_t>(from)]);
        if (bb.term != TermKind::CondBranch || bb.insts.empty() ||
            bb.takenTarget == bb.fallthrough) {
            return out;
        }
        const Instruction &br = bb.insts.back();
        TriState d = absBranch(br.op, out.regs.reg(br.rs1),
                               out.regs.reg(br.rs2));
        uint32_t target = starts[static_cast<size_t>(to)];
        if ((d == TriState::True && target == bb.fallthrough) ||
            (d == TriState::False && target == bb.takenTarget)) {
            return VfState{};   // unreachable along this edge
        }
        return out;
    }

    void
    refineMeet(int n, Value &in, const Value &prev) const
    {
        unsigned &count = visits[static_cast<size_t>(n)];
        if (++count <= kWidenDelay || !prev.regs.reachable ||
            !in.regs.reachable) {
            return;
        }
        for (unsigned r = 0; r < NumRegs; ++r)
            in.regs.regs[r] = prev.regs.regs[r].widen(in.regs.regs[r]);
        for (auto &[a, v] : in.mem) {
            auto it = prev.mem.find(a);
            if (it != prev.mem.end())
                v = it->second.widen(v);
        }
    }

    Value
    transfer(int n, const Value &in) const
    {
        if (!in.regs.reachable)
            return VfState{};
        VfState st = in;
        const BasicBlock &bb =
            cfg.blockAt(starts[static_cast<size_t>(n)]);
        for (size_t i = 0; i < bb.insts.size(); ++i)
            vfStep(bb.pcOf(i), bb.insts[i], st, image, stores);
        return st;
    }
};

/** Value-flow state just before the instruction at @p pc. */
VfState
vfStateBefore(const Cfg &cfg,
              const std::map<uint32_t, VfState> &blockIn,
              const Program *image, const StoreSummary *stores,
              uint32_t pc)
{
    const BasicBlock *bb = containingBlock(cfg, pc);
    if (!bb)
        return VfState{};
    auto it = blockIn.find(bb->start);
    if (it == blockIn.end())
        return VfState{};
    VfState st = it->second;
    for (size_t i = 0; i < bb->insts.size() && bb->pcOf(i) < pc; ++i)
        vfStep(bb->pcOf(i), bb->insts[i], st, image, stores);
    return st;
}

/** Run the value-flow fixpoint over one CFG and hand back the block
 *  in-states keyed by leader PC. */
std::map<uint32_t, VfState>
solveValueFlow(const Program &prog, const Cfg &cfg,
               const StoreSummary &stores,
               const std::map<uint32_t, VfState> &rootBoundary,
               const VfState &fallbackRoot)
{
    std::vector<uint32_t> starts;
    FlowGraph g = graphOfCfg(cfg, starts);
    VfDomain dom(cfg, starts, g, &prog, &stores, &rootBoundary,
                 &fallbackRoot);
    auto solved = solveDataflow(g, dom, Direction::Forward);
    std::map<uint32_t, VfState> blockIn;
    for (size_t i = 0; i < starts.size(); ++i)
        blockIn[starts[i]] = solved.in[i];
    return blockIn;
}

} // anonymous namespace

ValueFlowResult
analyzeValueFlow(const MergedImageAnalysis &mia,
                 const std::vector<LoadClassification> &classes)
{
    ValueFlowResult res;
    const Program &orig = mia.orig;
    const Program &merged = mia.merged;

    // Tracked words: the proven-constant, non-device addresses of
    // invariant-class loads. A load that reads *code* in the
    // distilled overlay is excluded — its word differs between the
    // original and merged images, so no one fact is sound for both
    // passes.
    std::set<uint32_t> tracked;
    for (const LoadClassification &c : classes) {
        if (c.cls == LoadSpecClass::Risky || !c.addr.isConst())
            continue;
        uint32_t a = c.addr.cval();
        if (isMmio(a) || mia.dist.prog.image().count(a))
            continue;
        tracked.insert(a);
    }

    // Pass 1: the sequential original program from its true initial
    // state — registers unknown, every tracked word holding its
    // image value. Its in-states over-approximate the architected
    // state (registers *and* memory) at every master restart point,
    // the bound merged_image.hh seeds the registers from.
    VfState origEntry;
    origEntry.regs = AbsState::entry();
    for (uint32_t a : tracked)
        origEntry.mem[a] = AbsVal::constant(orig.word(a));
    std::map<uint32_t, VfState> origRoots;
    origRoots[orig.entry()] = origEntry;
    std::map<uint32_t, VfState> origIn =
        solveValueFlow(orig, mia.origCfg, mia.origAi.stores, origRoots,
                       origEntry);

    // Pass 2 runs over the merged image from its restart roots, each
    // seeded with pass 1's memory state at the original PC it
    // restarts from. The fallback root state covers landing pads
    // with no better bound (the original entry, unreachable restart
    // PCs): any word some merged-image store may write is unknown
    // there.
    VfState fallback;
    fallback.regs = AbsState::entry();
    for (uint32_t a : tracked) {
        fallback.mem[a] = mia.ai.stores.mayWrite(a)
                              ? AbsVal::top()
                              : AbsVal::constant(merged.word(a));
    }
    std::map<uint32_t, VfState> mergedRoots;
    for (const auto &[o, dpc] : mia.dist.entryMap) {
        VfState st;
        auto rit = mia.rootBoundary.find(dpc);
        st.regs = rit != mia.rootBoundary.end() ? rit->second
                                                : AbsState::entry();
        VfState ost = vfStateBefore(mia.origCfg, origIn, &orig,
                                    &mia.origAi.stores, o);
        st.mem = ost.regs.reachable ? ost.mem : fallback.mem;
        mergedRoots[dpc] = std::move(st);
    }
    std::map<uint32_t, VfState> mergedIn = solveValueFlow(
        merged, mia.cfg, mia.ai.stores, mergedRoots, fallback);

    // Region context for the planner: every classified load's mask
    // (loads the discovery missed are conservatively everywhere).
    std::map<uint32_t, RegionMask> loadMask;
    for (const MemAccess &ld : mia.al.loads)
        loadMask[ld.pc] = ld.regions;
    for (const LoadClassification &c : classes) {
        auto it = loadMask.find(c.pc);
        res.loadRegions[c.pc] = {
            it != loadMask.end() ? it->second : RegionAll, c.cls};
    }
    res.blockRegions = mia.al.blockRegions;

    // Derive one forwarding fact per eligible load.
    for (const LoadClassification &c : classes) {
        if (c.cls == LoadSpecClass::Risky || !c.addr.isConst())
            continue;
        uint32_t a = c.addr.cval();
        if (!tracked.count(a))
            continue;
        res.loadsConsidered++;

        LoadValueFact f;
        f.pc = c.pc;
        f.addr = a;
        f.cls = c.cls;
        f.regions = res.loadRegions[c.pc].regions;

        VfState at = vfStateBefore(mia.cfg, mergedIn, &merged,
                                   &mia.ai.stores, c.pc);
        if (!at.regs.reachable)
            continue;
        AbsVal memv = at.mem.count(a) ? at.mem[a] : AbsVal::top();

        std::vector<const MemAccess *> aliasing =
            mia.al.interferingStores(a);
        if (memv.isConst()) {
            f.proof = ValueProof::Proven;
            f.value = memv.cval();
            f.feasible = {f.value};
            if (aliasing.empty()) {
                f.detail = strfmt("no store in the merged image may "
                                  "write [0x%x]; the load always "
                                  "reads the image word 0x%x",
                                  a, f.value);
            } else {
                f.detail = strfmt("every path to the load leaves "
                                  "0x%x at [0x%x] (flow-sensitive "
                                  "store-to-load forwarding across "
                                  "%zu aliasing store(s))",
                                  f.value, a, aliasing.size());
            }
            res.facts.push_back(std::move(f));
            continue;
        }

        // Feasible-set rule: the initial image word joined with
        // every aliasing store's constant. One unpinnable store
        // value spoils the set.
        std::set<uint32_t> feas;
        feas.insert(merged.word(a));
        const MemAccess *demote = nullptr;
        bool unbounded = false;
        for (const MemAccess *s : aliasing) {
            if (!s->value.isConst()) {
                unbounded = true;
                break;
            }
            feas.insert(s->value.cval());
            if (!demote && s->value.cval() != merged.word(a))
                demote = s;
        }
        if (unbounded || feas.size() > kMaxFeasibleValues)
            continue;
        if (feas.size() == 1) {
            // Every aliasing store rewrites the image word: the set
            // argument proves invariance even where widening blurred
            // the flow-sensitive fact.
            f.proof = ValueProof::Proven;
            f.value = *feas.begin();
            f.feasible = {f.value};
            f.detail = strfmt("every aliasing store provably "
                              "rewrites the image word 0x%x at "
                              "[0x%x]",
                              f.value, a);
            res.facts.push_back(std::move(f));
            continue;
        }
        f.proof = ValueProof::Likely;
        f.value = merged.word(a);
        f.feasible.assign(feas.begin(), feas.end());
        f.storePc = demote ? demote->pc : UINT32_MAX;
        f.detail = strfmt("reaching store-set is constant-valued but "
                          "not singleton: %zu feasible values for "
                          "[0x%x]; store at 0x%x writes 0x%x",
                          feas.size(), a,
                          demote ? demote->pc : UINT32_MAX,
                          demote ? demote->value.cval() : 0);
        res.facts.push_back(std::move(f));
    }

    std::sort(res.facts.begin(), res.facts.end(),
              [](const LoadValueFact &x, const LoadValueFact &y) {
                  return x.pc < y.pc;
              });
    return res;
}

} // namespace mssp::analysis
