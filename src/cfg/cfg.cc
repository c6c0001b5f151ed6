#include "cfg/cfg.hh"

#include <algorithm>
#include <deque>

#include "sim/logging.hh"

namespace mssp
{

namespace
{

/** Decoded instruction stream info gathered during discovery. */
struct Discovery
{
    std::map<uint32_t, Instruction> code;   // reachable pc -> inst
    std::set<uint32_t> leaders;
};

/** Successor PCs of the instruction at @p pc (for discovery). */
void
instSuccessors(uint32_t pc, const Instruction &inst,
               std::vector<uint32_t> &out)
{
    out.clear();
    switch (inst.op) {
      case Opcode::Halt:
      case Opcode::Illegal:
        return;
      case Opcode::Jal:
        out.push_back(pc + 1 + static_cast<uint32_t>(inst.imm));
        // A call returns: its return point is reachable code.
        if (inst.rd != 0)
            out.push_back(pc + 1);
        return;
      case Opcode::Jalr:
        // Unknown target; returns are discovered via the call site.
        return;
      default:
        break;
    }
    if (isCondBranch(inst.op)) {
        out.push_back(pc + 1 + static_cast<uint32_t>(inst.imm));
        out.push_back(pc + 1);
        return;
    }
    out.push_back(pc + 1);
}

Discovery
discover(const Program &prog, uint32_t entry,
         const std::vector<uint32_t> &extra_roots)
{
    Discovery d;
    d.leaders.insert(entry);
    std::deque<uint32_t> work{entry};
    for (uint32_t root : extra_roots) {
        d.leaders.insert(root);
        work.push_back(root);
    }
    std::vector<uint32_t> succs;
    while (!work.empty()) {
        uint32_t pc = work.front();
        work.pop_front();
        if (d.code.count(pc))
            continue;
        Instruction inst = decode(prog.word(pc));
        d.code.emplace(pc, inst);
        instSuccessors(pc, inst, succs);
        bool is_control = isControl(inst.op) ||
                          inst.op == Opcode::Halt ||
                          inst.op == Opcode::Illegal;
        for (uint32_t s : succs) {
            if (is_control)
                d.leaders.insert(s);
            if (!d.code.count(s))
                work.push_back(s);
        }
    }
    return d;
}

} // anonymous namespace

Cfg
Cfg::build(const Program &prog, uint32_t entry,
           const std::vector<uint32_t> &extra_roots)
{
    Cfg cfg;
    cfg.entry_ = entry;

    Discovery d = discover(prog, entry, extra_roots);

    // A leader is also needed where straight-line code flows into a
    // branch target from above.
    std::set<uint32_t> leaders = d.leaders;

    // Partition into blocks.
    for (uint32_t leader : leaders) {
        if (!d.code.count(leader))
            continue;   // target of a jump into unmapped memory
        BasicBlock bb;
        bb.start = leader;
        uint32_t pc = leader;
        while (true) {
            auto it = d.code.find(pc);
            if (it == d.code.end()) {
                // Ran off into undecoded memory: treat as fault.
                bb.term = TermKind::Fault;
                break;
            }
            const Instruction &inst = it->second;
            // A new leader (other than our own start) ends the block.
            if (pc != leader && leaders.count(pc)) {
                bb.term = TermKind::FallThrough;
                bb.fallthrough = pc;
                break;
            }
            bb.insts.push_back(inst);
            if (inst.op == Opcode::Halt) {
                bb.term = TermKind::Halt;
                break;
            }
            if (inst.op == Opcode::Illegal) {
                bb.term = TermKind::Fault;
                break;
            }
            if (inst.op == Opcode::Jal) {
                bb.term = TermKind::Jump;
                bb.takenTarget = pc + 1 +
                                 static_cast<uint32_t>(inst.imm);
                bb.isCall = inst.rd != 0;
                bb.fallthrough = pc + 1;
                break;
            }
            if (inst.op == Opcode::Jalr) {
                bb.term = TermKind::IndirectJump;
                break;
            }
            if (isCondBranch(inst.op)) {
                bb.term = TermKind::CondBranch;
                bb.takenTarget = pc + 1 +
                                 static_cast<uint32_t>(inst.imm);
                bb.fallthrough = pc + 1;
                break;
            }
            ++pc;
        }

        // Successor list.
        switch (bb.term) {
          case TermKind::FallThrough:
            bb.succs.push_back(bb.fallthrough);
            break;
          case TermKind::CondBranch:
            bb.succs.push_back(bb.takenTarget);
            if (bb.fallthrough != bb.takenTarget)
                bb.succs.push_back(bb.fallthrough);
            break;
          case TermKind::Jump:
            bb.succs.push_back(bb.takenTarget);
            // A call returns: include the return point as a successor
            // so loops spanning calls are detected and dataflow stays
            // conservative. (Control really flows via the callee's
            // jalr, but adding the edge only over-approximates.)
            if (bb.isCall)
                bb.succs.push_back(bb.fallthrough);
            break;
          case TermKind::IndirectJump:
          case TermKind::Halt:
          case TermKind::Fault:
            break;
        }
        cfg.blocks_.emplace(leader, std::move(bb));
    }

    // Predecessors.
    for (const auto &[start, bb] : cfg.blocks_) {
        for (uint32_t s : bb.succs) {
            if (cfg.blocks_.count(s))
                cfg.preds_[s].push_back(start);
        }
    }

    cfg.roots_.push_back(entry);
    for (uint32_t root : extra_roots) {
        if (root != entry && cfg.blocks_.count(root))
            cfg.roots_.push_back(root);
    }

    cfg.computeLoopHeaders();
    return cfg;
}

const std::vector<uint32_t> &
Cfg::preds(uint32_t start) const
{
    static const std::vector<uint32_t> empty;
    auto it = preds_.find(start);
    return it == preds_.end() ? empty : it->second;
}

void
Cfg::computeLoopHeaders()
{
    // Iterative DFS with an explicit on-stack marker.
    enum class Color : uint8_t { White, Grey, Black };
    std::map<uint32_t, Color> color;
    for (const auto &[start, bb] : blocks_)
        color[start] = Color::White;

    struct Frame
    {
        uint32_t block;
        size_t nextSucc;
    };
    std::vector<Frame> stack;
    if (!blocks_.count(entry_))
        return;
    stack.push_back({entry_, 0});
    color[entry_] = Color::Grey;

    while (!stack.empty()) {
        Frame &f = stack.back();
        const BasicBlock &bb = blocks_.at(f.block);
        if (f.nextSucc < bb.succs.size()) {
            uint32_t s = bb.succs[f.nextSucc++];
            auto it = color.find(s);
            if (it == color.end())
                continue;   // edge to a nonexistent block
            if (it->second == Color::Grey) {
                loop_headers_.insert(s);
            } else if (it->second == Color::White) {
                it->second = Color::Grey;
                stack.push_back({s, 0});
            }
        } else {
            color[f.block] = Color::Black;
            stack.pop_back();
        }
    }
}

size_t
Cfg::numInsts() const
{
    size_t n = 0;
    for (const auto &[start, bb] : blocks_)
        n += bb.insts.size();
    return n;
}

std::string
Cfg::toString() const
{
    static const char *term_names[] = {
        "fallthrough", "condbranch", "jump", "indirect", "halt",
        "fault",
    };
    std::string out;
    for (const auto &[start, bb] : blocks_) {
        out += strfmt("block 0x%x: %zu insts, term=%s", start,
                      bb.insts.size(),
                      term_names[static_cast<int>(bb.term)]);
        if (loop_headers_.count(start))
            out += " [loop header]";
        out += " ->";
        for (uint32_t s : bb.succs)
            out += strfmt(" 0x%x", s);
        out += '\n';
    }
    return out;
}

void
instDefUse(const Instruction &inst, RegMask &def, RegMask &use)
{
    def = 0;
    use = 0;
    uint8_t srcs[2];
    unsigned n = sourceRegs(inst, srcs);
    for (unsigned i = 0; i < n; ++i)
        use |= 1u << srcs[i];
    if (writesReg(inst))
        def |= 1u << inst.rd;
    // r0 is not a real register.
    def &= ~1u;
    use &= ~1u;
}

// computeLiveness(Cfg) lives in src/analysis/liveness.cc, on the
// shared dataflow solver.

} // namespace mssp
