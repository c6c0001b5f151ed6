#include "asm/objfile.hh"

#include "sim/logging.hh"
#include "util/string_utils.hh"

namespace mssp
{

namespace
{

const char *kProgramMagic = "mssp-object v1";
/** Format v2 extended `edit` lines with semantic metadata (value,
 *  region leader, live-out mask); v3 adds per-load speculation-
 *  safety classes (`specload` lines, analysis/specsafe.hh); v4 adds
 *  the ranked speculation plan (`specplan` lines,
 *  analysis/specplan.hh); v5 adds speculated-edit records
 *  (`specedit` lines, distill/speculate.cc), the feedback generation
 *  counter (`specgen`) and de-speculated load PCs (`specdrop`,
 *  eval/adapt.hh). Version mismatches in either direction are
 *  rejected loudly: a misparsed edit log would silently disable the
 *  semantic checks, and an image without load classes, a plan, or
 *  its speculated-edit records would fail the coverage gates in
 *  confusing ways. */
const char *kDistilledMagic = "mssp-distilled v5";
const char *kDistilledFamily = "mssp-distilled";

void
appendProgramBody(const Program &prog, std::string &out)
{
    out += strfmt("entry 0x%x\n", prog.entry());
    for (const auto &[addr, word] : prog.image())
        out += strfmt("word 0x%x 0x%x\n", addr, word);
    for (const auto &[name, value] : prog.symbols())
        out += strfmt("sym %s 0x%x\n", name.c_str(), value);
}

/** Shared line parser; dispatches unknown keys to @p extra. */
template <typename ExtraHandler>
void
parseLines(const std::string &text, const char *magic, Program &prog,
           ExtraHandler &&extra)
{
    auto lines = split(text, '\n');
    if (lines.empty() || trim(lines[0]) != magic) {
        std::string got =
            lines.empty() ? std::string() : std::string(trim(lines[0]));
        // A right-family, wrong-version header deserves a precise
        // message: the file is a distilled object, just not ours.
        if (startsWith(got, kDistilledFamily) &&
            startsWith(magic, kDistilledFamily)) {
            fatal("unsupported object format version: file says "
                  "'%s', this build reads '%s' (re-run mssp-distill "
                  "to regenerate the image)",
                  got.c_str(), magic);
        }
        fatal("bad object file: expected '%s' header", magic);
    }

    auto want_int = [](std::string_view tok, int line_no) {
        int64_t v;
        if (!parseInt(tok, v)) {
            fatal("object line %d: bad integer '%s'", line_no,
                  std::string(tok).c_str());
        }
        return static_cast<uint32_t>(v);
    };

    for (size_t i = 1; i < lines.size(); ++i) {
        auto toks = splitWs(lines[i]);
        if (toks.empty() || toks[0][0] == ';')
            continue;
        int line_no = static_cast<int>(i + 1);
        std::string_view key = toks[0];
        if (key == "entry" && toks.size() == 2) {
            prog.setEntry(want_int(toks[1], line_no));
        } else if (key == "word" && toks.size() == 3) {
            prog.setWord(want_int(toks[1], line_no),
                         want_int(toks[2], line_no));
        } else if (key == "sym" && toks.size() == 3) {
            prog.defineSymbol(std::string(toks[1]),
                              want_int(toks[2], line_no));
        } else if (!extra(toks, line_no, want_int)) {
            fatal("object line %d: unknown directive '%s'", line_no,
                  std::string(key).c_str());
        }
    }
}

} // anonymous namespace

std::string
saveProgram(const Program &prog)
{
    std::string out = std::string(kProgramMagic) + "\n";
    appendProgramBody(prog, out);
    return out;
}

Program
loadProgram(const std::string &text)
{
    Program prog;
    parseLines(text, kProgramMagic, prog,
               [](const auto &, int, auto &) { return false; });
    return prog;
}

std::string
saveDistilled(const DistilledProgram &dist)
{
    std::string out = std::string(kDistilledMagic) + "\n";
    appendProgramBody(dist.prog, out);
    for (size_t i = 0; i < dist.taskMap.size(); ++i) {
        uint32_t interval = i < dist.taskIntervals.size()
                                ? dist.taskIntervals[i]
                                : 1;
        out += strfmt("fork %zu 0x%x %u\n", i, dist.taskMap[i],
                      interval);
    }
    for (const auto &[orig, distilled] : dist.entryMap)
        out += strfmt("restart 0x%x 0x%x\n", orig, distilled);
    for (const auto &[orig, distilled] : dist.addrMap)
        out += strfmt("addr 0x%x 0x%x\n", orig, distilled);
    for (const auto &[orig, mask] : dist.checkpointRegs)
        out += strfmt("ckpt 0x%x 0x%x\n", orig, mask);
    for (const auto &[pc, cls] : dist.loadClasses) {
        out += strfmt("specload 0x%x %s\n", pc,
                      loadSpecClassName(cls));
    }
    // Plan lines persist in rank order — the order is part of the
    // contract mssp-lint --plan validates.
    for (const SpecPlanEntry &p : dist.specPlan) {
        out += strfmt("specplan 0x%x %s 0x%x %llu ", p.pc,
                      valueProofName(p.proof), p.value,
                      static_cast<unsigned long long>(
                          p.benefitMicro));
        for (size_t i = 0; i < p.feasible.size(); ++i)
            out += strfmt("%s0x%x", i ? "," : "", p.feasible[i]);
        out += "\n";
    }
    // Speculated-edit records, in bake order (plan rank order).
    for (const SpecEdit &e : dist.specEdits) {
        out += strfmt("specedit 0x%x 0x%x %u 0x%x %s 0x%x %llu ",
                      e.origPc, e.distPc, e.reg, e.addr,
                      valueProofName(e.proof), e.value,
                      static_cast<unsigned long long>(
                          e.benefitMicro));
        if (e.policedBy.empty()) {
            out += "-";
        } else {
            for (size_t i = 0; i < e.policedBy.size(); ++i)
                out += strfmt("%s0x%x", i ? "," : "", e.policedBy[i]);
        }
        out += "\n";
    }
    for (uint32_t pc : dist.specDropped)
        out += strfmt("specdrop 0x%x\n", pc);
    out += strfmt("specgen %u\n", dist.specGeneration);
    for (const DistillEdit &e : dist.report.edits) {
        out += strfmt("edit %s 0x%x %u %u 0x%x 0x%x 0x%x\n",
                      distillPassName(e.pass), e.origPc, e.reg,
                      e.hasValue ? 1 : 0, e.value, e.regionStart,
                      e.liveOut);
    }
    const DistillReport &r = dist.report;
    out += strfmt("report %zu %zu %llu %llu %llu %llu %llu %llu %llu "
                  "%zu\n",
                  r.origStaticInsts, r.distilledStaticInsts,
                  static_cast<unsigned long long>(r.branchesToJump),
                  static_cast<unsigned long long>(r.branchesToFall),
                  static_cast<unsigned long long>(r.blocksRemoved),
                  static_cast<unsigned long long>(r.constFolded),
                  static_cast<unsigned long long>(r.dceRemoved),
                  static_cast<unsigned long long>(r.storesElided),
                  static_cast<unsigned long long>(r.loadsValueSpeced),
                  r.forkSites);
    return out;
}

DistilledProgram
loadDistilled(const std::string &text)
{
    DistilledProgram dist;
    auto extra = [&](const auto &toks, int line_no,
                     auto &want_int) -> bool {
        std::string_view key = toks[0];
        if (key == "fork" && toks.size() == 4) {
            size_t idx = want_int(toks[1], line_no);
            // Bound the resize below: an untrusted index must not be
            // able to force a multi-gigabyte allocation.
            if (idx > kMaxForkIndex) {
                fatal("object line %d: fork index %zu exceeds cap %zu",
                      line_no, idx, kMaxForkIndex);
            }
            if (idx >= dist.taskMap.size()) {
                dist.taskMap.resize(idx + 1);
                dist.taskIntervals.resize(idx + 1, 1);
            }
            dist.taskMap[idx] = want_int(toks[2], line_no);
            dist.taskIntervals[idx] = want_int(toks[3], line_no);
            return true;
        }
        if (key == "restart" && toks.size() == 3) {
            dist.entryMap[want_int(toks[1], line_no)] =
                want_int(toks[2], line_no);
            return true;
        }
        if (key == "addr" && toks.size() == 3) {
            dist.addrMap[want_int(toks[1], line_no)] =
                want_int(toks[2], line_no);
            return true;
        }
        if (key == "ckpt" && toks.size() == 3) {
            dist.checkpointRegs[want_int(toks[1], line_no)] =
                want_int(toks[2], line_no);
            return true;
        }
        if (key == "specload" && toks.size() == 3) {
            LoadSpecClass cls;
            if (!loadSpecClassFromName(std::string(toks[2]), cls)) {
                fatal("object line %d: unknown load class '%s'",
                      line_no, std::string(toks[2]).c_str());
            }
            dist.loadClasses[want_int(toks[1], line_no)] = cls;
            return true;
        }
        if (key == "specplan" && toks.size() == 6) {
            SpecPlanEntry p;
            p.pc = want_int(toks[1], line_no);
            if (!valueProofFromName(std::string(toks[2]), p.proof)) {
                fatal("object line %d: unknown proof class '%s'",
                      line_no, std::string(toks[2]).c_str());
            }
            p.value = want_int(toks[3], line_no);
            int64_t micro;   // 64-bit: want_int truncates to uint32
            if (!parseInt(toks[4], micro) || micro < 0) {
                fatal("object line %d: bad benefit '%s'", line_no,
                      std::string(toks[4]).c_str());
            }
            p.benefitMicro = static_cast<uint64_t>(micro);
            for (std::string_view v : split(toks[5], ','))
                p.feasible.push_back(want_int(v, line_no));
            dist.specPlan.push_back(std::move(p));
            return true;
        }
        if (key == "specedit" && toks.size() == 9) {
            SpecEdit e;
            e.origPc = want_int(toks[1], line_no);
            e.distPc = want_int(toks[2], line_no);
            e.reg = static_cast<uint8_t>(want_int(toks[3], line_no));
            e.addr = want_int(toks[4], line_no);
            if (!valueProofFromName(std::string(toks[5]), e.proof)) {
                fatal("object line %d: unknown proof class '%s'",
                      line_no, std::string(toks[5]).c_str());
            }
            e.value = want_int(toks[6], line_no);
            int64_t micro;   // 64-bit: want_int truncates to uint32
            if (!parseInt(toks[7], micro) || micro < 0) {
                fatal("object line %d: bad benefit '%s'", line_no,
                      std::string(toks[7]).c_str());
            }
            e.benefitMicro = static_cast<uint64_t>(micro);
            if (toks[8] != "-") {
                for (std::string_view v : split(toks[8], ','))
                    e.policedBy.push_back(want_int(v, line_no));
            }
            dist.specEdits.push_back(std::move(e));
            return true;
        }
        if (key == "specdrop" && toks.size() == 2) {
            dist.specDropped.push_back(want_int(toks[1], line_no));
            return true;
        }
        if (key == "specgen" && toks.size() == 2) {
            dist.specGeneration = want_int(toks[1], line_no);
            return true;
        }
        if (key == "edit" && toks.size() == 8) {
            DistillEdit e;
            if (!distillPassFromName(std::string(toks[1]), e.pass)) {
                fatal("object line %d: unknown pass '%s'", line_no,
                      std::string(toks[1]).c_str());
            }
            e.origPc = want_int(toks[2], line_no);
            e.reg = static_cast<uint8_t>(want_int(toks[3], line_no));
            e.hasValue = want_int(toks[4], line_no) != 0;
            e.value = want_int(toks[5], line_no);
            e.regionStart = want_int(toks[6], line_no);
            e.liveOut = want_int(toks[7], line_no);
            dist.report.edits.push_back(e);
            return true;
        }
        if (key == "report" && toks.size() == 11) {
            DistillReport &r = dist.report;
            r.origStaticInsts = want_int(toks[1], line_no);
            r.distilledStaticInsts = want_int(toks[2], line_no);
            r.branchesToJump = want_int(toks[3], line_no);
            r.branchesToFall = want_int(toks[4], line_no);
            r.blocksRemoved = want_int(toks[5], line_no);
            r.constFolded = want_int(toks[6], line_no);
            r.dceRemoved = want_int(toks[7], line_no);
            r.storesElided = want_int(toks[8], line_no);
            r.loadsValueSpeced = want_int(toks[9], line_no);
            r.forkSites = want_int(toks[10], line_no);
            return true;
        }
        return false;
    };
    parseLines(text, kDistilledMagic, dist.prog, extra);
    return dist;
}

} // namespace mssp
