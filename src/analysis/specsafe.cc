#include "analysis/specsafe.hh"

#include <algorithm>
#include <map>

#include "arch/mmio.hh"
#include "sim/logging.hh"
#include "util/string_utils.hh"

namespace mssp::analysis
{

namespace
{

/** Classify one reachable load against the merged store set. */
LoadClassification
classifyLoad(const MemAccess &ld, const Program &merged,
             const AliasResult &al)
{
    LoadClassification c;
    c.pc = ld.pc;
    c.addr = ld.addr;

    if (!ld.addr.isConst()) {
        c.cls = LoadSpecClass::Risky;
        c.detail = strfmt("load address unproven: %s",
                          ld.addr.toString().c_str());
        for (const MemAccess &s : al.stores) {
            if (s.overlaps(ld.addr)) {
                c.storePc = s.pc;
                c.storeAddr = s.addr;
                c.detail += strfmt("; store at 0x%x (addr %s) "
                                   "overlaps the range",
                                   s.pc, s.addr.toString().c_str());
                break;
            }
        }
        return c;
    }

    uint32_t a = c.addr.cval();
    if (isMmio(a)) {
        c.cls = LoadSpecClass::Risky;
        c.detail = strfmt("device load from 0x%x (never invariant)",
                          a);
        return c;
    }

    // Region sharing is decided against *distilled* stores only: the
    // master never executes original code, so an aliasing original
    // store merely blocks the ProvablyInvariant proof (the merged
    // image — which the dynamic gate runs raw on SEQ — can write the
    // word), not region invariance.
    const MemAccess *shared = nullptr;
    const MemAccess *cross = nullptr;
    const MemAccess *origOnly = nullptr;
    for (const MemAccess &s : al.stores) {
        if (!s.mayTouch(a))
            continue;
        if (s.pc < DistilledCodeBase) {
            if (!origOnly)
                origOnly = &s;
            continue;
        }
        if (regionsIntersect(s.regions, ld.regions)) {
            shared = &s;
            break;
        }
        if (!cross)
            cross = &s;
    }

    if (shared) {
        c.cls = LoadSpecClass::Risky;
        c.storePc = shared->pc;
        c.storeAddr = shared->addr;
        c.detail = strfmt("store at 0x%x may write %s, overlapping "
                          "[0x%x] in a fork region the load shares",
                          shared->pc,
                          shared->addr.toString().c_str(), a);
    } else if (cross) {
        c.cls = LoadSpecClass::RegionInvariant;
        c.storePc = cross->pc;
        c.storeAddr = cross->addr;
        c.detail = strfmt("store at 0x%x may write %s, but only in "
                          "fork regions the load never executes in",
                          cross->pc, cross->addr.toString().c_str());
    } else if (origOnly) {
        c.cls = LoadSpecClass::RegionInvariant;
        c.storePc = origOnly->pc;
        c.storeAddr = origOnly->addr;
        c.detail = strfmt("only original code writes [0x%x] (store "
                          "at 0x%x); the distilled program never "
                          "does",
                          a, origOnly->pc);
    } else {
        c.cls = LoadSpecClass::ProvablyInvariant;
        c.detail = strfmt("no store in the merged image may write "
                          "[0x%x] = 0x%x",
                          a, merged.word(a));
    }
    return c;
}

} // anonymous namespace

std::vector<LoadClassification>
classifySpecLoads(const MergedImageAnalysis &mia)
{
    std::vector<LoadClassification> out;
    std::map<uint32_t, size_t> byPc;
    for (const MemAccess &ld : mia.al.loads) {
        if (ld.pc < DistilledCodeBase)
            continue;   // original-code loads are not classified
        byPc[ld.pc] = out.size();
        out.push_back(classifyLoad(ld, mia.merged, mia.al));
    }

    // Coverage: every static load in the distilled image gets a
    // class. A load outside the discovered (or abstractly reachable)
    // code has no abstract address state — conservatively Risky.
    for (const auto &[addr, word] : mia.dist.prog.image()) {
        Instruction inst = decode(word);
        if (!isLoad(inst.op) || byPc.count(addr))
            continue;
        LoadClassification c;
        c.pc = addr;
        c.addr = AbsVal::top();
        c.cls = LoadSpecClass::Risky;
        c.detail = "load is not abstractly reachable in the "
                   "distilled control flow; address state unknown";
        byPc[addr] = out.size();
        out.push_back(std::move(c));
    }

    std::sort(out.begin(), out.end(),
              [](const LoadClassification &x,
                 const LoadClassification &y) { return x.pc < y.pc; });
    return out;
}

SpecSafeReport
analyzeSpecSafe(const Program &orig, const DistilledProgram &dist)
{
    Cfg origCfg = Cfg::build(orig, orig.entry());
    AbsintResult origAi = analyzeProgram(orig, origCfg);
    SpecSafeReport rep;
    rep.loads = classifySpecLoads(
        MergedImageAnalysis(orig, origCfg, origAi, dist));

    auto addFinding = [&rep](LintCheck check, uint32_t pc,
                             std::string message) {
        Finding f;
        f.severity = Severity::Error;
        f.check = check;
        f.pc = pc;
        f.message = std::move(message);
        rep.lint.findings.push_back(std::move(f));
    };

    std::map<uint32_t, LoadSpecClass> recomputed;
    for (const LoadClassification &c : rep.loads)
        recomputed[c.pc] = c.cls;

    for (const auto &[pc, cls] : dist.loadClasses) {
        auto it = recomputed.find(pc);
        if (it == recomputed.end()) {
            addFinding(LintCheck::SpecSafeCoverage, pc,
                       strfmt("image classifies 0x%x as %s, but no "
                              "static load exists there (stale "
                              "metadata)",
                              pc, loadSpecClassName(cls)));
        } else if (it->second != cls) {
            addFinding(LintCheck::SpecSafeMismatch, pc,
                       strfmt("image claims %s for the load at 0x%x, "
                              "recomputation yields %s",
                              loadSpecClassName(cls), pc,
                              loadSpecClassName(it->second)));
        }
    }
    for (const LoadClassification &c : rep.loads) {
        if (!dist.loadClasses.count(c.pc)) {
            addFinding(LintCheck::SpecSafeCoverage, c.pc,
                       strfmt("static load at 0x%x carries no "
                              "persisted classification",
                              c.pc));
        }
    }
    return rep;
}

size_t
SpecSafeReport::provablyInvariant() const
{
    size_t n = 0;
    for (const LoadClassification &c : loads)
        n += c.cls == LoadSpecClass::ProvablyInvariant;
    return n;
}

size_t
SpecSafeReport::regionInvariant() const
{
    size_t n = 0;
    for (const LoadClassification &c : loads)
        n += c.cls == LoadSpecClass::RegionInvariant;
    return n;
}

size_t
SpecSafeReport::risky() const
{
    size_t n = 0;
    for (const LoadClassification &c : loads)
        n += c.cls == LoadSpecClass::Risky;
    return n;
}

std::string
SpecSafeReport::toText() const
{
    std::string out;
    for (const LoadClassification &c : loads) {
        out += strfmt("load pc=0x%x [%s] addr=%s: %s\n", c.pc,
                      loadSpecClassName(c.cls),
                      c.addr.toString().c_str(), c.detail.c_str());
    }
    out += strfmt("%zu load(s): %zu provably-invariant, %zu "
                  "region-invariant, %zu risky\n",
                  loads.size(), provablyInvariant(),
                  regionInvariant(), risky());
    return out;
}

std::string
SpecSafeReport::toJson(const std::string &workload) const
{
    std::string out = "{\"schema\": \"mssp-specsafe-v1\", ";
    if (workload.empty())
        out += "\"workload\": null, ";
    else
        out += strfmt("\"workload\": \"%s\", ", workload.c_str());
    out += strfmt("\"counts\": {\"loads\": %zu, "
                  "\"provablyInvariant\": %zu, "
                  "\"regionInvariant\": %zu, \"risky\": %zu}, ",
                  loads.size(), provablyInvariant(),
                  regionInvariant(), risky());
    out += "\"loads\": [";
    for (size_t i = 0; i < loads.size(); ++i) {
        const LoadClassification &c = loads[i];
        if (i)
            out += ", ";
        out += strfmt("{\"pc\": \"0x%x\", \"class\": \"%s\", "
                      "\"addr\": \"%s\", ",
                      c.pc, loadSpecClassName(c.cls),
                      jsonEscape(c.addr.toString()).c_str());
        if (c.storePc != UINT32_MAX) {
            out += strfmt("\"storePc\": \"0x%x\", \"storeAddr\": "
                          "\"%s\", ",
                          c.storePc,
                          jsonEscape(c.storeAddr.toString())
                              .c_str());
        } else {
            out += "\"storePc\": null, \"storeAddr\": null, ";
        }
        out += strfmt("\"detail\": \"%s\"}",
                      jsonEscape(c.detail).c_str());
    }
    // Embed the metadata-validation findings as the report's "lint"
    // object (its trailing newline dropped).
    std::string lj = lint.toJson();
    while (!lj.empty() && lj.back() == '\n')
        lj.pop_back();
    out += "], \"lint\": " + lj + "}\n";
    return out;
}

} // namespace mssp::analysis
