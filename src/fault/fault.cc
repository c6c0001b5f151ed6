#include "fault/fault.hh"

#include <algorithm>

#include "arch/cell.hh"
#include "sim/logging.hh"

namespace mssp
{

const char *
toString(FaultType t)
{
    switch (t) {
      case FaultType::None:              return "none";
      case FaultType::CheckpointCorrupt: return "checkpoint-corrupt";
      case FaultType::LiveInFlip:        return "livein-flip";
      case FaultType::MasterRegFlip:     return "master-reg-flip";
      case FaultType::MasterPcCorrupt:   return "master-pc";
      case FaultType::SpawnDelay:        return "spawn-delay";
      case FaultType::SpawnDrop:         return "spawn-drop";
      case FaultType::SlaveStall:        return "slave-stall";
      case FaultType::SlaveKill:         return "slave-kill";
      case FaultType::SpuriousSquash:    return "spurious-squash";
      case FaultType::ImagePatch:        return "image-patch";
    }
    return "?";
}

FaultType
faultTypeFromString(const std::string &name)
{
    for (FaultType t : allFaultTypes()) {
        if (name == toString(t))
            return t;
    }
    return FaultType::None;
}

const std::vector<FaultType> &
allFaultTypes()
{
    static const std::vector<FaultType> types = {
        FaultType::CheckpointCorrupt, FaultType::LiveInFlip,
        FaultType::MasterRegFlip,     FaultType::MasterPcCorrupt,
        FaultType::SpawnDelay,        FaultType::SpawnDrop,
        FaultType::SlaveStall,        FaultType::SlaveKill,
        FaultType::SpuriousSquash,    FaultType::ImagePatch,
    };
    return types;
}

std::string
FaultPlan::toString() const
{
    return strfmt("%s rate=%g seed=%llu target=%d",
                  mssp::toString(type), rate,
                  static_cast<unsigned long long>(seed), target);
}

uint64_t
FaultCounters::total() const
{
    uint64_t n = 0;
    for (uint64_t v : injected)
        n += v;
    return n;
}

FaultInjector::FaultInjector(uint64_t seed, std::vector<FaultPlan> plans)
    : rng_(seed)
{
    for (const FaultPlan &p : plans) {
        if (p.type == FaultType::None)
            continue;
        plans_[static_cast<size_t>(p.type)] = p;
    }
}

uint64_t
FaultInjector::missesBeforeHit(FaultType t)
{
    uint64_t pos = rng_.position();
    if (scan_type_ == t) {
        // Past the cached hit, the distance wraps to ~2^64.
        uint64_t d = Rng::drawsBetween(pos, scan_hit_);
        if (d >= 1 && d <= MaxHitScan + 1)
            return d - 1;
    }
    double rate = plans_[static_cast<size_t>(t)].rate;
    uint64_t k = 1;
    while (k <= MaxHitScan && !(Rng::unit(rng_.peek(k)) < rate))
        ++k;
    scan_type_ = t;
    scan_hit_ = pos + k * Rng::Gamma;
    return k - 1;
}

unsigned
FaultInjector::forkDrawBound() const
{
    // Per corruptCheckpoint below: CheckpointCorrupt takes its fire
    // draw, an insert-or-drop draw, then up to three more (cell kind,
    // cell, value); LiveInFlip its fire draw, a pick and a bit.
    return (armed(FaultType::CheckpointCorrupt) ? 5 : 0) +
           (armed(FaultType::LiveInFlip) ? 3 : 0) +
           (armed(FaultType::SpawnDrop) ? 1 : 0) +
           (armed(FaultType::SpawnDelay) ? 1 : 0);
}

void
FaultInjector::corruptCheckpoint(Checkpoint &ckpt)
{
    // Draw both checkpoint fault classes up front. LiveInFlip needs
    // an existing binding to flip, so its draw is gated on a non-empty
    // checkpoint (an injection that could not corrupt anything must
    // not count as fired). A drawn index picks a cell in cell-sorted
    // order, so the pick does not depend on how the checkpoint is
    // stored.
    bool corrupt = fire(FaultType::CheckpointCorrupt);
    bool flip = !ckpt.empty() && fire(FaultType::LiveInFlip);
    if (corrupt) {
        // 50/50: insert a bogus prediction, or drop a real one. A
        // dropped cell degrades to an architected read-through (the
        // prediction is *missing*, not wrong); an inserted cell is a
        // wrong prediction the verify unit must catch if consumed.
        if (ckpt.empty() || (rng_.next() & 1)) {
            CellId cell = (rng_.next() & 1)
                ? makeRegCell(1 + static_cast<unsigned>(
                      rng_.below(NumRegs - 1)))
                : makeMemCell(word() & ~0x3u);
            ckpt.set(cell, word());
        } else {
            ckpt.erase(ckpt.nth(rng_.below(ckpt.size())).first);
        }
    }
    if (flip) {
        if (ckpt.empty()) {
            // CheckpointCorrupt just dropped the last cell: nothing
            // left to flip; un-count the granted flip.
            --counters_.injected[static_cast<size_t>(
                FaultType::LiveInFlip)];
        } else {
            const auto [cell, value] = ckpt.nth(rng_.below(ckpt.size()));
            ckpt.set(cell, value ^ bit32());
        }
    }
}

Cycle
FaultInjector::onSlaveTick(int slave_id, bool *kill_task)
{
    *kill_task = false;
    if (targetsSlave(FaultType::SlaveKill, slave_id) &&
        fire(FaultType::SlaveKill)) {
        *kill_task = true;
        return 0;
    }
    if (targetsSlave(FaultType::SlaveStall, slave_id) &&
        fire(FaultType::SlaveStall)) {
        return plans_[static_cast<size_t>(FaultType::SlaveStall)]
            .stallCycles;
    }
    return 0;
}

void
FaultInjector::dump(std::ostream &os) const
{
    for (FaultType t : allFaultTypes()) {
        const FaultPlan &p = plans_[static_cast<size_t>(t)];
        if (p.rate <= 0.0)
            continue;
        os << strfmt("fault.%-22s %12llu  # injections (%s)\n",
                     toString(t),
                     static_cast<unsigned long long>(
                         counters_.count(t)),
                     p.toString().c_str());
    }
}

} // namespace mssp
