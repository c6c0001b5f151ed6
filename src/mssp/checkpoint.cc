#include "mssp/checkpoint.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace mssp
{

std::optional<uint32_t>
Checkpoint::getEdited(CellId cell) const
{
    if (const Edit *e = findEdit(cell))
        return e->present ? std::optional<uint32_t>(e->value) : std::nullopt;
    if (!journal_)
        return std::nullopt;
    return journal_->getAt(cell, epoch_);
}

void
Checkpoint::set(CellId cell, uint32_t value)
{
    if (!get(cell))
        ++cells_;
    if (cellKind(cell) == CellKind::Reg) {
        unsigned r = cellIndex(cell);
        MSSP_ASSERT(r < NumRegs);
        regs_[r] = value;
        dirty_regs_ |= 1u << r;
        return;
    }
    for (Edit &e : edits_) {
        if (e.cell == cell) {
            e = {cell, value, true};
            return;
        }
    }
    edits_.push_back({cell, value, true});
}

void
Checkpoint::erase(CellId cell)
{
    if (!get(cell))
        return;
    --cells_;
    if (cellKind(cell) == CellKind::Reg) {
        dirty_regs_ &= ~(1u << cellIndex(cell));
        return;
    }
    for (Edit &e : edits_) {
        if (e.cell == cell) {
            e.present = false;
            return;
        }
    }
    edits_.push_back({cell, 0, false});
}

std::vector<StateDelta::value_type>
Checkpoint::bindings() const
{
    std::vector<StateDelta::value_type> out;
    out.reserve(cells_);
    uint32_t dirty = dirty_regs_;
    while (dirty) {
        unsigned r = static_cast<unsigned>(__builtin_ctz(dirty));
        dirty &= dirty - 1;
        out.push_back({makeRegCell(r), regs_[r]});
    }
    if (journal_) {
        journal_->forEachAt(epoch_, [&](CellId cell, uint32_t value) {
            if (edits_.empty() || !findEdit(cell))
                out.push_back({cell, value});
        });
    }
    for (const Edit &e : edits_) {
        if (e.present)
            out.push_back({e.cell, e.value});
    }
    return out;
}

std::vector<StateDelta::value_type>
Checkpoint::flatten() const
{
    std::vector<StateDelta::value_type> out = bindings();
    std::sort(out.begin(), out.end());
    return out;
}

StateDelta::value_type
Checkpoint::nth(size_t k) const
{
    std::vector<StateDelta::value_type> out = bindings();
    auto it = out.begin() + static_cast<std::ptrdiff_t>(k);
    std::nth_element(out.begin(), it, out.end());
    return *it;
}

} // namespace mssp
