#include "arch/state_delta.hh"

#include <algorithm>

namespace mssp
{

void
StateDelta::rehash(size_t new_cap)
{
    std::vector<value_type> old = std::move(slots_);
    slots_.assign(new_cap, {EmptyKey, 0});
    size_t mask = new_cap - 1;
    for (const auto &[cell, value] : old) {
        if (cell == EmptyKey)
            continue;
        size_t i = hashCell(cell) & mask;
        while (slots_[i].first != EmptyKey)
            i = (i + 1) & mask;
        slots_[i] = {cell, value};
    }
}

void
StateDelta::growAndInsert(CellId cell, uint32_t value)
{
    rehash(capacityFor(size_ + 1));
    // The key was absent (callers only grow on the insert path) and
    // the fresh table cannot need another grow.
    Cursor c = lookup(cell);
    slots_[c.index] = {cell, value};
    ++size_;
}

std::vector<StateDelta::value_type>
StateDelta::sorted() const
{
    std::vector<value_type> out(begin(), end());
    std::sort(out.begin(), out.end());
    return out;
}

std::string
StateDelta::toString() const
{
    std::string s;
    for (const auto &[cell, value] : sorted())
        s += strfmt("  %s = 0x%x\n", cellToString(cell).c_str(), value);
    return s;
}

} // namespace mssp
