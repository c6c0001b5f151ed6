/**
 * @file
 * Sparse machine-state fragments.
 *
 * A StateDelta is a partial machine state: a finite map from storage
 * cells to values. It implements the formal model's state algebra:
 *
 *  - superimposition S0 ← S1 ("overwrite S0 with S1"), which is
 *    associative;
 *  - consistency S1 ⊑ S2 ("every cell of S1 exists in S2 with the
 *    same value");
 *  - idempotency: S2 ⊑ S1 implies S1 ← S2 = S1.
 *
 * These laws are property-tested in tests/test_formal_properties.cpp,
 * and the map implementation is model-checked against a reference
 * std::unordered_map in tests/test_state.cpp.
 * StateDeltas serve as a task's memory live-in and live-out sets
 * (registers live in the task's register file, mssp/task.hh) and the
 * index of the master's write journal (mssp/checkpoint.hh) — every slave
 * memory access probes one, so the storage
 * is an open-addressing flat hash map (power-of-two capacity, linear
 * probing): one contiguous allocation, no per-node indirection, and
 * a find-then-insert cursor that lets live-in capture probe once
 * instead of twice. Like the algebra it implements, it has no
 * deletion: bindings only accumulate until clear().
 */

#ifndef MSSP_ARCH_STATE_DELTA_HH
#define MSSP_ARCH_STATE_DELTA_HH

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "arch/cell.hh"

namespace mssp
{

/** A sparse, partial machine state (finite map cell -> value). */
class StateDelta
{
  public:
    using value_type = std::pair<CellId, uint32_t>;

    StateDelta() = default;

    /**
     * Result of a single hash probe, usable as an insert position.
     * Valid until the next mutation of this delta.
     */
    struct Cursor
    {
        size_t index = SIZE_MAX;
        bool found = false;
    };

    /**
     * Probe for @p cell: one scan that serves both lookup and a
     * subsequent insertAt (the slave's live-in capture does
     * lookup -> read-through -> insertAt, one probe total).
     */
    Cursor
    lookup(CellId cell) const
    {
        if (slots_.empty())
            return Cursor{};
        size_t mask = slots_.size() - 1;
        for (size_t i = hashCell(cell) & mask;; i = (i + 1) & mask) {
            CellId k = slots_[i].first;
            if (k == cell)
                return Cursor{i, true};
            if (k == EmptyKey)
                return Cursor{i, false};
        }
    }

    /** Value at a found cursor. */
    uint32_t valueAt(Cursor c) const { return slots_[c.index].second; }

    /**
     * Bind @p cell at a cursor obtained from lookup(cell) with no
     * intervening mutation: overwrites when found, inserts otherwise
     * without re-probing (unless the table must grow).
     */
    void
    insertAt(Cursor c, CellId cell, uint32_t value)
    {
        if (c.found) {
            slots_[c.index].second = value;
            return;
        }
        if (c.index == SIZE_MAX || mustGrow()) {
            growAndInsert(cell, value);
            return;
        }
        slots_[c.index] = {cell, value};
        ++size_;
    }

    /** Bind @p cell to @p value, overwriting any previous binding. */
    void set(CellId cell, uint32_t value)
    {
        insertAt(lookup(cell), cell, value);
    }

    /** @return the bound value, if any. */
    std::optional<uint32_t>
    get(CellId cell) const
    {
        Cursor c = lookup(cell);
        if (!c.found)
            return std::nullopt;
        return slots_[c.index].second;
    }

    bool contains(CellId cell) const { return lookup(cell).found; }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Drop all bindings (capacity is kept for reuse). */
    void
    clear()
    {
        for (auto &slot : slots_)
            slot.first = EmptyKey;
        size_ = 0;
    }

    /** Pre-size for @p n bindings. */
    void
    reserve(size_t n)
    {
        size_t needed = capacityFor(n);
        if (needed > slots_.size())
            rehash(needed);
    }

    /** Forward iterator over the (cell, value) bindings. */
    class const_iterator
    {
      public:
        using value_type = StateDelta::value_type;
        using reference = const value_type &;
        using pointer = const value_type *;
        using difference_type = std::ptrdiff_t;
        using iterator_category = std::forward_iterator_tag;

        const_iterator() = default;

        const_iterator(const value_type *p, const value_type *end)
            : p_(p), end_(end)
        {
            skipDead();
        }

        const value_type &operator*() const { return *p_; }
        const value_type *operator->() const { return p_; }

        const_iterator &
        operator++()
        {
            ++p_;
            skipDead();
            return *this;
        }

        const_iterator
        operator++(int)
        {
            const_iterator old = *this;
            ++*this;
            return old;
        }

        bool
        operator==(const const_iterator &o) const
        {
            return p_ == o.p_;
        }

      private:
        void
        skipDead()
        {
            while (p_ != end_ && p_->first == EmptyKey)
                ++p_;
        }

        const value_type *p_ = nullptr;
        const value_type *end_ = nullptr;
    };

    const_iterator
    begin() const
    {
        const value_type *data = slots_.data();
        return {data, data + slots_.size()};
    }
    const_iterator
    end() const
    {
        const value_type *data = slots_.data();
        return {data + slots_.size(), data + slots_.size()};
    }

    /**
     * Superimpose @p other onto this state: this ← other.
     * Cells of @p other overwrite; cells only in this survive.
     */
    void
    superimpose(const StateDelta &other)
    {
        for (const auto &[cell, value] : other)
            set(cell, value);
    }

    /** Functional form of superimposition: returns a ← b. */
    static StateDelta
    superimposed(const StateDelta &a, const StateDelta &b)
    {
        StateDelta out = a;
        out.superimpose(b);
        return out;
    }

    /**
     * Consistency test (the formal model's ⊑): true iff every binding
     * of this state exists, with equal value, in @p other.
     */
    bool
    consistentWith(const StateDelta &other) const
    {
        for (const auto &[cell, value] : *this) {
            Cursor c = other.lookup(cell);
            if (!c.found || other.valueAt(c) != value)
                return false;
        }
        return true;
    }

    bool
    operator==(const StateDelta &other) const
    {
        return size_ == other.size_ && consistentWith(other);
    }

    /** Deterministically ordered (cell, value) list, for tests/dumps. */
    std::vector<value_type> sorted() const;

    /** Multi-line human-readable dump. */
    std::string toString() const;

  private:
    // Sentinel outside the CellId value space (kinds stop at bit 33).
    static constexpr CellId EmptyKey = ~CellId{0};
    static constexpr size_t MinCapacity = 16;

    static size_t
    hashCell(CellId k)
    {
        // Fibonacci-style multiplicative mix; CellIds differ in low
        // bits (index) and bits 32+ (kind), both of which diffuse.
        uint64_t x = (k + 1) * 0x9E3779B97F4A7C15ull;
        return static_cast<size_t>(x ^ (x >> 32));
    }

    /** Smallest power-of-two capacity holding @p n below 2/3 load. */
    static size_t
    capacityFor(size_t n)
    {
        size_t cap = MinCapacity;
        while (n + (n >> 1) >= cap)
            cap <<= 1;
        return cap;
    }

    bool
    mustGrow() const
    {
        return slots_.empty() || (size_ + 1) * 4 > slots_.size() * 3;
    }

    void rehash(size_t new_cap);
    void growAndInsert(CellId cell, uint32_t value);

    std::vector<value_type> slots_;   ///< pow-2 sized; EmptyKey = free
    size_t size_ = 0;        ///< bindings
};

} // namespace mssp

#endif // MSSP_ARCH_STATE_DELTA_HH
