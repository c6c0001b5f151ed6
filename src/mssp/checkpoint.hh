/**
 * @file
 * The master's versioned write journal and the fork checkpoints that
 * share it.
 *
 * A fork checkpoint is the master's write diff at the fork: the
 * live-ins it predicts for the new task. Copying the whole diff at
 * every fork would cost O(write buffer) per task, yet a task reads only
 * a handful of its cells. Instead the master keeps its buffered memory
 * writes in a WriteJournal, versioned by fork epoch, and a Checkpoint
 * is a view of that journal as of one epoch plus a copy of the dirty
 * registers: O(1) to take, whatever the size of the write buffer.
 *
 * Epoch invariant: every epoch handed to a checkpoint is closed. The
 * master writes only in the open epoch, which is newer than all of
 * them, so what a checkpoint sees never changes. Writes that would
 * change an older view (dropping cells, restarting) start a fresh
 * journal instead; the old one stays alive, frozen, for as long as a
 * checkpoint refers to it.
 */

#ifndef MSSP_MSSP_CHECKPOINT_HH
#define MSSP_MSSP_CHECKPOINT_HH

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "arch/cell.hh"
#include "arch/state_delta.hh"
#include "isa/isa.hh"

namespace mssp
{

/**
 * Append-only log of (cell, value, epoch) versions plus a cell ->
 * newest-version index. A write in the open epoch overwrites that
 * epoch's version in place; the first write to a cell in a new epoch
 * appends a version linked to the previous one.
 */
class WriteJournal
{
  public:
    /** The newest value of @p cell (the master's read). */
    std::optional<uint32_t>
    get(CellId cell) const
    {
        StateDelta::Cursor c = index_.lookup(cell);
        if (!c.found)
            return std::nullopt;
        return log_[index_.valueAt(c)].value;
    }

    /** The value of @p cell as of the end of epoch @p epoch. */
    std::optional<uint32_t>
    getAt(CellId cell, uint32_t epoch) const
    {
        StateDelta::Cursor c = index_.lookup(cell);
        if (!c.found)
            return std::nullopt;
        for (uint32_t i = index_.valueAt(c); i != NoEntry;
             i = log_[i].prev) {
            if (log_[i].epoch <= epoch)
                return log_[i].value;
        }
        return std::nullopt;
    }

    /** Bind @p cell to @p value in the open epoch. */
    void
    write(CellId cell, uint32_t value)
    {
        StateDelta::Cursor c = index_.lookup(cell);
        uint32_t prev = NoEntry;
        if (c.found) {
            prev = index_.valueAt(c);
            Entry &newest = log_[prev];
            // Epoch invariant: a version of a sealed epoch (all older
            // than the open one) is never written again.
            assert(newest.epoch <= epoch_);
            if (newest.epoch == epoch_) {
                newest.value = value;
                return;
            }
        }
        index_.insertAt(c, cell, static_cast<uint32_t>(log_.size()));
        log_.push_back({cell, value, epoch_, prev});
    }

    /** Close the open epoch for a checkpoint; later writes go to the
     *  next one. @return the closed epoch. */
    uint32_t
    seal()
    {
        // A wrapped epoch would reopen sealed ones.
        assert(epoch_ != UINT32_MAX);
        return epoch_++;
    }

    /** Cells with a binding (the master's write-buffer size). */
    size_t cells() const { return index_.size(); }
    /** Versions in the log (>= cells()). */
    size_t versions() const { return log_.size(); }

    /** Call @p fn(cell, newest value) for every bound cell. */
    template <class Fn>
    void
    forEachNewest(Fn &&fn) const
    {
        for (const auto &[cell, entry] : index_)
            fn(cell, log_[entry].value);
    }

    /** Call @p fn(cell, value) for every cell bound as of the end of
     *  epoch @p epoch. */
    template <class Fn>
    void
    forEachAt(uint32_t epoch, Fn &&fn) const
    {
        for (const auto &[cell, entry] : index_) {
            for (uint32_t i = entry; i != NoEntry; i = log_[i].prev) {
                if (log_[i].epoch <= epoch) {
                    fn(cell, log_[i].value);
                    break;
                }
            }
        }
    }

    /** Pre-size for @p n cells and @p versions versions. */
    void
    reserve(size_t n, size_t versions)
    {
        index_.reserve(n);
        log_.reserve(versions);
    }

    /** Drop every version (capacity is kept for reuse). */
    void
    clear()
    {
        index_.clear();
        log_.clear();
        epoch_ = 0;
    }

  private:
    static constexpr uint32_t NoEntry = UINT32_MAX;

    struct Entry
    {
        CellId cell;
        uint32_t value;
        uint32_t epoch;   ///< the fork epoch that wrote this version
        uint32_t prev;    ///< the cell's previous version, or NoEntry
    };

    std::vector<Entry> log_;
    /** cell -> index of its newest version in log_. */
    StateDelta index_;
    /** The open epoch, the only one writes may touch; every sealed
     *  epoch is older. */
    uint32_t epoch_ = 0;
};

/**
 * A fork checkpoint: the master's predicted live-ins for one task.
 * Memory cells are a view of a shared WriteJournal as of one epoch;
 * dirty registers are copied (a 128-byte array and a mask). A copy is
 * O(1), and set()/erase() edit only the copy: register edits go to its
 * register array, memory edits to a short private list consulted
 * before the journal (fault injection makes at most two per fork).
 */
class Checkpoint
{
  public:
    /** The empty checkpoint: every read goes to architected state. */
    Checkpoint() = default;

    /** The predicted value of @p cell, if the checkpoint holds one. */
    std::optional<uint32_t>
    get(CellId cell) const
    {
        if (cellKind(cell) == CellKind::Reg)
            return getReg(cellIndex(cell));
        if (__builtin_expect(!edits_.empty(), 0))
            return getEdited(cell);
        if (!journal_)
            return std::nullopt;
        return journal_->getAt(cell, epoch_);
    }

    /** The predicted value of register @p r, if the checkpoint holds
     *  one. */
    std::optional<uint32_t>
    getReg(unsigned r) const
    {
        if (r < NumRegs && (dirty_regs_ >> r & 1u))
            return regs_[r];
        return std::nullopt;
    }

    /** Bind @p cell to @p value in this checkpoint only. */
    void set(CellId cell, uint32_t value);

    /** Remove any binding of @p cell from this checkpoint only. */
    void erase(CellId cell);

    /** Cells held (the checkpointCells stat). */
    size_t size() const { return cells_; }
    bool empty() const { return cells_ == 0; }

    /** Every binding, sorted by cell (tests). */
    std::vector<StateDelta::value_type> flatten() const;

    /** The binding at index @p k (< size()) of the cell-sorted order
     *  flatten() returns, found in O(size()) without sorting (the
     *  fault injector's draws pick cells by that index). */
    StateDelta::value_type nth(size_t k) const;

    /** The journal this checkpoint views (identity tests). */
    const WriteJournal *journal() const { return journal_.get(); }

  private:
    friend class MasterCore;

    /** A memory cell bound (or removed, !present) by set()/erase(). */
    struct Edit
    {
        CellId cell;
        uint32_t value;
        bool present;
    };

    const Edit *
    findEdit(CellId cell) const
    {
        for (const Edit &e : edits_) {
            if (e.cell == cell)
                return &e;
        }
        return nullptr;
    }

    /** get() of a memory cell when edits exist (kept out of line:
     *  only fault-injected checkpoints have any). */
    std::optional<uint32_t> getEdited(CellId cell) const;

    /** Every binding, in no particular order. */
    std::vector<StateDelta::value_type> bindings() const;

    std::shared_ptr<const WriteJournal> journal_;
    uint32_t epoch_ = 0;
    uint32_t dirty_regs_ = 0;
    std::array<uint32_t, NumRegs> regs_{};
    size_t cells_ = 0;
    /** Memory-cell edits; they override the journal view. */
    std::vector<Edit> edits_;
};

} // namespace mssp

#endif // MSSP_MSSP_CHECKPOINT_HH
