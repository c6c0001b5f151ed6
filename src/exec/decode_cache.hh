/**
 * @file
 * Page-granular predecode cache.
 *
 * Every machine in the system used to re-decode its instruction word
 * on every step (stepAt's decode(fetch(pc))). MSSP assumes programs
 * are not self-modifying — the ExecContext fetch contract — so a
 * program image decodes to the same Instruction stream forever, and
 * decoding is a pure function of the image. A DecodeCache exploits
 * that: it is keyed by one immutable code image and lazily fills
 * fixed-size pages of decoded Instructions the first time any PC on
 * the page is fetched. One cache per image is shared by everything
 * that executes it (the MSSP slaves and the sequential fallback share
 * the original image's cache; the master has one for the distilled
 * image; SEQ decodes from its own loaded memory).
 *
 * Words absent from the image decode exactly like zero words
 * (Opcode::Illegal), matching reads of unmapped memory, so the cached
 * path is bit-identical to the reference stepAt path — which remains
 * in place and is differential-tested against this cache over every
 * registry workload (tests/test_decode_cache.cpp).
 */

#ifndef MSSP_EXEC_DECODE_CACHE_HH
#define MSSP_EXEC_DECODE_CACHE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "arch/paged_mem.hh"
#include "asm/program.hh"
#include "isa/isa.hh"

namespace mssp
{

/** Lazily-filled cache of decoded instructions for one code image. */
class DecodeCache
{
  public:
    static constexpr unsigned PageBits = 8;
    static constexpr uint32_t PageWords = 1u << PageBits;
    static constexpr uint32_t OffsetMask = PageWords - 1;

    /** Decode from a Program image. @p prog must outlive the cache
     *  and never change (no self-modifying code — the fetch contract
     *  in exec/context.hh). */
    explicit DecodeCache(const Program &prog) : prog_(&prog) {}

    /** Decode from an already-loaded memory (SEQ's own ArchState
     *  memory). Code words in @p mem must be immutable — the same
     *  fetch contract. */
    explicit DecodeCache(const PagedMem &mem) : mem_(&mem) {}

    DecodeCache(const DecodeCache &) = delete;
    DecodeCache &operator=(const DecodeCache &) = delete;

    /**
     * The decoded instruction at @p pc. Identical to decoding the
     * fetched word; the page is decoded on first touch and a
     * one-entry MRU makes the common straight-line/loop case two
     * loads and a compare.
     */
    const Instruction &
    at(uint32_t pc)
    {
        uint32_t page_num = pc >> PageBits;
        if (page_num != mru_num_ || mru_ == nullptr)
            fillMru(page_num);
        return mru_->insts[pc & OffsetMask];
    }

    /** Number of resident decoded pages (tests/stats). */
    size_t numPages() const { return pages_.size(); }

    /**
     * Drop the decoded page containing @p pc. The one sanctioned use
     * is runtime patching of the *distilled* image (fault injection:
     * the master's private I-space is part of the untrusted
     * prediction surface); original-program images stay immutable
     * under the fetch contract.
     */
    void
    invalidate(uint32_t pc)
    {
        uint32_t page_num = pc >> PageBits;
        pages_.erase(page_num);
        if (mru_num_ == page_num)
            mru_ = nullptr;
        ++version_;
    }

    /**
     * Invalidation epoch: bumped by every invalidate(). Consumers
     * that derive state from decoded instructions (blockjit's
     * compiled superop blocks) compare this against their own
     * snapshot and flush when it moved — a patched instruction must
     * be re-decoded by *every* engine, not just this cache.
     */
    uint64_t version() const { return version_; }

  private:
    struct Page
    {
        // Default Instruction == decode(0) == Illegal: unmapped words
        // behave exactly like the reference path.
        std::array<Instruction, PageWords> insts{};
    };

    /** Look up (or decode) page @p page_num and make it the MRU. */
    void fillMru(uint32_t page_num);

    const Program *prog_ = nullptr;   // exactly one source is set
    const PagedMem *mem_ = nullptr;
    std::unordered_map<uint32_t, std::unique_ptr<Page>> pages_;
    uint32_t mru_num_ = 0;
    Page *mru_ = nullptr;
    uint64_t version_ = 0;
};

} // namespace mssp

#endif // MSSP_EXEC_DECODE_CACHE_HH
