/**
 * @file
 * Quarantine for sharded sweeps: one throwing job must not abort the
 * sweep or hide the other failures.
 *
 * runSupervised() runs every job once on sim/parallel.hh's
 * forEachIndex and turns whatever a job throws into a message. A job
 * that throws is *quarantined*: it lands in a QuarantineReport with
 * its canonical index, label and message (reported with the fixed
 * status "job-failed"), and every healthy result still comes back in
 * canonical order.
 * Everything is keyed on job indices, so reports are byte-identical
 * for --jobs N vs --jobs 1.
 *
 * Nothing here bounds a job: every machine run carries its own
 * deterministic cycle or instruction cap.
 */

#ifndef MSSP_SIM_SUPERVISOR_HH
#define MSSP_SIM_SUPERVISOR_HH

#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/parallel.hh"

namespace mssp
{

/** One quarantined job: which one and why. Messages must be
 *  deterministic for deterministic inputs (no pointers, times or host
 *  state): the JSON reports embed them verbatim and CI byte-diffs
 *  them. */
struct QuarantineEntry
{
    size_t jobIndex = 0;
    std::string label;
    std::string message;   ///< the exception's what()
};

/** Every failed job of a sweep, in canonical job order. */
struct QuarantineReport
{
    std::vector<QuarantineEntry> entries;

    bool empty() const { return entries.empty(); }
    size_t size() const { return entries.size(); }

    /** Deterministic JSON array (embedded by the campaign and suite
     *  documents; docs/SCHEMAS.md). */
    std::string toJson() const;

    /** Human-readable lines, one per entry. */
    std::string summary() const;
};

/** Healthy results and the quarantine, both in canonical order. */
template <typename R>
struct SupervisedResult
{
    std::vector<R> healthy;
    QuarantineReport quarantine;
};

/** The exception's what() ("unknown exception" for a thrown
 *  non-std::exception). @p error must be non-null. */
std::string jobFailure(const std::exception_ptr &error);

/**
 * Run each of @p work once across @p jobs host threads
 * (forEachIndex). A job that throws is quarantined as jobFailure();
 * the others' results come back in job order.
 *
 * @p labels (optional) names jobs in the quarantine report
 * ("gzip/spawn-drop/0.2"); jobs without one get "job <index>".
 * @p order (optional) is forEachIndex's claim order.
 */
template <typename R>
SupervisedResult<R>
runSupervised(unsigned jobs, std::vector<std::function<R()>> work,
              const std::vector<std::string> &labels = {},
              const std::vector<size_t> &order = {})
{
    std::vector<std::optional<R>> slots(work.size());
    std::vector<std::exception_ptr> errors = forEachIndex(
        jobs, work.size(),
        [&slots, &work](size_t i) { slots[i].emplace(work[i]()); },
        order);

    SupervisedResult<R> result;
    result.healthy.reserve(slots.size());
    for (size_t i = 0; i < slots.size(); ++i) {
        if (!errors[i]) {
            result.healthy.push_back(std::move(*slots[i]));
            continue;
        }
        result.quarantine.entries.push_back(
            {i, i < labels.size() ? labels[i] : strfmt("job %zu", i),
             jobFailure(errors[i])});
    }
    return result;
}

} // namespace mssp

#endif // MSSP_SIM_SUPERVISOR_HH
