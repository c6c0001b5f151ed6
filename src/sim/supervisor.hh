/**
 * @file
 * Quarantine for sharded sweeps: one throwing job must not abort the
 * sweep or hide the other failures.
 *
 * runSupervised() runs every job once on sim/parallel.hh's runSharded
 * and catches whatever a job throws into a structured Status. A job
 * that throws is *quarantined*: it lands in a QuarantineReport with
 * its canonical index, label and status, and every healthy result
 * still comes back in canonical order. Everything is keyed on job
 * indices, so reports are byte-identical for --jobs N vs --jobs 1.
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

#include "sim/parallel.hh"
#include "sim/status.hh"

namespace mssp
{

/** One quarantined job: which one and why. */
struct QuarantineEntry
{
    size_t jobIndex = 0;
    std::string label;
    Status status;
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

/**
 * Run each of @p work once across @p jobs host threads (runSharded:
 * `jobs <= 1` is the exact serial path). A job that throws is
 * quarantined with its StatusError's status, or JobFailed and the
 * exception text; the others' results come back in job order.
 *
 * @p labels (optional) names jobs in the quarantine report
 * ("gzip/spawn-drop/0.2"); jobs without one get "job <index>".
 */
template <typename R>
SupervisedResult<R>
runSupervised(unsigned jobs, std::vector<std::function<R()>> work,
              const std::vector<std::string> &labels = {})
{
    struct Outcome
    {
        std::optional<R> value;
        Status status;
    };
    std::vector<std::function<Outcome()>> guarded;
    guarded.reserve(work.size());
    for (size_t i = 0; i < work.size(); ++i) {
        guarded.push_back([&work, i] {
            Outcome out;
            try {
                out.value.emplace(work[i]());
            } catch (const StatusError &e) {
                out.status = e.status();
            } catch (const std::exception &e) {
                out.status = Status(StatusCode::JobFailed, e.what());
            } catch (...) {
                out.status =
                    Status(StatusCode::JobFailed, "unknown exception");
            }
            return out;
        });
    }
    std::vector<Outcome> outcomes =
        runSharded<Outcome>(jobs, std::move(guarded));

    SupervisedResult<R> result;
    result.healthy.reserve(outcomes.size());
    for (size_t i = 0; i < outcomes.size(); ++i) {
        if (outcomes[i].value) {
            result.healthy.push_back(std::move(*outcomes[i].value));
            continue;
        }
        result.quarantine.entries.push_back(
            {i, i < labels.size() ? labels[i] : strfmt("job %zu", i),
             std::move(outcomes[i].status)});
    }
    return result;
}

} // namespace mssp

#endif // MSSP_SIM_SUPERVISOR_HH
