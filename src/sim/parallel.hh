/**
 * @file
 * Host-parallel execution of independent simulation jobs.
 *
 * Every sweep driver in the repo — the fault campaigns, the
 * cross-validation harness, the fig_* evaluation tables, mssp-suite —
 * runs a set of *independent* jobs (one workload x config x seed
 * each). Simulations themselves are single-threaded and fully
 * deterministic, so the only parallelism worth having is across jobs,
 * and the only contract worth keeping is determinism: the merged
 * result of a parallel sweep must be byte-identical to the serial
 * sweep.
 *
 * Two pieces deliver that (DESIGN.md §10):
 *
 *  - forEachIndex(): the one fan-out. The whole job vector is known
 *    up front, so each of min(threads, n) fresh std::threads claims
 *    the next index from one shared atomic counter until none is
 *    left (or the next entry of a caller-given claim order); each
 *    job's exception lands in its own per-index slot. `threads <= 1`
 *    runs the same loop on the calling thread.
 *
 *  - runSharded(): executes a vector of result-returning closures and
 *    returns the results in canonical job order, whatever order they
 *    finished in. Every job runs; then the exception of the
 *    lowest-*indexed* throwing job is rethrown (deterministic). Sweeps
 *    that must report every failure use runSupervised() in
 *    sim/supervisor.hh instead. Jobs must not touch shared mutable
 *    state; everything they need is captured per-job, and per-run
 *    RNG seeds are preassigned from the job index (sim/rng.hh
 *    Rng::mix) so scheduling cannot leak into results.
 */

#ifndef MSSP_SIM_PARALLEL_HH
#define MSSP_SIM_PARALLEL_HH

#include <cstddef>
#include <exception>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

namespace mssp
{

/** Host threads to use when the user gives no --jobs flag: the
 *  hardware concurrency, clamped to at least 1 (the standard allows
 *  hardware_concurrency() == 0 when unknowable). */
unsigned defaultJobs();

/**
 * Call @p job(i) once for every i in [0, n) on min(@p threads, n)
 * host threads (the calling thread alone when that is <= 1) and
 * return, indexed like the jobs, the exception each one threw (null
 * for jobs that returned). Blocks until every job has finished.
 *
 * @p order, when not empty, is a permutation of [0, n): jobs are
 * claimed in that order (heaviest first, so the longest jobs do not
 * start in the last wave) instead of ascending. Only the schedule
 * changes; results stay indexed by job.
 */
std::vector<std::exception_ptr>
forEachIndex(unsigned threads, size_t n,
             const std::function<void(size_t)> &job,
             const std::vector<size_t> &order = {});

/**
 * Run @p work[i] for every i across @p jobs host threads and return
 * the results indexed exactly like @p work. If any job throws, the
 * lowest-indexed job's exception is rethrown once all have run.
 */
template <typename R>
std::vector<R>
runSharded(unsigned jobs, std::vector<std::function<R()>> work)
{
    std::vector<std::optional<R>> slots(work.size());
    std::vector<std::exception_ptr> errors = forEachIndex(
        jobs, work.size(),
        [&slots, &work](size_t i) { slots[i].emplace(work[i]()); });
    for (std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
    std::vector<R> results;
    results.reserve(slots.size());
    for (auto &slot : slots)
        results.push_back(std::move(*slot));
    return results;
}

} // namespace mssp

#endif // MSSP_SIM_PARALLEL_HH
