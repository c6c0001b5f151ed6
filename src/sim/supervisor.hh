/**
 * @file
 * Job supervision: budgets, cooperative cancellation, retry with
 * deterministic backoff, and N-strikes quarantine for sharded sweeps.
 *
 * The repo's execution paths (SeqMachine, MsspMachine, and every
 * sweep built on sim/parallel.hh) are all pure compute loops; nothing
 * bounds them but their own cycle caps, and one throwing job used to
 * abort a whole sweep. This header makes any job boundable and
 * cancellable without killing the process (the prerequisite for the
 * ROADMAP item-5 server loop):
 *
 *  - CancelToken / JobBudget / Supervision: an armed budget (wall
 *    clock + executed-instruction cap + retired-work cap) plus a
 *    cooperative cancel flag. Machines poll the *thread-local current
 *    supervision* (SupervisionScope) at architecturally consistent
 *    boundaries — SeqMachine between bounded engine slices,
 *    MsspMachine every 1024 machine cycles — and throw
 *    StatusError on a trip. Because the poll sites are consistent
 *    points, a cancelled machine is state-clean: it can be inspected
 *    or resumed. With no scope installed the machines pay one
 *    pointer test per run() call — nothing on the per-instruction
 *    path (the BM_SeqInterpreter gate enforces this).
 *
 *  - runSupervised(): runSharded's hardened sibling. Each job gets
 *    fresh per-attempt supervision, up to RetryPolicy::maxAttempts
 *    tries with exponential backoff and deterministic jitter
 *    (sim/rng.hh Rng::mix keyed on (seed, job, attempt) — never on
 *    time or scheduling), and a job that exhausts its attempts is
 *    *quarantined*: its structured Status lands in a QuarantineReport
 *    and every healthy result is still returned. All failures are
 *    surfaced, not just the lowest-indexed one. Everything is keyed
 *    on canonical job indices, so reports are byte-identical for
 *    --jobs N vs --jobs 1.
 *
 *  - JobChaosHook: the seam where fault/hostchaos.hh injects
 *    deterministic worker stalls, job exceptions, and spurious
 *    cancellations into the pool-execution surface (docs/FAULTS.md).
 */

#ifndef MSSP_SIM_SUPERVISOR_HH
#define MSSP_SIM_SUPERVISOR_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "sim/parallel.hh"
#include "sim/status.hh"

namespace mssp
{

/** Cooperative cancellation flag. cancel() may be called from any
 *  thread; the running job observes it at its next supervision poll
 *  and stops with StatusCode::Cancelled. */
class CancelToken
{
  public:
    void cancel() { cancelled_.store(true, std::memory_order_release); }
    bool
    cancelled() const
    {
        return cancelled_.load(std::memory_order_acquire);
    }
    /** Re-arm after a cooperative stop (tests resume machines). */
    void reset() { cancelled_.store(false, std::memory_order_release); }

  private:
    std::atomic<bool> cancelled_{false};
};

/** Per-attempt resource budget. 0 = unlimited for every field. */
struct JobBudget
{
    /** Wall-clock deadline, armed when the Supervision is built.
     *  Inherently host-timing dependent: quarantine decisions made on
     *  wall deadlines are *not* part of the byte-determinism
     *  contract (the instruction caps are). */
    uint64_t timeoutMs = 0;
    /** Cap on executed instructions (attempts included), summed over
     *  every machine the job runs. Deterministic. */
    uint64_t maxInsts = 0;
    /** Cap on retired/committed work (SEQ: == executed; MSSP:
     *  architected instret). Deterministic. */
    uint64_t maxCommits = 0;

    bool
    active() const
    {
        return timeoutMs != 0 || maxInsts != 0 || maxCommits != 0;
    }
};

/** JobBudget with MSSP_JOB_TIMEOUT_MS / MSSP_JOB_MAX_INSTS applied on
 *  top of @p base (flags override env; env overrides nothing). */
JobBudget budgetFromEnv(JobBudget base = {});

/**
 * One armed budget + cancel flag. Built per job attempt (the wall
 * deadline arms at construction), installed via SupervisionScope,
 * polled by the machines. The first trip is sticky: once a budget
 * trips, every later poll reports the same status, so nested run
 * loops unwind coherently.
 */
class Supervision
{
  public:
    explicit Supervision(const JobBudget &budget,
                         CancelToken *cancel = nullptr);

    /** Poll cancel + wall deadline (and any sticky trip). */
    Status check();

    /** check(), throwing StatusError on a trip. */
    void checkOrThrow();

    /**
     * Account @p executed attempted instructions and @p committed
     * retired ones, then throw StatusError if a cap is now exceeded
     * (strictly: a job that finishes exactly on budget passes).
     * Callers that can clamp their slice to instsRemaining() — the
     * SeqMachine chunk loop — enforce the cap exactly and never trip
     * here; the MSSP machine trips post-hoc at poll granularity.
     */
    void consume(uint64_t executed, uint64_t committed);

    /** Instructions left under maxInsts (UINT64_MAX = uncapped). */
    uint64_t instsRemaining() const;

    /** Record an instruction-cap trip and throw (the chunk loop calls
     *  this when instsRemaining() hits zero with work left). */
    [[noreturn]] void tripInstLimit();

    bool tripped() const;
    /** The sticky trip as a Status (Ok when never tripped). */
    Status status() const;

    uint64_t
    executed() const
    {
        return executed_.load(std::memory_order_relaxed);
    }
    uint64_t
    committed() const
    {
        return committed_.load(std::memory_order_relaxed);
    }

  private:
    [[noreturn]] void trip(StatusCode code);

    JobBudget budget_;
    CancelToken *cancel_;
    std::chrono::steady_clock::time_point deadline_{};
    bool has_deadline_ = false;
    std::atomic<uint64_t> executed_{0};
    std::atomic<uint64_t> committed_{0};
    /** Sticky first trip (codes carry fixed messages, so the code
     *  alone reconstructs the Status deterministically). */
    std::atomic<StatusCode> trip_{StatusCode::Ok};
};

/** The supervision governing the calling thread (nullptr = none).
 *  SeqMachine::run and MsspMachine::run poll this, which is how a
 *  per-job budget reaches every machine a job constructs — profiler,
 *  oracle, crossval replays — without threading a parameter through
 *  the whole pipeline. */
Supervision *currentSupervision();

/** RAII installer for currentSupervision() (saves and restores, so
 *  scopes nest). */
class SupervisionScope
{
  public:
    explicit SupervisionScope(Supervision *sup);
    ~SupervisionScope();

    SupervisionScope(const SupervisionScope &) = delete;
    SupervisionScope &operator=(const SupervisionScope &) = delete;

  private:
    Supervision *prev_;
};

/** Retry shape for one sweep: N strikes, exponential backoff. */
struct RetryPolicy
{
    /** Total attempts per job before quarantine (1 = no retry). */
    unsigned maxAttempts = 1;
    /** Backoff before attempt k (k >= 2):
     *  base = min(backoffMaxUs, backoffBaseUs << (k - 2)), jittered
     *  deterministically into [base/2, base). */
    uint64_t backoffBaseUs = 500;
    uint64_t backoffMaxUs = 50000;
};

/** The deterministic backoff delay before attempt @p attempt (>= 2)
 *  of job @p job: exponential in the attempt, jitter from
 *  Rng::mix(seed, ...) — a pure function, asserted reproducible in
 *  tests/test_supervisor.cpp. */
uint64_t retryDelayUs(const RetryPolicy &policy, uint64_t seed,
                      size_t job, unsigned attempt);

/** Chaos seam: fault/hostchaos.hh implements this to perturb the
 *  pool-execution surface deterministically. */
class JobChaosHook
{
  public:
    virtual ~JobChaosHook() = default;

    /** Before the attempt's work runs on the worker thread: may stall
     *  the worker and/or pre-cancel the attempt's token. */
    virtual void onAttemptStart(size_t job, unsigned attempt,
                                CancelToken &cancel) = 0;

    /** First statement inside the supervised try-block: may throw an
     *  injected exception. */
    virtual void onAttemptBody(size_t job, unsigned attempt) = 0;
};

/** How runSupervised runs a batch. */
struct SupervisorOptions
{
    RetryPolicy retry;
    /** Per-attempt budget applied to every job (0s = unbounded). */
    JobBudget budget;
    /** Stream seed for backoff jitter (and nothing else). */
    uint64_t seed = 1;
    /** Optional host-chaos injector (non-owning). */
    JobChaosHook *chaos = nullptr;
};

/** One quarantined job: which, after how many strikes, and why. */
struct QuarantineEntry
{
    size_t jobIndex = 0;
    std::string label;
    unsigned attempts = 0;
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

/** What a supervised job handed back (exactly one of value/status). */
template <typename R>
struct JobOutcome
{
    std::optional<R> value;
    Status status;           ///< Ok iff value is set
    unsigned attempts = 0;   ///< attempts consumed (>= 1)

    bool ok() const { return status.ok(); }
};

/** Healthy results plus the quarantine, both in canonical order. */
template <typename R>
struct SupervisedResult
{
    std::vector<JobOutcome<R>> outcomes;
    QuarantineReport quarantine;
};

/** What a job body may inspect about its own supervision. */
struct JobContext
{
    size_t index = 0;        ///< canonical job index
    unsigned attempt = 1;    ///< 1-based attempt number
    CancelToken *cancel = nullptr;
    Supervision *supervision = nullptr;
};

/** Minimal JSON string escaping (quotes, backslashes, control
 *  bytes) for the deterministic reports. */
std::string jsonEscape(const std::string &s);

namespace detail
{

/** One job's full retry loop (runs on a worker thread). Never lets an
 *  exception escape: every outcome becomes a structured Status. */
template <typename R>
void
superviseJob(const std::function<R(const JobContext &)> &fn,
             const SupervisorOptions &opts, size_t index,
             JobOutcome<R> &out)
{
    unsigned max_attempts = std::max(1u, opts.retry.maxAttempts);
    for (unsigned attempt = 1; attempt <= max_attempts; ++attempt) {
        out.attempts = attempt;
        if (attempt > 1) {
            std::this_thread::sleep_for(std::chrono::microseconds(
                retryDelayUs(opts.retry, opts.seed, index, attempt)));
        }
        CancelToken cancel;
        if (opts.chaos)
            opts.chaos->onAttemptStart(index, attempt, cancel);
        Supervision sup(opts.budget, &cancel);
        SupervisionScope scope(&sup);
        JobContext ctx{index, attempt, &cancel, &sup};
        try {
            if (opts.chaos)
                opts.chaos->onAttemptBody(index, attempt);
            out.value.emplace(fn(ctx));
            out.status = Status();
            return;
        } catch (const StatusError &e) {
            out.status = e.status();
        } catch (const std::exception &e) {
            out.status = Status(StatusCode::JobFailed, e.what());
        } catch (...) {
            out.status =
                Status(StatusCode::JobFailed, "unknown exception");
        }
        out.value.reset();
    }
}

} // namespace detail

/**
 * Run @p work across @p jobs host threads with per-job supervision
 * (see the file comment). Results and quarantine entries are indexed
 * and ordered canonically; `jobs <= 1` runs inline on the calling
 * thread — the exact serial path, including chaos and retries, so
 * sharded and serial sweeps stay byte-identical.
 *
 * @p labels (optional) names jobs in the quarantine report
 * ("gzip/spawn-drop/0.2"); jobs without one get "job <index>".
 */
template <typename R>
SupervisedResult<R>
runSupervised(unsigned jobs,
              std::vector<std::function<R(const JobContext &)>> work,
              const SupervisorOptions &opts,
              std::vector<std::string> labels = {})
{
    SupervisedResult<R> result;
    result.outcomes.resize(work.size());
    std::vector<std::function<void()>> thunks;
    thunks.reserve(work.size());
    for (size_t i = 0; i < work.size(); ++i) {
        thunks.push_back([&work, &opts, &result, i] {
            detail::superviseJob<R>(work[i], opts, i,
                                    result.outcomes[i]);
        });
    }
    if (jobs <= 1 || thunks.size() <= 1) {
        for (auto &thunk : thunks)
            thunk();
    } else {
        ThreadPool pool(
            static_cast<unsigned>(std::min<size_t>(jobs, thunks.size())));
        pool.run(std::move(thunks));
    }
    for (size_t i = 0; i < result.outcomes.size(); ++i) {
        const JobOutcome<R> &out = result.outcomes[i];
        if (out.status.ok())
            continue;
        result.quarantine.entries.push_back(
            {i,
             i < labels.size() ? labels[i] : strfmt("job %zu", i),
             out.attempts, out.status});
    }
    return result;
}

} // namespace mssp

#endif // MSSP_SIM_SUPERVISOR_HH
