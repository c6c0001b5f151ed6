/**
 * @file
 * Structured status / result taxonomy.
 *
 * Every way a sweep job or an untrusted-input parse can end —
 * success, malformed input, an ordinary failure — is one StatusCode,
 * so callers can branch on the class of an outcome instead of
 * string-matching exception text, and quarantine reports stay
 * byte-deterministic (codes render as fixed kebab-case names).
 *
 * Two pieces:
 *
 *  - Status: a code plus a human-readable message. Messages must be
 *    deterministic for deterministic inputs (no pointers, times or
 *    host state) because they are embedded verbatim in the JSON
 *    quarantine reports that CI byte-diffs.
 *  - Result<T>: a value or the Status explaining its absence, for
 *    parse-style APIs (asm/objfile.hh) where failure is an expected
 *    outcome, not an exception.
 *
 * A sweep job reports failure by throwing; runSupervised()
 * (sim/supervisor.hh) turns the exception into a JobFailed Status.
 */

#ifndef MSSP_SIM_STATUS_HH
#define MSSP_SIM_STATUS_HH

#include <optional>
#include <string>
#include <utility>

#include "sim/logging.hh"

namespace mssp
{

/** The class of a job outcome. */
enum class StatusCode : uint8_t
{
    Ok = 0,
    ParseError,           ///< malformed untrusted input
    JobFailed,            ///< the job threw
};

/** Fixed kebab-case name ("ok", "parse-error", ...). */
const char *toString(StatusCode code);

/** A status code plus a deterministic human-readable message. */
class Status
{
  public:
    /** Default: Ok with no message. */
    Status() = default;

    Status(StatusCode code, std::string message)
        : code_(code), message_(std::move(message))
    {}

    bool ok() const { return code_ == StatusCode::Ok; }
    StatusCode code() const { return code_; }
    const std::string &message() const { return message_; }

    /** "code" or "code: message". */
    std::string
    toString() const
    {
        std::string s = mssp::toString(code_);
        if (!message_.empty()) {
            s += ": ";
            s += message_;
        }
        return s;
    }

  private:
    StatusCode code_ = StatusCode::Ok;
    std::string message_;
};

/**
 * A T or the Status explaining why there is none. Deliberately tiny:
 * just enough for the parse paths; not a monad library.
 */
template <typename T>
class Result
{
  public:
    Result(T value)                           // NOLINT(google-explicit-constructor)
        : value_(std::move(value))
    {}

    Result(Status status)                     // NOLINT(google-explicit-constructor)
        : status_(std::move(status))
    {
        MSSP_ASSERT(!status_.ok());   // an Ok Result must carry a value
    }

    bool ok() const { return value_.has_value(); }
    const Status &status() const { return status_; }

    T &
    value()
    {
        MSSP_ASSERT(value_.has_value());
        return *value_;
    }

    const T &
    value() const
    {
        MSSP_ASSERT(value_.has_value());
        return *value_;
    }

  private:
    Status status_;
    std::optional<T> value_;
};

inline const char *
toString(StatusCode code)
{
    switch (code) {
      case StatusCode::Ok:                  return "ok";
      case StatusCode::ParseError:          return "parse-error";
      case StatusCode::JobFailed:           return "job-failed";
    }
    return "?";
}

} // namespace mssp

#endif // MSSP_SIM_STATUS_HH
