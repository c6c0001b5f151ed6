#include "sim/supervisor.hh"

#include "util/string_utils.hh"

namespace mssp
{

std::string
jobFailure(const std::exception_ptr &error)
{
    try {
        std::rethrow_exception(error);
    } catch (const std::exception &e) {
        return e.what();
    } catch (...) {
        return "unknown exception";
    }
}

std::string
QuarantineReport::toJson() const
{
    std::string out = "[";
    for (size_t i = 0; i < entries.size(); ++i) {
        const QuarantineEntry &e = entries[i];
        out += strfmt(
            "%s{\"index\": %zu, \"label\": \"%s\", "
            "\"status\": \"job-failed\", \"message\": \"%s\"}",
            i ? ", " : "", e.jobIndex, jsonEscape(e.label).c_str(),
            jsonEscape(e.message).c_str());
    }
    out += "]";
    return out;
}

std::string
QuarantineReport::summary() const
{
    std::string s;
    for (const QuarantineEntry &e : entries) {
        s += strfmt("  quarantined [%zu] %-24s job-failed%s%s\n",
                    e.jobIndex, e.label.c_str(),
                    e.message.empty() ? "" : ": ", e.message.c_str());
    }
    return s;
}

} // namespace mssp
