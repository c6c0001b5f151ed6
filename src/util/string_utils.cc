#include "util/string_utils.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace mssp
{

std::string_view
trim(std::string_view s)
{
    size_t b = 0;
    while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    size_t e = s.size();
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::vector<std::string_view>
split(std::string_view s, char delim)
{
    std::vector<std::string_view> out;
    size_t start = 0;
    for (size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == delim) {
            out.push_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

std::vector<std::string_view>
splitWs(std::string_view s)
{
    std::vector<std::string_view> out;
    size_t i = 0;
    while (i < s.size()) {
        while (i < s.size() &&
               std::isspace(static_cast<unsigned char>(s[i]))) {
            ++i;
        }
        size_t start = i;
        while (i < s.size() &&
               !std::isspace(static_cast<unsigned char>(s[i]))) {
            ++i;
        }
        if (i > start)
            out.push_back(s.substr(start, i - start));
    }
    return out;
}

bool
startsWith(std::string_view s, std::string_view prefix)
{
    return s.size() >= prefix.size() &&
           s.substr(0, prefix.size()) == prefix;
}

std::string
toLower(std::string_view s)
{
    std::string out(s);
    for (char &c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

bool
parseInt(std::string_view s, int64_t &out)
{
    s = trim(s);
    if (s.empty())
        return false;

    // Character literal: 'a'
    if (s.size() == 3 && s.front() == '\'' && s.back() == '\'') {
        out = static_cast<int64_t>(static_cast<unsigned char>(s[1]));
        return true;
    }

    bool neg = false;
    if (s.front() == '-' || s.front() == '+') {
        neg = s.front() == '-';
        s.remove_prefix(1);
        if (s.empty())
            return false;
    }

    int base = 10;
    if (startsWith(s, "0x") || startsWith(s, "0X")) {
        base = 16;
        s.remove_prefix(2);
    } else if (startsWith(s, "0b") || startsWith(s, "0B")) {
        base = 2;
        s.remove_prefix(2);
    }
    if (s.empty())
        return false;

    uint64_t value = 0;
    for (char c : s) {
        int digit;
        if (c >= '0' && c <= '9')
            digit = c - '0';
        else if (c >= 'a' && c <= 'f')
            digit = c - 'a' + 10;
        else if (c >= 'A' && c <= 'F')
            digit = c - 'A' + 10;
        else
            return false;
        if (digit >= base)
            return false;
        value = value * static_cast<uint64_t>(base) +
                static_cast<uint64_t>(digit);
    }
    out = neg ? -static_cast<int64_t>(value) : static_cast<int64_t>(value);
    return true;
}

std::string
padLeft(const std::string &s, size_t w)
{
    if (s.size() >= w)
        return s;
    return std::string(w - s.size(), ' ') + s;
}

std::string
padRight(const std::string &s, size_t w)
{
    if (s.size() >= w)
        return s;
    return s + std::string(w - s.size(), ' ');
}

std::string
jsonEscape(std::string_view s)
{
    static const char hex[] = "0123456789abcdef";
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        auto u = static_cast<unsigned char>(c);
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (u < 0x20) {
            out += "\\u00";
            out += hex[u >> 4];
            out += hex[u & 0xf];
        } else {
            out += c;
        }
    }
    return out;
}

void
badFlagValue(std::string_view tool, std::string_view flag,
             std::string_view text, std::string_view lo,
             std::string_view hi)
{
    std::fprintf(stderr,
                 "%.*s: bad value '%.*s' for %.*s (expected a number "
                 "in [%.*s, %.*s])\n",
                 static_cast<int>(tool.size()), tool.data(),
                 static_cast<int>(text.size()), text.data(),
                 static_cast<int>(flag.size()), flag.data(),
                 static_cast<int>(lo.size()), lo.data(),
                 static_cast<int>(hi.size()), hi.data());
    std::exit(2);
}

} // namespace mssp
