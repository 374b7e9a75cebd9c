#ifndef SOD2_SUPPORT_STRING_UTIL_H_
#define SOD2_SUPPORT_STRING_UTIL_H_

/**
 * @file
 * Small string helpers shared by IR printing and benchmark tables.
 */

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace sod2 {

/** Joins the elements of @p items with @p sep using operator<<. */
template <typename T>
std::string
join(const std::vector<T>& items, const std::string& sep)
{
    std::ostringstream out;
    for (size_t i = 0; i < items.size(); ++i) {
        if (i)
            out << sep;
        out << items[i];
    }
    return out.str();
}

/** Formats a vector like "[2, 3, 4]". */
template <typename T>
std::string
bracketed(const std::vector<T>& items)
{
    return "[" + join(items, ", ") + "]";
}

/** printf-style formatting into a std::string. */
std::string strFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Left-pads/truncates @p s to exactly @p width characters. */
std::string padTo(const std::string& s, size_t width);

/**
 * Strict structural JSON validator (RFC 8259 grammar, no extensions):
 * returns true iff @p text is exactly one valid JSON value. On failure
 * @p error (optional) receives a message with the byte offset. Used to
 * check emitted artifacts — Chrome trace exports and benchmark "JSON:"
 * lines — without an external parser.
 */
bool validateJson(const std::string& text, std::string* error = nullptr);

}  // namespace sod2

#endif  // SOD2_SUPPORT_STRING_UTIL_H_
