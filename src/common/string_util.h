// Small string helpers shared across modules.
#ifndef WGRAP_COMMON_STRING_UTIL_H_
#define WGRAP_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace wgrap {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Splits on a delimiter character; keeps empty fields.
std::vector<std::string> StrSplit(const std::string& s, char delim);

/// Splits on runs of whitespace (std::isspace); no empty tokens.
std::vector<std::string> SplitTokens(std::string_view s);

/// Joins with a separator.
std::string StrJoin(const std::vector<std::string>& parts,
                    const std::string& sep);

/// Human-friendly seconds: "4 ms", "2.2 s", "45.6 min", "5.1 h".
std::string HumanSeconds(double seconds);

// The one number grammar of every field a user types: CLI flags, protocol
// keys, solver knobs, dataset and assignment CSVs, mutation scripts and
// failpoint specs. A parser accepts the whole of `text` as one base-10
// number by std::from_chars rules, or nothing: no leading or trailing
// blanks, no '+', no hex, no sign on an unsigned type, and a value the
// type cannot hold is an error, never a wrap or a clamp. On failure `*out`
// is left as it was; callers add their own context to the error.
bool ParseInt(std::string_view text, int* out);
bool ParseInt64(std::string_view text, int64_t* out);
bool ParseUint64(std::string_view text, uint64_t* out);
/// Finite values only: "nan", "inf" and "1e400" are errors.
bool ParseDouble(std::string_view text, double* out);
/// Exactly true/1/on or false/0/off.
bool ParseBool(std::string_view text, bool* out);

}  // namespace wgrap

#endif  // WGRAP_COMMON_STRING_UTIL_H_
