#pragma once
// One declarative flag table per command-line tool. A tool lists its
// flags once — name, value metavar, one-line help, and a handler that
// validates and applies the value — and this file derives everything
// else from that list: the parse loop, the error messages, and the
// usage synopsis. The parser and `--help` therefore cannot disagree.
//
//   std::vector<util::Flag> flags = {
//       {"--seed", "N", "experiment seed",
//        [&](const std::string& v, std::string* why) {
//          ...validate v, apply it, or set *why and return false...
//        }},
//       {"--verbose", "", "print more", ...},  // boolean: no metavar
//   };
//   if (auto rc = util::parse_command_line(argc, argv, "tool", flags,
//                                          kEpilogue)) return *rc;
//
// The same table type drives the spec strings (--transport, --faults,
// --workload): see parse_spec_options() below.

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace capes::util {

/// Validates and applies one occurrence of a flag's value ("" for a
/// boolean flag). Returns false and says why in *reason to reject it.
using FlagHandler =
    std::function<bool(const std::string& value, std::string* reason)>;

/// One command-line flag: `--name=METAVAR`, or a bare `--name` when the
/// metavar is empty (a boolean flag).
struct Flag {
  std::string name;     ///< including the leading "--"
  std::string metavar;  ///< "" = boolean flag, given without a value
  std::string help;     ///< one line in the generated usage
  FlagHandler handle;
};

enum class ParseOutcome { kOk, kError, kHelp };

/// Walks argv[1..argc) through `flags` in order, calling the matching
/// handler once per occurrence (so a repeated flag sees every value).
/// `--help` stops with kHelp. An unknown argument stops with kError and
/// `unknown argument: ARG` in *error; a value flag without `=`, a
/// boolean flag given a value, or a handler's rejection stops with
/// kError and `invalid value for --X: 'V' (reason)`.
ParseOutcome parse_flags(int argc, const char* const* argv,
                         const std::vector<Flag>& flags, std::string* error);

/// The usage text: a synopsis wrapped under `usage: TOOL`, then one line
/// per flag (and `--help`) with its help, word-wrapped.
std::string usage_text(const std::string& tool, const std::vector<Flag>& flags);

/// Every tool's front door. Parses argv; on `--help` prints the usage
/// and `epilogue` to stdout and returns 0; on an error prints the message
/// to stderr and the usage to stdout and returns 2. Returns nullopt when
/// the tool should go on and run.
std::optional<int> parse_command_line(int argc, const char* const* argv,
                                      const std::string& tool,
                                      const std::vector<Flag>& flags,
                                      const std::string& epilogue);

/// Handler for a flag whose value is kept as given (last one wins).
FlagHandler store_to(std::string* out);

/// The strict integer check most flags share: the whole value must be a
/// decimal integer in [lo, hi]. Otherwise sets *reason and returns false.
bool parse_int_flag(const std::string& value, std::int64_t lo,
                    std::int64_t hi, std::int64_t* out, std::string* reason);

/// The double twin of parse_int_flag: the whole value must be a finite
/// decimal number in [lo, hi], or in [lo, hi) when `hi_open`.
bool parse_double_flag(const std::string& value, double lo, double hi,
                       bool hi_open, double* out, std::string* reason);

/// Handlers that store a checked value: an integer in [lo, hi] (any
/// integral member), a number (parse_double_flag's range), or an
/// unsigned 64-bit seed, setting *given when one is stored. A missing
/// `hi` means no upper bound.
template <class T>
FlagHandler store_int(
    T* out, std::int64_t lo,
    std::int64_t hi = std::numeric_limits<std::int64_t>::max()) {
  return [=](const std::string& value, std::string* reason) {
    std::int64_t parsed = 0;
    if (!parse_int_flag(value, lo, hi, &parsed, reason)) return false;
    *out = static_cast<T>(parsed);
    return true;
  };
}
FlagHandler store_double(
    double* out, double lo,
    double hi = std::numeric_limits<double>::infinity(), bool hi_open = false);
FlagHandler store_seed(std::uint64_t* out, bool* given = nullptr);

// ---- Spec strings -----------------------------------------------------------
// Every spec flag shares one grammar:
//
//   NAME[:ITEM[,ITEM...]]    ITEM = KEY=VALUE | VALUE
//
// NAME picks the table; each item goes to the table entry whose name is
// KEY (Flag::name without "--"). A bare VALUE is allowed only where the
// table has a positional entry, one with an empty name (its metavar names
// it in errors). The value may be empty: its handler decides. An empty
// item, an empty key and a repeated key are errors.

/// The option text after NAME's ':'; nullopt when the spec has no ':'.
using SpecOptions = std::optional<std::string_view>;

struct SpecParts {
  std::string_view name;
  SpecOptions options;
};

/// Splits a spec at its first ':'.
SpecParts split_spec(std::string_view spec);

/// Feeds every item of `options` to its `table` entry's handler, in order.
/// Stops at the first bad item with false and, in *error (if non-null),
/// `malformed WHAT option 'ITEM' (expected key=value)`,
/// `unknown WHAT option 'KEY' (expected <the table's keys>)`, or
/// `invalid value for KEY: 'V' (reason)`. nullopt options parse to nothing.
bool parse_spec_options(SpecOptions options, const std::vector<Flag>& table,
                        const std::string& what, std::string* error);

}  // namespace capes::util
