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

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
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

}  // namespace capes::util
