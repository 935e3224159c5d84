#include "util/cli.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "util/parse.hpp"

namespace capes::util {

namespace {

constexpr std::size_t kWidth = 78;

std::string invalid_value(const std::string& name, const std::string& value,
                          const std::string& reason) {
  std::string msg = "invalid value for " + name + ": '" + value + "'";
  if (!reason.empty()) msg += " (" + reason + ")";
  return msg;
}

std::string spelled(const Flag& flag) {
  return flag.metavar.empty() ? flag.name : flag.name + "=" + flag.metavar;
}

/// Appends `words` to *out, breaking before any word that would pass
/// kWidth; continuation lines start with `indent` spaces. `column` is
/// where the cursor already is.
void wrap(const std::vector<std::string>& words, std::size_t column,
          std::size_t indent, std::string* out) {
  bool first = true;
  for (const auto& word : words) {
    if (!first && column + 1 + word.size() > kWidth) {
      out->push_back('\n');
      out->append(indent, ' ');
      column = indent;
    } else if (!first) {
      *out += ' ';
      ++column;
    }
    *out += word;
    column += word.size();
    first = false;
  }
}

std::vector<std::string> split_words(const std::string& text) {
  std::vector<std::string> words;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t end = std::min(text.find(' ', start), text.size());
    if (end > start) words.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return words;
}

}  // namespace

ParseOutcome parse_flags(int argc, const char* const* argv,
                         const std::vector<Flag>& flags, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") return ParseOutcome::kHelp;
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const auto flag = std::find_if(flags.begin(), flags.end(),
                                   [&](const Flag& f) { return f.name == name; });
    if (flag == flags.end()) {
      *error = "unknown argument: " + arg;
      return ParseOutcome::kError;
    }
    const bool has_value = eq != std::string::npos;
    const std::string value = has_value ? arg.substr(eq + 1) : "";
    std::string reason;
    if (flag->metavar.empty() && has_value) {
      reason = name + " takes no value";
    } else if (!flag->metavar.empty() && !has_value) {
      reason = "expected " + spelled(*flag);
    } else if (flag->handle(value, &reason)) {
      continue;
    }
    *error = invalid_value(name, value, reason);
    return ParseOutcome::kError;
  }
  return ParseOutcome::kOk;
}

std::string usage_text(const std::string& tool,
                       const std::vector<Flag>& flags) {
  std::vector<const Flag*> all;
  for (const auto& flag : flags) all.push_back(&flag);
  const Flag help{"--help", "", "print this message and exit", nullptr};
  all.push_back(&help);

  const std::string lead = "usage: " + tool;
  std::vector<std::string> synopsis;
  for (const Flag* flag : all) {
    // Appends, not "[" + ...: GCC 12 trips -Wrestrict on operator+ with a
    // leading literal.
    std::string item(1, '[');
    item += spelled(*flag);
    item += ']';
    synopsis.push_back(std::move(item));
  }
  std::string out = lead + ' ';
  wrap(synopsis, lead.size() + 1, lead.size() + 1, &out);
  out += "\n\n";

  std::size_t column = 0;
  for (const Flag* flag : all) column = std::max(column, spelled(*flag).size());
  column += 4;  // two-space margin on each side of the flag
  for (const Flag* flag : all) {
    const std::string left = spelled(*flag);
    out += "  ";
    out += left;
    out.append(column - 2 - left.size(), ' ');
    wrap(split_words(flag->help), column, column, &out);
    out += '\n';
  }
  return out;
}

std::optional<int> parse_command_line(int argc, const char* const* argv,
                                      const std::string& tool,
                                      const std::vector<Flag>& flags,
                                      const std::string& epilogue) {
  std::string error;
  switch (parse_flags(argc, argv, flags, &error)) {
    case ParseOutcome::kOk:
      return std::nullopt;
    case ParseOutcome::kHelp:
      std::printf("%s\n%s", usage_text(tool, flags).c_str(), epilogue.c_str());
      return 0;
    case ParseOutcome::kError:
      break;
  }
  std::fprintf(stderr, "%s\n", error.c_str());
  std::printf("%s", usage_text(tool, flags).c_str());
  return 2;
}

FlagHandler store_to(std::string* out) {
  return [out](const std::string& value, std::string*) {
    *out = value;
    return true;
  };
}

bool parse_int_flag(const std::string& value, std::int64_t lo,
                    std::int64_t hi, std::int64_t* out, std::string* reason) {
  std::int64_t parsed = 0;
  if (parse_i64(value, &parsed) && parsed >= lo && parsed <= hi) {
    *out = parsed;
    return true;
  }
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  if (lo == kMin && hi == kMax) {
    *reason = "expected an integer";
  } else if (hi == kMax) {
    *reason = "expected an integer >= " + std::to_string(lo);
  } else {
    *reason = "expected an integer in [" + std::to_string(lo) + ", " +
              std::to_string(hi) + "]";
  }
  return false;
}

}  // namespace capes::util
