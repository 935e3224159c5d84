#include "util/cli.hpp"

#include <algorithm>
#include <cmath>
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

std::string number(double x) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", x);
  return buffer;
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

bool parse_double_flag(const std::string& value, double lo, double hi,
                       bool hi_open, double* out, std::string* reason) {
  double parsed = 0.0;
  if (parse_double(value, &parsed) && parsed >= lo &&
      (hi_open ? parsed < hi : parsed <= hi)) {
    *out = parsed;
    return true;
  }
  if (std::isinf(hi)) {
    *reason = "expected a number >= " + number(lo);
  } else {
    *reason = "expected a number in [" + number(lo) + ", " + number(hi) +
              (hi_open ? ")" : "]");
  }
  return false;
}

FlagHandler store_double(double* out, double lo, double hi, bool hi_open) {
  return [=](const std::string& value, std::string* reason) {
    return parse_double_flag(value, lo, hi, hi_open, out, reason);
  };
}

FlagHandler store_seed(std::uint64_t* out, bool* given) {
  return [=](const std::string& value, std::string* reason) {
    if (!parse_u64(value, out)) {
      *reason = "expected an unsigned integer";
      return false;
    }
    if (given != nullptr) *given = true;
    return true;
  };
}

SpecParts split_spec(std::string_view spec) {
  const std::size_t colon = spec.find(':');
  if (colon == std::string_view::npos) return {spec, std::nullopt};
  return {spec.substr(0, colon), spec.substr(colon + 1)};
}

bool parse_spec_options(SpecOptions options, const std::vector<Flag>& table,
                        const std::string& what, std::string* error) {
  if (!options) return true;
  std::vector<char> seen(table.size(), 0);
  // The message for one item; "" when its handler took it.
  const auto take = [&](const std::string& item) -> std::string {
    const std::size_t eq = item.find('=');
    const bool bare = eq == std::string::npos;
    const std::string key = bare ? "" : item.substr(0, eq);
    const std::string value = bare ? item : item.substr(eq + 1);
    const auto flag = std::find_if(
        table.begin(), table.end(), [&](const Flag& f) { return f.name == key; });
    if (item.empty() || eq == 0 || (bare && flag == table.end())) {
      return "malformed " + what + " option '" + item +
             "' (expected key=value)";
    }
    if (flag == table.end()) {
      std::string keys;
      for (const Flag& f : table) {
        if (f.name.empty()) continue;
        if (!keys.empty()) keys += &f == &table.back() ? " or " : ", ";
        keys += f.name;
      }
      return "unknown " + what + " option '" + key + "' (expected " + keys +
             ")";
    }
    std::string reason = "repeated option";
    char& taken = seen[static_cast<std::size_t>(flag - table.begin())];
    if (!taken && flag->handle(value, &reason)) {
      taken = 1;
      return "";
    }
    return invalid_value(bare ? flag->metavar : key, value, reason);
  };
  const std::string_view text = *options;
  std::string message;
  for (std::size_t start = 0; message.empty() && start <= text.size();) {
    const std::size_t comma = std::min(text.find(',', start), text.size());
    message = take(std::string(text.substr(start, comma - start)));
    start = comma + 1;
  }
  if (!message.empty() && error != nullptr) *error = message;
  return message.empty();
}

}  // namespace capes::util
