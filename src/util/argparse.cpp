#include "util/argparse.hpp"

#include <cstdlib>

#include "util/strings.hpp"

namespace seqrtg::util {

void ArgParser::add_option(std::string name, std::string help,
                           std::string default_value) {
  declared_[std::move(name)] = {std::move(help), std::move(default_value),
                                false};
}

void ArgParser::add_flag(std::string name, std::string help) {
  declared_[std::move(name)] = {std::move(help), "", true};
}

bool ArgParser::parse(const std::vector<std::string>& args) {
  values_.clear();
  positional_.clear();
  error_.clear();
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (!starts_with(arg, "--")) {
      positional_.push_back(arg);
      continue;
    }
    std::string name = arg.substr(2);
    std::string inline_value;
    bool has_inline = false;
    if (const std::size_t eq = name.find('='); eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_inline = true;
    }
    const auto it = declared_.find(name);
    if (it == declared_.end()) {
      error_ = "unknown flag --" + name;
      return false;
    }
    if (it->second.is_flag) {
      if (has_inline) {
        error_ = "flag --" + name + " takes no value";
        return false;
      }
      values_.emplace(name, "1");
      continue;
    }
    if (has_inline) {
      values_[name] = inline_value;
    } else if (i + 1 < args.size()) {
      values_[name] = args[++i];
    } else {
      error_ = "flag --" + name + " needs a value";
      return false;
    }
  }
  return true;
}

std::string ArgParser::get(std::string_view name) const {
  const auto it = values_.find(std::string(name));
  if (it != values_.end()) return it->second;
  const auto decl = declared_.find(std::string(name));
  return decl == declared_.end() ? "" : decl->second.default_value;
}

std::int64_t ArgParser::get_int(std::string_view name,
                                std::int64_t fallback) const {
  const std::string v = get(name);
  if (v.empty()) return fallback;
  char* end = nullptr;
  const long long out = std::strtoll(v.c_str(), &end, 10);
  return (end != nullptr && *end == '\0') ? out : fallback;
}

double ArgParser::get_double(std::string_view name, double fallback) const {
  const std::string v = get(name);
  if (v.empty()) return fallback;
  char* end = nullptr;
  const double out = std::strtod(v.c_str(), &end);
  return (end != nullptr && *end == '\0') ? out : fallback;
}

bool ArgParser::get_flag(std::string_view name) const {
  return values_.count(std::string(name)) > 0;
}

bool ArgParser::has(std::string_view name) const {
  return values_.count(std::string(name)) > 0;
}

std::string ArgParser::usage() const {
  std::string out;
  for (const auto& [name, opt] : declared_) {
    out += "  --" + name;
    if (!opt.is_flag) {
      out += " <value>";
      if (!opt.default_value.empty()) {
        out += " (default: " + opt.default_value + ")";
      }
    }
    out += "\n      " + opt.help + "\n";
  }
  return out;
}

}  // namespace seqrtg::util
