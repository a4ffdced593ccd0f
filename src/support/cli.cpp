#include "support/cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "support/strings.hpp"

namespace gpudiff::support {

void CliParser::add_flag(const std::string& name, const std::string& help_text) {
  Option o;
  o.kind = Kind::Flag;
  o.help = help_text;
  options_[name] = std::move(o);
  order_.push_back(name);
}

void CliParser::add_int(const std::string& name, char short_name,
                        const std::string& help_text, std::int64_t default_value) {
  Option o;
  o.kind = Kind::Int;
  o.short_name = short_name;
  o.help = help_text;
  o.int_value = default_value;
  options_[name] = std::move(o);
  order_.push_back(name);
}

void CliParser::add_string(const std::string& name, char short_name,
                           const std::string& help_text, std::string default_value) {
  Option o;
  o.kind = Kind::String;
  o.short_name = short_name;
  o.help = help_text;
  o.string_value = std::move(default_value);
  options_[name] = std::move(o);
  order_.push_back(name);
}

void CliParser::add_double(const std::string& name, char short_name,
                           const std::string& help_text, double default_value) {
  Option o;
  o.kind = Kind::Double;
  o.short_name = short_name;
  o.help = help_text;
  o.double_value = default_value;
  options_[name] = std::move(o);
  order_.push_back(name);
}

CliParser::Option* CliParser::find_by_short(char c) {
  for (auto& [name, opt] : options_)
    if (opt.short_name == c) return &opt;
  return nullptr;
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(help().c_str(), stdout);
      return false;
    }
    Option* opt = nullptr;
    std::string value;
    bool has_inline_value = false;
    if (arg.rfind("--", 0) == 0) {
      std::string name = arg.substr(2);
      const auto eq = name.find('=');
      if (eq != std::string::npos) {
        value = name.substr(eq + 1);
        name = name.substr(0, eq);
        has_inline_value = true;
      }
      auto it = options_.find(name);
      if (it == options_.end()) {
        std::fprintf(stderr, "%s: unknown option '--%s'\n", program_.c_str(), name.c_str());
        return false;
      }
      opt = &it->second;
    } else if (arg.size() == 2 && arg[0] == '-') {
      opt = find_by_short(arg[1]);
      if (opt == nullptr) {
        std::fprintf(stderr, "%s: unknown option '%s'\n", program_.c_str(), arg.c_str());
        return false;
      }
    } else {
      std::fprintf(stderr, "%s: unexpected argument '%s'\n", program_.c_str(), arg.c_str());
      return false;
    }

    if (opt->kind == Kind::Flag) {
      opt->flag_value = true;
      continue;
    }
    if (!has_inline_value) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: option '%s' needs a value\n", program_.c_str(), arg.c_str());
        return false;
      }
      value = argv[++i];
    }
    char* end = nullptr;
    switch (opt->kind) {
      case Kind::Int:
        opt->int_value = std::strtoll(value.c_str(), &end, 10);
        if (end == value.c_str() || *end != '\0') {
          std::fprintf(stderr, "%s: bad integer '%s'\n", program_.c_str(), value.c_str());
          return false;
        }
        break;
      case Kind::Double:
        opt->double_value = std::strtod(value.c_str(), &end);
        if (end == value.c_str() || *end != '\0') {
          std::fprintf(stderr, "%s: bad number '%s'\n", program_.c_str(), value.c_str());
          return false;
        }
        break;
      case Kind::String:
        opt->string_value = value;
        break;
      case Kind::Flag:
        break;
    }
  }
  return true;
}

const CliParser::Option* CliParser::find(const std::string& name, Kind kind) const {
  auto it = options_.find(name);
  if (it == options_.end() || it->second.kind != kind)
    throw std::logic_error("cli: option not declared: " + name);
  return &it->second;
}

bool CliParser::get_flag(const std::string& name) const {
  return find(name, Kind::Flag)->flag_value;
}
std::int64_t CliParser::get_int(const std::string& name) const {
  return find(name, Kind::Int)->int_value;
}
const std::string& CliParser::get_string(const std::string& name) const {
  return find(name, Kind::String)->string_value;
}
double CliParser::get_double(const std::string& name) const {
  return find(name, Kind::Double)->double_value;
}

std::string CliParser::help() const {
  std::string out = program_ + " — " + description_ + "\n\noptions:\n";
  for (const auto& name : order_) {
    const Option& o = options_.at(name);
    std::string left = "  --" + name;
    if (o.short_name) left += std::string(", -") + o.short_name;
    switch (o.kind) {
      case Kind::Int: left += " <int> (default " + std::to_string(o.int_value) + ")"; break;
      case Kind::Double:
        left += format(" <num> (default %g)", o.double_value);
        break;
      case Kind::String:
        left += " <str>";
        if (!o.string_value.empty()) left += " (default " + o.string_value + ")";
        break;
      case Kind::Flag: break;
    }
    out += left;
    if (left.size() < 44) out += std::string(44 - left.size(), ' ');
    else out += "  ";
    out += o.help + "\n";
  }
  out += "  --help, -h";
  out += std::string(44 - 12, ' ');
  out += "show this help\n";
  return out;
}

}  // namespace gpudiff::support
