// Tiny command-line flag parser for the CLI, example and bench executables.
//
// Supports "--name=value", "--name value" and boolean "--name" forms.
// Unknown flags are an error so that typos in experiment scripts fail
// loudly; set_context() names the subcommand in those diagnostics.
// register_common_flags() defines the flag surface every wolf subcommand
// shares (mirroring wolf::Config in wolf.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace wolf {

class Flags {
 public:
  // Registration: call before parse(). Each flag has a help string rendered
  // by usage().
  void define_int(const std::string& name, std::int64_t default_value,
                  const std::string& help);
  void define_bool(const std::string& name, bool default_value,
                   const std::string& help);
  void define_string(const std::string& name, const std::string& default_value,
                     const std::string& help);

  // Names the command in diagnostics and usage (e.g. "wolf analyze"), so
  // an unknown flag reports which subcommand rejected it. Empty (default)
  // falls back to argv[0].
  void set_context(const std::string& context) { context_ = context; }

  // True when a flag of this name has been defined (any kind).
  bool defined(const std::string& name) const {
    return flags_.count(name) != 0;
  }

  // Returns false (after printing a diagnostic to stderr) on malformed or
  // unknown arguments, or when --help is requested.
  bool parse(int argc, char** argv);

  std::int64_t get_int(const std::string& name) const;
  bool get_bool(const std::string& name) const;
  const std::string& get_string(const std::string& name) const;

  std::string usage(const std::string& program) const;

 private:
  enum class Kind { kInt, kBool, kString };
  struct Flag {
    Kind kind;
    std::string help;
    std::int64_t int_value = 0;
    bool bool_value = false;
    std::string string_value;
  };

  bool set_from_string(Flag& flag, const std::string& value);

  std::map<std::string, Flag> flags_;
  std::string context_;
};

// Defines the shared flag surface of every wolf subcommand, mirroring the
// top-level scalars of wolf::Config: --seed, --deadline-ms, plus the
// observability flags --metrics-out, --metrics-stable and --progress.
// (--jobs belongs to `analyze`, the one subcommand that classifies.)
void register_common_flags(Flags& flags);

}  // namespace wolf
