/**
 * @file
 * Declarative command-line argument parser for the `mirage` tool (no
 * third-party deps).
 *
 * Each subcommand declares its flags and value options up front; the
 * parser then handles `--opt value`, `--opt=value`, boolean flags,
 * `--` (end of options), positional operands, and renders a --help
 * page from the declarations. Errors are reported as messages (never
 * exit()/abort()), so the CLI keeps scripting-grade exit-code
 * discipline and tests can drive parsing in-process.
 */

#ifndef MIRAGE_CLI_ARGS_HH
#define MIRAGE_CLI_ARGS_HH

#include <stdexcept>
#include <string>
#include <vector>

namespace mirage::cli {

/** Invalid command-line usage (maps to exit code 2). */
class UsageError : public std::runtime_error
{
  public:
    explicit UsageError(const std::string &message)
        : std::runtime_error(message)
    {
    }
};

/**
 * Option/flag table plus parse state for one subcommand invocation.
 */
class ArgumentParser
{
  public:
    /** `command` and `synopsis` seed the --help page. */
    ArgumentParser(std::string command, std::string synopsis);

    /** Declare a boolean flag, e.g. addFlag("--csv", "..."). */
    void addFlag(const std::string &name, const std::string &help);
    /** Declare a value option, e.g. addOption("--out", "DIR", ".", "..."). */
    void addOption(const std::string &name, const std::string &valueName,
                   const std::string &defaultValue, const std::string &help);

    /**
     * Parse argv (without the program/subcommand words). Throws
     * UsageError on unknown options, missing values, or malformed
     * integers requested later via intOption().
     */
    void parse(const std::vector<std::string> &args);

    /** True when a declared flag was present (or --help was seen). */
    bool flag(const std::string &name) const;
    bool helpRequested() const { return helpRequested_; }

    /** Value of a declared option (default when absent). */
    const std::string &option(const std::string &name) const;
    /** True when the user supplied the option explicitly. */
    bool optionSeen(const std::string &name) const;
    /** option() parsed as an int; UsageError on garbage or overflow. */
    int intOption(const std::string &name) const;

    /** Operands left after option parsing, in order. */
    const std::vector<std::string> &positionals() const
    {
        return positionals_;
    }

    /** The rendered --help page. */
    std::string helpText() const;

  private:
    struct Spec
    {
        std::string name;
        bool takesValue = false;
        std::string valueName;
        std::string help;
        std::string value; ///< default, then parsed value
        bool seen = false;
    };

    Spec *findSpec(const std::string &name);
    const Spec &requireSpec(const std::string &name) const;

    std::string command_;
    std::string synopsis_;
    std::vector<Spec> specs_;
    std::vector<std::string> positionals_;
    bool helpRequested_ = false;
};

} // namespace mirage::cli

#endif // MIRAGE_CLI_ARGS_HH
