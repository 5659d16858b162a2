/**
 * @file
 * ArgumentParser implementation: table-driven option matching with
 * `--opt value` / `--opt=value` forms, `--` end-of-options, collected
 * positionals, and a --help renderer generated from the declarations.
 */

#include "cli/args.hh"

#include <climits>

#include "common/logging.hh"
#include "common/serial.hh"

namespace mirage::cli {

ArgumentParser::ArgumentParser(std::string command, std::string synopsis)
    : command_(std::move(command)), synopsis_(std::move(synopsis))
{
}

void
ArgumentParser::addFlag(const std::string &name, const std::string &help)
{
    Spec s;
    s.name = name;
    s.help = help;
    specs_.push_back(std::move(s));
}

void
ArgumentParser::addOption(const std::string &name,
                          const std::string &valueName,
                          const std::string &defaultValue,
                          const std::string &help)
{
    Spec s;
    s.name = name;
    s.takesValue = true;
    s.valueName = valueName;
    s.value = defaultValue;
    s.help = help;
    specs_.push_back(std::move(s));
}

ArgumentParser::Spec *
ArgumentParser::findSpec(const std::string &name)
{
    for (auto &s : specs_) {
        if (s.name == name)
            return &s;
    }
    return nullptr;
}

const ArgumentParser::Spec &
ArgumentParser::requireSpec(const std::string &name) const
{
    for (const auto &s : specs_) {
        if (s.name == name)
            return s;
    }
    panic("undeclared option '%s' queried", name.c_str());
}

void
ArgumentParser::parse(const std::vector<std::string> &args)
{
    bool optionsDone = false;
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (optionsDone || arg.empty() || arg[0] != '-' || arg == "-") {
            positionals_.push_back(arg);
            continue;
        }
        if (arg == "--") {
            optionsDone = true;
            continue;
        }
        if (arg == "--help" || arg == "-h") {
            helpRequested_ = true;
            continue;
        }

        std::string name = arg;
        std::string inlineValue;
        bool hasInline = false;
        if (size_t eq = arg.find('='); eq != std::string::npos) {
            name = arg.substr(0, eq);
            inlineValue = arg.substr(eq + 1);
            hasInline = true;
        }

        Spec *spec = findSpec(name);
        if (!spec)
            throw UsageError("unknown option '" + name + "' for '" +
                             command_ + "' (see --help)");
        spec->seen = true;
        if (!spec->takesValue) {
            if (hasInline)
                throw UsageError("option '" + name +
                                 "' does not take a value");
            continue;
        }
        if (hasInline) {
            spec->value = inlineValue;
        } else {
            if (i + 1 >= args.size())
                throw UsageError("option '" + name + "' expects a value <" +
                                 spec->valueName + ">");
            spec->value = args[++i];
        }
    }
}

bool
ArgumentParser::flag(const std::string &name) const
{
    return requireSpec(name).seen;
}

const std::string &
ArgumentParser::option(const std::string &name) const
{
    return requireSpec(name).value;
}

bool
ArgumentParser::optionSeen(const std::string &name) const
{
    return requireSpec(name).seen;
}

int
ArgumentParser::intOption(const std::string &name) const
{
    const std::string &v = option(name);
    int64_t parsed = 0;
    const std::errc ec = serial::parseInt(v, parsed);
    if (ec == std::errc::invalid_argument)
        throw UsageError("option '" + name + "' expects an integer, got '" +
                         v + "'");
    if (ec != std::errc() || parsed < INT_MIN || parsed > INT_MAX)
        throw UsageError("option '" + name + "' is out of range, got '" +
                         v + "'");
    return int(parsed);
}

std::string
ArgumentParser::helpText() const
{
    std::string out = "usage: mirage " + command_;
    if (!specs_.empty())
        out += " [options]";
    out += " " + synopsis_ + "\n\noptions:\n";
    for (const auto &s : specs_) {
        std::string left = "  " + s.name;
        if (s.takesValue) {
            left += " <" + s.valueName + ">";
        }
        if (left.size() < 26)
            left.resize(26, ' ');
        else
            left += "  ";
        out += left + s.help;
        if (s.takesValue && !s.value.empty())
            out += " (default: " + s.value + ")";
        out += "\n";
    }
    out += "  --help                  show this help\n";
    return out;
}

} // namespace mirage::cli
