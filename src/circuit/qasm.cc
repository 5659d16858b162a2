/**
 * @file
 * OpenQASM 2.0 exporter and importer: direct emission for standard
 * gates, ZYZ / KAK-parameter lowering for consolidated unitary blocks,
 * and a recursive-descent parser for the emitted dialect that reports
 * 1-based line/column positions via QasmError.
 */

#include "circuit/qasm.hh"

#include <array>
#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <vector>

#include "weyl/catalog.hh"
#include "weyl/kak.hh"

namespace mirage::circuit {

QasmError::QasmError(int line, int column, const std::string &message)
    : std::runtime_error(std::to_string(line) + ":" +
                         std::to_string(column) + ": " + message),
      line_(line), column_(column), message_(message)
{
}

namespace {

/** The shared printf-style formatter behind every parse diagnostic. */
std::string
vformat(const char *fmt, va_list args)
{
    char buf[512];
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    return buf;
}

/** Format printf-style and throw a positioned QasmError. */
[[noreturn]] void
raiseAt(int line, int column, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vformat(fmt, args);
    va_end(args);
    throw QasmError(line, column, msg);
}

std::string
fmt(double x)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.12g", x);
    return buf;
}

/** The fmt()-ed ZYZ angle list "a,b,c" of a one-qubit unitary. */
std::string
u3Params(const Mat2 &m)
{
    auto ang = weyl::eulerZYZ(m);
    return fmt(ang[0]) + "," + fmt(ang[1]) + "," + fmt(ang[2]);
}

void
emitU3(std::string &out, const std::string &params, int q)
{
    out += "u3(" + params + ") q[" + std::to_string(q) + "];\n";
}

void
emitRzz(std::string &out, const std::string &theta, int a, int b)
{
    out += "rzz(" + theta + ") q[" + std::to_string(a) + "],q[" +
           std::to_string(b) + "];\n";
}

void
emitRyyViaRzz(std::string &out, const std::string &theta, int a, int b)
{
    // YY = (RX(pi/2) (x) RX(pi/2)) ZZ (RX(-pi/2) (x) RX(-pi/2)).
    out += "rx(-pi/2) q[" + std::to_string(a) + "];\n";
    out += "rx(-pi/2) q[" + std::to_string(b) + "];\n";
    emitRzz(out, theta, a, b);
    out += "rx(pi/2) q[" + std::to_string(a) + "];\n";
    out += "rx(pi/2) q[" + std::to_string(b) + "];\n";
}

/**
 * The operand-free text of one Unitary2Q block: the u3 parameter lists
 * of its four local factors and its fmt()-ed CAN angles (`yy` and `zz`
 * are empty when that coordinate is zero; fmt never yields "").
 */
struct BlockText
{
    std::string r1, r2, xx, yy, zz, l1, l2;
};

BlockText
blockText(const Mat4 &m)
{
    // KAK: U = e^{i phase} (l1 x l2) CAN(a,b,c) (r1 x r2) with
    // CAN(a,b,c) = rxx(-2a) ryy(-2b) rzz(-2c).
    weyl::KakDecomposition kak = weyl::kakDecompose(m);
    BlockText t;
    t.r1 = u3Params(kak.r1);
    t.r2 = u3Params(kak.r2);
    t.xx = fmt(-2.0 * kak.coords.a);
    if (kak.coords.b != 0.0)
        t.yy = fmt(-2.0 * kak.coords.b);
    if (kak.coords.c != 0.0)
        t.zz = fmt(-2.0 * kak.coords.c);
    t.l1 = u3Params(kak.l1);
    t.l2 = u3Params(kak.l2);
    return t;
}

/**
 * One toQasm call's memo of block texts, keyed by the exact bits of the
 * block's matrix. A routed circuit repeats a few distinct blocks on many
 * operand pairs, and blockText is a pure function of those bits, so a
 * hit emits the same bytes without a second KAK decomposition. A bitwise
 * key never merges two matrices (it keeps -0.0 apart from +0.0).
 */
using MatBits = std::array<std::uint64_t, 2 * 16>;
using BlockMemo = std::map<MatBits, BlockText>;

void
emitUnitary2(std::string &out, const Gate &g, BlockMemo &memo)
{
    MatBits key;
    static_assert(sizeof(key) == sizeof(g.mat4->a));
    std::memcpy(key.data(), g.mat4->a.data(), sizeof(key));
    auto it = memo.find(key);
    if (it == memo.end())
        it = memo.emplace(key, blockText(*g.mat4)).first;
    const BlockText &t = it->second;

    int qa = g.qubits[0], qb = g.qubits[1];
    emitU3(out, t.r1, qa);
    emitU3(out, t.r2, qb);
    out += "rxx(" + t.xx + ") q[" + std::to_string(qa) + "],q[" +
           std::to_string(qb) + "];\n";
    if (!t.yy.empty())
        emitRyyViaRzz(out, t.yy, qa, qb);
    if (!t.zz.empty())
        emitRzz(out, t.zz, qa, qb);
    emitU3(out, t.l1, qa);
    emitU3(out, t.l2, qb);
}

} // namespace

std::string
toQasm(const Circuit &circuit)
{
    std::string out;
    out += "OPENQASM 2.0;\n";
    out += "include \"qelib1.inc\";\n";
    out += "qreg q[" + std::to_string(circuit.numQubits()) + "];\n";

    BlockMemo memo;
    for (const auto &g : circuit.gates()) {
        if (g.isBarrier()) {
            out += "barrier q;\n";
            continue;
        }
        switch (g.kind) {
          case GateKind::Unitary1Q:
            emitU3(out, u3Params(*g.mat2), g.qubits[0]);
            break;
          case GateKind::Unitary2Q:
            emitUnitary2(out, g, memo);
            break;
          case GateKind::RootISWAP: {
            // No qelib1 primitive; emit as the equivalent XX+YY rotation.
            double t = linalg::kPi / (4.0 * g.params.at(0));
            std::string theta = fmt(-2.0 * t);
            out += "rxx(" + theta + ") q[" + std::to_string(g.qubits[0]) +
                   "],q[" + std::to_string(g.qubits[1]) + "];\n";
            emitRyyViaRzz(out, theta, g.qubits[0], g.qubits[1]);
            break;
          }
          default: {
            out += g.name();
            if (!g.params.empty()) {
                out += "(";
                for (size_t i = 0; i < g.params.size(); ++i) {
                    if (i)
                        out += ",";
                    out += fmt(g.params[i]);
                }
                out += ")";
            }
            out += " ";
            for (size_t i = 0; i < g.qubits.size(); ++i) {
                if (i)
                    out += ",";
                out += "q[" + std::to_string(g.qubits[i]) + "]";
            }
            out += ";\n";
            break;
          }
        }
    }
    return out;
}

namespace {

/**
 * Reject a statement naming the same wire twice (e.g. `cx q[0],q[0];`):
 * such a gate has no meaning and would trip internal invariants
 * downstream, so it is an input error at the statement's position.
 */
void
requireDistinctOperands(const std::string &word,
                        const std::vector<int> &wires, int line, int column)
{
    for (size_t i = 0; i < wires.size(); ++i)
        for (size_t j = i + 1; j < wires.size(); ++j)
            if (wires[i] == wires[j])
                raiseAt(line, column, "%s repeats operand wire %d",
                        word.c_str(), wires[i]);
}

/** Gate-name table for the importer (inverse of Gate::name()). */
struct GateSpec
{
    GateKind kind;
    int operands;
    int params;
};

const std::map<std::string, GateSpec> &
gateTable()
{
    static const std::map<std::string, GateSpec> table = {
        {"id", {GateKind::I, 1, 0}},      {"x", {GateKind::X, 1, 0}},
        {"y", {GateKind::Y, 1, 0}},       {"z", {GateKind::Z, 1, 0}},
        {"h", {GateKind::H, 1, 0}},       {"s", {GateKind::S, 1, 0}},
        {"sdg", {GateKind::Sdg, 1, 0}},   {"t", {GateKind::T, 1, 0}},
        {"tdg", {GateKind::Tdg, 1, 0}},   {"sx", {GateKind::SX, 1, 0}},
        {"rx", {GateKind::RX, 1, 1}},     {"ry", {GateKind::RY, 1, 1}},
        {"rz", {GateKind::RZ, 1, 1}},     {"u3", {GateKind::U3, 1, 3}},
        {"cx", {GateKind::CX, 2, 0}},     {"cz", {GateKind::CZ, 2, 0}},
        {"cp", {GateKind::CP, 2, 1}},     {"crx", {GateKind::CRX, 2, 1}},
        {"cry", {GateKind::CRY, 2, 1}},   {"crz", {GateKind::CRZ, 2, 1}},
        {"swap", {GateKind::SWAP, 2, 0}}, {"iswap", {GateKind::ISWAP, 2, 0}},
        {"rxx", {GateKind::RXX, 2, 1}},   {"ryy", {GateKind::RYY, 2, 1}},
        {"rzz", {GateKind::RZZ, 2, 1}},   {"ccx", {GateKind::CCX, 3, 0}},
        {"cswap", {GateKind::CSWAP, 3, 0}},
    };
    return table;
}

/** Character-level cursor over the QASM text. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : s_(text) {}

    bool atEnd() { skipSpace(); return pos_ >= s_.size(); }

    void
    skipSpace()
    {
        while (pos_ < s_.size()) {
            char c = s_[pos_];
            if (c == '/' && pos_ + 1 < s_.size() && s_[pos_ + 1] == '/') {
                while (pos_ < s_.size() && s_[pos_] != '\n')
                    ++pos_;
            } else if (std::isspace(static_cast<unsigned char>(c))) {
                if (c == '\n') {
                    ++line_;
                    lineStart_ = pos_ + 1;
                }
                ++pos_;
            } else {
                break;
            }
        }
    }

    char
    peek()
    {
        skipSpace();
        return pos_ < s_.size() ? s_[pos_] : '\0';
    }

    bool
    consume(char c)
    {
        if (peek() != c)
            return false;
        ++pos_;
        return true;
    }

    void
    expect(char c)
    {
        if (!consume(c))
            fail("expected '%c'", c);
    }

    /** [A-Za-z_][A-Za-z0-9_]* (token start recorded for failAtToken). */
    std::string
    identifier()
    {
        skipSpace();
        markToken();
        size_t start = pos_;
        while (pos_ < s_.size() &&
               (std::isalnum(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '_'))
            ++pos_;
        if (pos_ == start)
            fail("expected identifier");
        return s_.substr(start, pos_ - start);
    }

    int
    integer()
    {
        skipSpace();
        markToken();
        size_t start = pos_;
        while (pos_ < s_.size() &&
               std::isdigit(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
        if (pos_ == start)
            fail("expected integer");
        try {
            return std::stoi(s_.substr(start, pos_ - start));
        } catch (const std::exception &) {
            failAtToken("integer out of range");
        }
    }

    // Constant expression grammar: expr := term (('+'|'-') term)*,
    // term := factor (('*'|'/') factor)*, factor := ('+'|'-') factor |
    // '(' expr ')' | number | 'pi'.
    double
    expression()
    {
        double v = term();
        for (;;) {
            if (consume('+'))
                v += term();
            else if (consume('-'))
                v -= term();
            else
                return v;
        }
    }

    void
    skipStringLiteral()
    {
        expect('"');
        while (pos_ < s_.size() && s_[pos_] != '"')
            ++pos_;
        expect('"');
    }

    int line() const { return line_; }
    /** 1-based column of the current parse position. */
    int column() const { return int(pos_ - lineStart_) + 1; }
    /** Position of the most recently started identifier/integer token. */
    int tokenLine() const { return tokLine_; }
    int tokenColumn() const { return tokCol_; }

    /** Throw a QasmError at the current parse position (printf-style). */
    [[noreturn]] void
    fail(const char *fmt, ...)
    {
        va_list args;
        va_start(args, fmt);
        std::string msg = vformat(fmt, args);
        va_end(args);
        throw QasmError(line_, column(), msg);
    }

    /** Throw at the start of the last identifier/integer token. */
    [[noreturn]] void
    failAtToken(const char *fmt, ...)
    {
        va_list args;
        va_start(args, fmt);
        std::string msg = vformat(fmt, args);
        va_end(args);
        throw QasmError(tokLine_, tokCol_, msg);
    }

  private:
    /** Record the current position as a token start. */
    void
    markToken()
    {
        tokLine_ = line_;
        tokCol_ = column();
    }
    double
    term()
    {
        double v = factor();
        for (;;) {
            if (consume('*'))
                v *= factor();
            else if (consume('/'))
                v /= factor();
            else
                return v;
        }
    }

    double
    factor()
    {
        if (consume('-'))
            return -factor();
        if (consume('+'))
            return factor();
        if (consume('(')) {
            double v = expression();
            expect(')');
            return v;
        }
        skipSpace();
        if (pos_ < s_.size() &&
            std::isalpha(static_cast<unsigned char>(s_[pos_]))) {
            std::string name = identifier();
            if (name == "pi")
                return linalg::kPi;
            failAtToken("unknown constant '%s'", name.c_str());
        }
        // In-place parse (no tail copy; strtod stops at the first
        // non-numeric character). s_ is a std::string, so c_str() is
        // NUL-terminated past the literal.
        const char *begin = s_.c_str() + pos_;
        char *end = nullptr;
        double v = std::strtod(begin, &end);
        if (end == begin)
            fail("expected number");
        pos_ += size_t(end - begin);
        return v;
    }

    const std::string &s_;
    size_t pos_ = 0;
    size_t lineStart_ = 0;
    int line_ = 1;
    int tokLine_ = 1;
    int tokCol_ = 1;
};

} // namespace

Circuit
fromQasm(const std::string &text)
{
    Parser p(text);

    // Header.
    {
        std::string kw = p.identifier();
        if (kw != "OPENQASM")
            p.failAtToken("expected OPENQASM header, got '%s'",
                          kw.c_str());
        p.expression(); // version number (e.g. 2.0)
        p.expect(';');
    }

    // Registers are concatenated into one flat wire space in declaration
    // order, matching how the exporter writes a single register "q".
    struct QReg
    {
        std::string name;
        int base;
        int size;
    };
    std::vector<QReg> qregs;
    int num_qubits = 0;

    std::vector<Gate> gates;

    auto findReg = [&](const std::string &reg) -> const QReg & {
        for (const auto &r : qregs) {
            if (r.name == reg)
                return r;
        }
        p.failAtToken("unknown register '%s'", reg.c_str());
    };

    auto wireOf = [&](const std::string &reg, int idx) {
        const QReg &r = findReg(reg);
        if (idx < 0 || idx >= r.size)
            p.failAtToken("index %d out of range for %s[%d]", idx,
                          reg.c_str(), r.size);
        return r.base + idx;
    };

    while (!p.atEnd()) {
        std::string word = p.identifier();
        const int word_line = p.tokenLine();
        const int word_col = p.tokenColumn();

        if (word == "include") {
            p.skipStringLiteral();
            p.expect(';');
            continue;
        }
        if (word == "qreg" || word == "creg") {
            std::string name = p.identifier();
            p.expect('[');
            int n = p.integer();
            // Registers share one int wire space; refuse a total that
            // would overflow it.
            if (word == "qreg" &&
                n > std::numeric_limits<int>::max() - num_qubits)
                p.failAtToken("qreg %s[%d] takes the qubit total above %d",
                              name.c_str(), n,
                              std::numeric_limits<int>::max());
            p.expect(']');
            p.expect(';');
            if (word == "qreg") {
                qregs.push_back({name, num_qubits, n});
                num_qubits += n;
            }
            continue;
        }
        if (word == "measure") {
            // measure q[i] -> c[i]; (skipped: the IR has no classical bits)
            p.identifier();
            if (p.consume('[')) {
                p.integer();
                p.expect(']');
            }
            p.expect('-');
            p.expect('>');
            p.identifier();
            if (p.consume('[')) {
                p.integer();
                p.expect(']');
            }
            p.expect(';');
            continue;
        }
        if (word == "barrier") {
            std::vector<int> qubits;
            do {
                std::string reg = p.identifier();
                if (p.consume('[')) {
                    int idx = p.integer();
                    p.expect(']');
                    qubits.push_back(wireOf(reg, idx));
                } else {
                    const auto &r = findReg(reg);
                    for (int i = 0; i < r.size; ++i)
                        qubits.push_back(r.base + i);
                }
            } while (p.consume(','));
            p.expect(';');
            requireDistinctOperands(word, qubits, word_line, word_col);
            gates.push_back(makeBarrier(std::move(qubits)));
            continue;
        }

        auto it = gateTable().find(word);
        if (it == gateTable().end())
            raiseAt(word_line, word_col, "unsupported statement '%s'",
                    word.c_str());
        const GateSpec &spec = it->second;

        std::vector<double> params;
        if (p.consume('(')) {
            do {
                params.push_back(p.expression());
            } while (p.consume(','));
            p.expect(')');
        }
        if (int(params.size()) != spec.params)
            raiseAt(word_line, word_col, "%s expects %d params, got %d",
                    word.c_str(), spec.params, int(params.size()));
        for (size_t i = 0; i < params.size(); ++i) {
            if (!std::isfinite(params[i]))
                raiseAt(word_line, word_col,
                        "%s parameter %d is not a finite number",
                        word.c_str(), int(i) + 1);
        }

        std::vector<int> qubits;
        do {
            std::string reg = p.identifier();
            p.expect('[');
            int idx = p.integer();
            p.expect(']');
            qubits.push_back(wireOf(reg, idx));
        } while (p.consume(','));
        p.expect(';');
        if (int(qubits.size()) != spec.operands)
            raiseAt(word_line, word_col, "%s expects %d operands, got %d",
                    word.c_str(), spec.operands, int(qubits.size()));
        requireDistinctOperands(word, qubits, word_line, word_col);

        Gate g;
        g.kind = spec.kind;
        g.qubits = std::move(qubits);
        g.params = std::move(params);
        gates.push_back(std::move(g));
    }

    Circuit out(num_qubits, "qasm");
    for (auto &g : gates)
        out.append(std::move(g));
    return out;
}

} // namespace mirage::circuit
