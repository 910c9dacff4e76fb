#include "isa/assembler.h"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <string>
#include <utility>

#include "isa/encoding.h"
#include "util/bits.h"
#include "util/logging.h"

namespace strober {
namespace isa {

namespace {

/** Context for error messages. */
struct LineRef
{
    int number;
    const std::string *text;
};

[[noreturn]] void
asmError(const LineRef &line, const std::string &msg)
{
    fatal("assembler line %d: %s\n  | %s", line.number, msg.c_str(),
          line.text->c_str());
}

int
regNumber(const std::string &name)
{
    static const std::map<std::string, int> abi = {
        {"zero", 0}, {"ra", 1},  {"sp", 2},  {"gp", 3},  {"tp", 4},
        {"t0", 5},   {"t1", 6},  {"t2", 7},  {"s0", 8},  {"fp", 8},
        {"s1", 9},   {"a0", 10}, {"a1", 11}, {"a2", 12}, {"a3", 13},
        {"a4", 14},  {"a5", 15}, {"a6", 16}, {"a7", 17}, {"s2", 18},
        {"s3", 19},  {"s4", 20}, {"s5", 21}, {"s6", 22}, {"s7", 23},
        {"s8", 24},  {"s9", 25}, {"s10", 26}, {"s11", 27}, {"t3", 28},
        {"t4", 29},  {"t5", 30}, {"t6", 31}};
    auto it = abi.find(name);
    if (it != abi.end())
        return it->second;
    if (name.size() >= 2 && name[0] == 'x') {
        int n = 0;
        for (size_t i = 1; i < name.size(); ++i) {
            if (!std::isdigit(static_cast<unsigned char>(name[i])))
                return -1;
            n = n * 10 + (name[i] - '0');
        }
        return n <= 31 ? n : -1;
    }
    return -1;
}

uint32_t
csrNumber(const std::string &name, const LineRef &line)
{
    if (name == "cycle")
        return kCsrCycle;
    if (name == "instret")
        return kCsrInstret;
    if (name == "cycleh")
        return kCsrCycleH;
    if (name == "instreth")
        return kCsrInstretH;
    if (name == "hpmcounter3" || name == "imiss")
        return kCsrHpm3;
    if (name == "hpmcounter4" || name == "dmiss")
        return kCsrHpm4;
    if (name.rfind("0x", 0) == 0)
        return static_cast<uint32_t>(std::stoul(name, nullptr, 16));
    asmError(line, "unknown CSR '" + name + "'");
}

/** Tokenized instruction line: mnemonic + comma-separated operands. */
struct Stmt
{
    std::string mnemonic;
    std::vector<std::string> operands;
    LineRef line;
};

std::string
trim(const std::string &s)
{
    size_t a = s.find_first_not_of(" \t\r");
    if (a == std::string::npos)
        return "";
    size_t b = s.find_last_not_of(" \t\r");
    return s.substr(a, b - a + 1);
}

/** Parse "imm(reg)" into offset expression and register. */
bool
splitMemOperand(const std::string &op, std::string &offset, std::string &reg)
{
    size_t open = op.find('(');
    if (open == std::string::npos || op.back() != ')')
        return false;
    std::string imm = trim(op.substr(0, open));
    offset = imm.empty() ? std::string(1, '0') : std::move(imm);
    reg = trim(op.substr(open + 1, op.size() - open - 2));
    return true;
}

class Assembler
{
  public:
    Assembler(const std::string &source, uint32_t base) : baseAddr(base)
    {
        parse(source);
    }

    Program
    run()
    {
        // Pass 1: lay out statements and record label addresses.
        layout();
        // Pass 2: encode with all symbols known.
        Program p;
        p.base = baseAddr;
        p.entry = baseAddr;
        p.symbols = symbols;
        p.words.assign((topAddr - baseAddr) / 4, 0);
        encodeAll(p);
        return p;
    }

  private:
    uint32_t baseAddr;
    uint32_t topAddr = 0;
    std::vector<std::string> lines; //!< raw text kept for diagnostics
    std::vector<Stmt> stmts;
    std::vector<uint32_t> stmtAddr;
    std::map<std::string, uint32_t> symbols;

    void
    parse(const std::string &source)
    {
        std::istringstream in(source);
        std::string raw;
        int lineNo = 0;
        while (std::getline(in, raw)) {
            ++lineNo;
            lines.push_back(raw);
        }
        for (int i = 0; i < static_cast<int>(lines.size()); ++i) {
            std::string text = lines[i];
            size_t hash = text.find('#');
            if (hash != std::string::npos)
                text = text.substr(0, hash);
            size_t slashes = text.find("//");
            if (slashes != std::string::npos)
                text = text.substr(0, slashes);
            text = trim(text);

            // Peel off leading labels.
            for (;;) {
                size_t colon = text.find(':');
                if (colon == std::string::npos)
                    break;
                std::string label = trim(text.substr(0, colon));
                if (label.empty() || label.find(' ') != std::string::npos ||
                    label.find('\t') != std::string::npos) {
                    break; // ':' inside an operand — not a label
                }
                Stmt s;
                s.mnemonic = ":label";
                s.operands = {label};
                s.line = {i + 1, &lines[i]};
                stmts.push_back(s);
                text = trim(text.substr(colon + 1));
            }
            if (text.empty())
                continue;

            Stmt s;
            s.line = {i + 1, &lines[i]};
            size_t sp = text.find_first_of(" \t");
            if (sp == std::string::npos) {
                s.mnemonic = text;
            } else {
                s.mnemonic = text.substr(0, sp);
                std::string rest = trim(text.substr(sp + 1));
                std::string cur;
                int depth = 0;
                for (char c : rest) {
                    if (c == '(')
                        ++depth;
                    if (c == ')')
                        --depth;
                    if (c == ',' && depth == 0) {
                        s.operands.push_back(trim(cur));
                        cur.clear();
                    } else {
                        cur += c;
                    }
                }
                if (!trim(cur).empty())
                    s.operands.push_back(trim(cur));
            }
            std::transform(s.mnemonic.begin(), s.mnemonic.end(),
                           s.mnemonic.begin(),
                           [](unsigned char c) { return std::tolower(c); });
            stmts.push_back(s);
        }
    }

    /** Number of 32-bit words a statement occupies (pass-stable). */
    uint32_t
    sizeWords(const Stmt &s, uint32_t addr)
    {
        const std::string &m = s.mnemonic;
        if (m == ":label")
            return 0;
        if (m == ".word")
            return static_cast<uint32_t>(s.operands.size());
        if (m == ".space") {
            uint32_t bytes = parseNumber(s.operands.at(0), s.line);
            if (bytes % 4)
                asmError(s.line, ".space must be a multiple of 4");
            return bytes / 4;
        }
        if (m == ".align") {
            uint32_t align = parseNumber(s.operands.at(0), s.line);
            if (!isPow2(align) || align < 4)
                asmError(s.line, ".align takes a power-of-two >= 4");
            uint32_t next = (addr + align - 1) & ~(align - 1);
            return (next - addr) / 4;
        }
        if (m == ".org") {
            uint32_t target = parseNumber(s.operands.at(0), s.line);
            if (target < addr)
                asmError(s.line, ".org moves backwards");
            if ((target - addr) % 4)
                asmError(s.line, ".org misaligned");
            return (target - addr) / 4;
        }
        if (m == "li") {
            // Immediate value known in pass 1: exact size. Labels: 2.
            if (isNumber(s.operands.at(1))) {
                int64_t v = parseSigned(s.operands[1], s.line);
                return fitsImm12(v) ? 1 : 2;
            }
            return 2;
        }
        if (m == "la")
            return 2;
        return 1; // every other instruction/pseudo is one word
    }

    void
    layout()
    {
        uint32_t addr = baseAddr;
        stmtAddr.resize(stmts.size());
        for (size_t i = 0; i < stmts.size(); ++i) {
            const Stmt &s = stmts[i];
            stmtAddr[i] = addr;
            if (s.mnemonic == ":label") {
                const std::string &label = s.operands[0];
                if (symbols.count(label))
                    asmError(s.line, "duplicate label '" + label + "'");
                symbols[label] = addr;
                continue;
            }
            addr += 4 * sizeWords(s, addr);
        }
        topAddr = addr;
    }

    static bool
    isNumber(const std::string &t)
    {
        if (t.empty())
            return false;
        size_t i = (t[0] == '-' || t[0] == '+') ? 1 : 0;
        if (i >= t.size())
            return false;
        return std::isdigit(static_cast<unsigned char>(t[i])) != 0;
    }

    uint32_t
    parseNumber(const std::string &t, const LineRef &line)
    {
        return static_cast<uint32_t>(parseSigned(t, line));
    }

    int64_t
    parseSigned(const std::string &t, const LineRef &line)
    {
        try {
            size_t used = 0;
            long long v = std::stoll(t, &used, 0);
            if (used != t.size())
                asmError(line, "trailing junk in number '" + t + "'");
            return v;
        } catch (const std::exception &) {
            asmError(line, "bad number '" + t + "'");
        }
    }

    /** Evaluate a symbol, number, or symbol+number expression. */
    int64_t
    evalExpr(const std::string &t, const LineRef &line)
    {
        if (isNumber(t))
            return parseSigned(t, line);
        size_t plus = t.find('+');
        std::string sym = plus == std::string::npos ? t : trim(t.substr(0, plus));
        int64_t off = 0;
        if (plus != std::string::npos)
            off = parseSigned(trim(t.substr(plus + 1)), line);
        auto it = symbols.find(sym);
        if (it == symbols.end())
            asmError(line, "undefined symbol '" + sym + "'");
        return static_cast<int64_t>(it->second) + off;
    }

    static bool fitsImm12(int64_t v) { return v >= -2048 && v <= 2047; }

    int
    reg(const Stmt &s, size_t idx)
    {
        if (idx >= s.operands.size())
            asmError(s.line, "missing operand");
        int r = regNumber(s.operands[idx]);
        if (r < 0)
            asmError(s.line, "bad register '" + s.operands[idx] + "'");
        return r;
    }

    int64_t
    imm(const Stmt &s, size_t idx)
    {
        if (idx >= s.operands.size())
            asmError(s.line, "missing operand");
        return evalExpr(s.operands[idx], s.line);
    }

    int32_t
    branchOffset(const Stmt &s, size_t idx, uint32_t pc)
    {
        int64_t target = imm(s, idx);
        int64_t off = target - static_cast<int64_t>(pc);
        if (off < -4096 || off > 4094 || (off & 1))
            asmError(s.line, "branch target out of range");
        return static_cast<int32_t>(off);
    }

    int32_t
    jalOffset(const Stmt &s, size_t idx, uint32_t pc)
    {
        int64_t target = imm(s, idx);
        int64_t off = target - static_cast<int64_t>(pc);
        if (off < -(1 << 20) || off >= (1 << 20) || (off & 1))
            asmError(s.line, "jump target out of range");
        return static_cast<int32_t>(off);
    }

    void
    emit(Program &p, uint32_t &addr, uint32_t word)
    {
        p.words.at((addr - baseAddr) / 4) = word;
        addr += 4;
    }

    void
    emitLi(Program &p, uint32_t &addr, int rd, int64_t value,
           const LineRef &line, bool forceTwo)
    {
        if (value < INT32_MIN || value > static_cast<int64_t>(UINT32_MAX))
            asmError(line, "immediate does not fit in 32 bits");
        int32_t v = static_cast<int32_t>(value);
        if (!forceTwo && fitsImm12(v)) {
            emit(p, addr, encodeI(v, 0, 0, rd, 0x13));
            return;
        }
        int32_t hi = (v + 0x800) & 0xfffff000;
        int32_t lo = v - hi;
        emit(p, addr, encodeU(hi, rd, 0x37));
        emit(p, addr, encodeI(lo, rd, 0, rd, 0x13));
    }

    void
    encodeAll(Program &p)
    {
        for (size_t i = 0; i < stmts.size(); ++i) {
            const Stmt &s = stmts[i];
            uint32_t addr = stmtAddr[i];
            encodeStmt(p, s, addr);
        }
    }

    void
    encodeStmt(Program &p, const Stmt &s, uint32_t addr)
    {
        const std::string &m = s.mnemonic;
        const LineRef &ln = s.line;
        if (m == ":label")
            return;

        // --- Directives -------------------------------------------------
        if (m == ".word") {
            for (const std::string &op : s.operands)
                emit(p, addr, static_cast<uint32_t>(evalExpr(op, ln)));
            return;
        }
        if (m == ".space" || m == ".align" || m == ".org")
            return; // zero fill, already laid out

        // --- Pseudo-instructions ---------------------------------------
        if (m == "nop") {
            emit(p, addr, encodeI(0, 0, 0, 0, 0x13));
            return;
        }
        if (m == "li") {
            int rd = reg(s, 0);
            bool forceTwo = !isNumber(s.operands.at(1));
            emitLi(p, addr, rd, imm(s, 1), ln, forceTwo);
            return;
        }
        if (m == "la") {
            int rd = reg(s, 0);
            emitLi(p, addr, rd, imm(s, 1), ln, /*forceTwo=*/true);
            return;
        }
        if (m == "mv") {
            emit(p, addr, encodeI(0, reg(s, 1), 0, reg(s, 0), 0x13));
            return;
        }
        if (m == "not") {
            emit(p, addr, encodeI(-1, reg(s, 1), 4, reg(s, 0), 0x13));
            return;
        }
        if (m == "neg") {
            emit(p, addr, encodeR(0x20, reg(s, 1), 0, 0, reg(s, 0), 0x33));
            return;
        }
        if (m == "seqz") {
            emit(p, addr, encodeI(1, reg(s, 1), 3, reg(s, 0), 0x13));
            return;
        }
        if (m == "snez") {
            emit(p, addr, encodeR(0, reg(s, 1), 0, 3, reg(s, 0), 0x33));
            return;
        }
        if (m == "j") {
            emit(p, addr, encodeJ(jalOffset(s, 0, addr), 0, 0x6f));
            return;
        }
        if (m == "call") {
            emit(p, addr, encodeJ(jalOffset(s, 0, addr), 1, 0x6f));
            return;
        }
        if (m == "jr") {
            emit(p, addr, encodeI(0, reg(s, 0), 0, 0, 0x67));
            return;
        }
        if (m == "ret") {
            emit(p, addr, encodeI(0, 1, 0, 0, 0x67));
            return;
        }
        if (m == "beqz" || m == "bnez" || m == "bltz" || m == "bgez" ||
            m == "bgtz" || m == "blez") {
            int rs = reg(s, 0);
            int32_t off = branchOffset(s, 1, addr);
            if (m == "beqz")
                emit(p, addr, encodeB(off, 0, rs, 0, 0x63));
            else if (m == "bnez")
                emit(p, addr, encodeB(off, 0, rs, 1, 0x63));
            else if (m == "bltz")
                emit(p, addr, encodeB(off, 0, rs, 4, 0x63));
            else if (m == "bgez")
                emit(p, addr, encodeB(off, 0, rs, 5, 0x63));
            else if (m == "bgtz") // 0 < rs
                emit(p, addr, encodeB(off, rs, 0, 4, 0x63));
            else // blez: 0 >= ... i.e. rs <= 0 -> 0 >= rs -> bge 0, rs
                emit(p, addr, encodeB(off, rs, 0, 5, 0x63));
            return;
        }
        if (m == "bgt" || m == "ble" || m == "bgtu" || m == "bleu") {
            int a = reg(s, 0), b = reg(s, 1);
            int32_t off = branchOffset(s, 2, addr);
            if (m == "bgt")
                emit(p, addr, encodeB(off, a, b, 4, 0x63)); // blt b,a
            else if (m == "ble")
                emit(p, addr, encodeB(off, a, b, 5, 0x63)); // bge b,a
            else if (m == "bgtu")
                emit(p, addr, encodeB(off, a, b, 6, 0x63));
            else
                emit(p, addr, encodeB(off, a, b, 7, 0x63));
            return;
        }
        if (m == "csrr") {
            emit(p, addr, encodeI(static_cast<int32_t>(
                                      csrNumber(s.operands.at(1), ln)),
                                  0, 2, reg(s, 0), 0x73));
            return;
        }
        if (m == "rdcycle" || m == "rdinstret") {
            uint32_t csr = m == "rdcycle" ? kCsrCycle : kCsrInstret;
            emit(p, addr,
                 encodeI(static_cast<int32_t>(csr), 0, 2, reg(s, 0), 0x73));
            return;
        }
        if (m == "ecall") {
            emit(p, addr, 0x00000073u);
            return;
        }
        if (m == "fence") {
            emit(p, addr, 0x0000000fu);
            return;
        }

        // --- Real instructions -----------------------------------------
        struct RSpec { unsigned f7, f3; };
        static const std::map<std::string, RSpec> rops = {
            {"add", {0x00, 0}}, {"sub", {0x20, 0}}, {"sll", {0x00, 1}},
            {"slt", {0x00, 2}}, {"sltu", {0x00, 3}}, {"xor", {0x00, 4}},
            {"srl", {0x00, 5}}, {"sra", {0x20, 5}}, {"or", {0x00, 6}},
            {"and", {0x00, 7}}, {"mul", {0x01, 0}}, {"mulh", {0x01, 1}},
            {"mulhsu", {0x01, 2}}, {"mulhu", {0x01, 3}}, {"div", {0x01, 4}},
            {"divu", {0x01, 5}}, {"rem", {0x01, 6}}, {"remu", {0x01, 7}}};
        auto rit = rops.find(m);
        if (rit != rops.end()) {
            emit(p, addr, encodeR(rit->second.f7, reg(s, 2), reg(s, 1),
                                  rit->second.f3, reg(s, 0), 0x33));
            return;
        }

        static const std::map<std::string, unsigned> iops = {
            {"addi", 0}, {"slti", 2}, {"sltiu", 3}, {"xori", 4},
            {"ori", 6}, {"andi", 7}};
        auto iit = iops.find(m);
        if (iit != iops.end()) {
            int64_t v = imm(s, 2);
            if (!fitsImm12(v))
                asmError(ln, "immediate out of 12-bit range");
            emit(p, addr, encodeI(static_cast<int32_t>(v), reg(s, 1),
                                  iit->second, reg(s, 0), 0x13));
            return;
        }
        if (m == "slli" || m == "srli" || m == "srai") {
            int64_t sh = imm(s, 2);
            if (sh < 0 || sh > 31)
                asmError(ln, "shift amount out of range");
            unsigned f3 = m == "slli" ? 1 : 5;
            unsigned f7 = m == "srai" ? 0x20 : 0;
            emit(p, addr, encodeR(f7, static_cast<unsigned>(sh), reg(s, 1),
                                  f3, reg(s, 0), 0x13));
            return;
        }

        static const std::map<std::string, unsigned> loads = {
            {"lb", 0}, {"lh", 1}, {"lw", 2}, {"lbu", 4}, {"lhu", 5}};
        auto lit = loads.find(m);
        if (lit != loads.end()) {
            std::string off, base;
            if (!splitMemOperand(s.operands.at(1), off, base))
                asmError(ln, "expected imm(reg) operand");
            int64_t o = evalExpr(off, ln);
            if (!fitsImm12(o))
                asmError(ln, "load offset out of range");
            int baseReg = regNumber(base);
            if (baseReg < 0)
                asmError(ln, "bad base register '" + base + "'");
            emit(p, addr, encodeI(static_cast<int32_t>(o), baseReg,
                                  lit->second, reg(s, 0), 0x03));
            return;
        }

        static const std::map<std::string, unsigned> stores = {
            {"sb", 0}, {"sh", 1}, {"sw", 2}};
        auto sit = stores.find(m);
        if (sit != stores.end()) {
            std::string off, base;
            if (!splitMemOperand(s.operands.at(1), off, base))
                asmError(ln, "expected imm(reg) operand");
            int64_t o = evalExpr(off, ln);
            if (!fitsImm12(o))
                asmError(ln, "store offset out of range");
            int baseReg = regNumber(base);
            if (baseReg < 0)
                asmError(ln, "bad base register '" + base + "'");
            emit(p, addr, encodeS(static_cast<int32_t>(o), reg(s, 0),
                                  baseReg, sit->second, 0x23));
            return;
        }

        static const std::map<std::string, unsigned> branches = {
            {"beq", 0}, {"bne", 1}, {"blt", 4}, {"bge", 5},
            {"bltu", 6}, {"bgeu", 7}};
        auto bit = branches.find(m);
        if (bit != branches.end()) {
            emit(p, addr, encodeB(branchOffset(s, 2, addr), reg(s, 1),
                                  reg(s, 0), bit->second, 0x63));
            return;
        }

        if (m == "lui" || m == "auipc") {
            int64_t v = imm(s, 1);
            if (v < 0 || v > 0xfffff)
                asmError(ln, "U-type immediate out of range");
            emit(p, addr, encodeU(static_cast<int32_t>(v << 12), reg(s, 0),
                                  m == "lui" ? 0x37 : 0x17));
            return;
        }
        if (m == "jal") {
            // jal rd, label  |  jal label (rd = ra)
            if (s.operands.size() == 1) {
                emit(p, addr, encodeJ(jalOffset(s, 0, addr), 1, 0x6f));
            } else {
                emit(p, addr,
                     encodeJ(jalOffset(s, 1, addr), reg(s, 0), 0x6f));
            }
            return;
        }
        if (m == "jalr") {
            // jalr rd, imm(rs)  |  jalr rs
            if (s.operands.size() == 1) {
                emit(p, addr, encodeI(0, reg(s, 0), 0, 1, 0x67));
                return;
            }
            std::string off, base;
            if (!splitMemOperand(s.operands.at(1), off, base))
                asmError(ln, "expected imm(reg) operand");
            int baseReg = regNumber(base);
            if (baseReg < 0)
                asmError(ln, "bad base register");
            emit(p, addr, encodeI(static_cast<int32_t>(evalExpr(off, ln)),
                                  baseReg, 0, reg(s, 0), 0x67));
            return;
        }

        asmError(ln, "unknown mnemonic '" + m + "'");
    }
};

} // namespace

uint32_t
Program::symbol(const std::string &name) const
{
    auto it = symbols.find(name);
    if (it == symbols.end())
        fatal("no symbol named '%s'", name.c_str());
    return it->second;
}

Program
assemble(const std::string &source, uint32_t base)
{
    Assembler a(source, base);
    return a.run();
}

} // namespace isa
} // namespace strober
