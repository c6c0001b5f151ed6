#include "asm/assembler.hh"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "isa/isa.hh"
#include "sim/logging.hh"
#include "util/bitfield.hh"
#include "util/string_utils.hh"

namespace mssp
{

namespace
{

/** One source statement after comment/label stripping. */
struct Statement
{
    int line = 0;
    std::string mnemonic;            // lower-case op or ".directive"
    std::vector<std::string> operands;
};

/** Assembly context shared between the two passes. */
struct AsmContext
{
    Program prog;
    std::map<std::string, uint32_t> constants;  // .equ values
    uint32_t locationCounter = DefaultCodeBase;
    bool sawOrg = false;
    bool entrySet = false;
    std::string entryLabel;
    int entryLine = 0;
};

[[noreturn]] void
asmError(int line, const std::string &msg)
{
    fatal("line %d: %s", line, msg.c_str());
}

/** Strip a trailing comment starting with ';', '#' or "//". */
std::string_view
stripComment(std::string_view s)
{
    for (size_t i = 0; i < s.size(); ++i) {
        if (s[i] == ';' || s[i] == '#')
            return s.substr(0, i);
        if (s[i] == '/' && i + 1 < s.size() && s[i + 1] == '/')
            return s.substr(0, i);
    }
    return s;
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.';
}

bool
isIdentifier(std::string_view s)
{
    if (s.empty())
        return false;
    if (std::isdigit(static_cast<unsigned char>(s[0])))
        return false;
    for (char c : s) {
        if (!isIdentChar(c))
            return false;
    }
    return true;
}

/** Split an operand list on commas, trimming each piece. */
std::vector<std::string>
splitOperands(std::string_view s)
{
    std::vector<std::string> out;
    s = trim(s);
    if (s.empty())
        return out;
    for (auto piece : split(s, ','))
        out.emplace_back(trim(piece));
    return out;
}

/** Parse source text into labeled statements; labels are resolved in
 *  pass 1, so this stage records them as pseudo-statements. */
std::vector<Statement>
parse(const std::string &source)
{
    std::vector<Statement> stmts;
    int line_no = 0;
    for (auto raw_line : split(source, '\n')) {
        ++line_no;
        std::string_view body = trim(stripComment(raw_line));
        // Peel off any number of leading "label:" definitions.
        while (true) {
            size_t colon = body.find(':');
            if (colon == std::string_view::npos)
                break;
            std::string_view label = trim(body.substr(0, colon));
            if (!isIdentifier(label))
                break;
            Statement s;
            s.line = line_no;
            s.mnemonic = ":label";
            s.operands.emplace_back(label);
            stmts.push_back(std::move(s));
            body = trim(body.substr(colon + 1));
        }
        if (body.empty())
            continue;
        // Mnemonic is the first whitespace-delimited token.
        size_t sp = 0;
        while (sp < body.size() &&
               !std::isspace(static_cast<unsigned char>(body[sp]))) {
            ++sp;
        }
        Statement s;
        s.line = line_no;
        s.mnemonic = toLower(body.substr(0, sp));
        s.operands = splitOperands(body.substr(sp));
        stmts.push_back(std::move(s));
    }
    return stmts;
}

/** Resolve a symbol/constant/number expression to a value. */
std::optional<int64_t>
resolveValue(const AsmContext &ctx, const std::string &expr)
{
    int64_t v;
    if (parseInt(expr, v))
        return v;
    auto it = ctx.constants.find(expr);
    if (it != ctx.constants.end())
        return static_cast<int64_t>(it->second);
    uint32_t sym;
    if (ctx.prog.lookupSymbol(expr, sym))
        return static_cast<int64_t>(sym);
    return std::nullopt;
}

int64_t
requireValue(const AsmContext &ctx, const Statement &st,
             const std::string &expr)
{
    auto v = resolveValue(ctx, expr);
    if (!v) {
        asmError(st.line,
                 strfmt("undefined symbol or bad literal '%s'",
                        expr.c_str()));
    }
    return *v;
}

uint8_t
requireReg(const Statement &st, const std::string &name)
{
    int r = regFromName(toLower(name));
    if (r < 0)
        asmError(st.line, strfmt("unknown register '%s'", name.c_str()));
    return static_cast<uint8_t>(r);
}

/** Parse a memory operand "off(reg)"; off may be a symbol/constant. */
void
parseMemOperand(const AsmContext &ctx, const Statement &st,
                const std::string &operand, uint8_t &base, int32_t &off)
{
    size_t lp = operand.find('(');
    size_t rp = operand.rfind(')');
    if (lp == std::string::npos || rp == std::string::npos || rp < lp)
        asmError(st.line, strfmt("bad memory operand '%s'",
                                 operand.c_str()));
    std::string off_str(trim(std::string_view(operand).substr(0, lp)));
    std::string reg_str(trim(std::string_view(operand)
                                 .substr(lp + 1, rp - lp - 1)));
    base = requireReg(st, reg_str);
    if (off_str.empty()) {
        off = 0;
    } else {
        int64_t v = requireValue(ctx, st, off_str);
        if (!fitsSigned(v, 16)) {
            asmError(st.line, strfmt("offset %lld out of range",
                                     static_cast<long long>(v)));
        }
        off = static_cast<int32_t>(v);
    }
}

void
requireOperands(const Statement &st, size_t n)
{
    if (st.operands.size() != n) {
        asmError(st.line,
                 strfmt("'%s' expects %zu operands, got %zu",
                        st.mnemonic.c_str(), n, st.operands.size()));
    }
}

/** Number of encoded words a statement will occupy (pass 1). */
uint32_t
statementSize(const AsmContext &ctx, const Statement &st)
{
    const std::string &m = st.mnemonic;
    if (m == ":label" || m == ".org" || m == ".equ" || m == ".entry")
        return 0;
    if (m == ".word")
        return static_cast<uint32_t>(st.operands.size());
    if (m == ".space") {
        if (st.operands.size() != 1)
            asmError(st.line, ".space expects one operand");
        int64_t n = requireValue(ctx, st, st.operands[0]);
        if (n < 0)
            asmError(st.line, ".space size must be nonnegative");
        return static_cast<uint32_t>(n);
    }
    if (m == "li") {
        // Size depends on the constant. Only pure numeric literals may
        // shrink to one word; symbols and .equ constants always take
        // two so pass-1 sizing never depends on definition order.
        if (st.operands.size() != 2)
            asmError(st.line, "li expects 2 operands");
        int64_t v;
        if (parseInt(st.operands[1], v)) {
            uint32_t uv = static_cast<uint32_t>(v);
            if (fitsSigned(v, 16) || (uv & 0xffffu) == 0)
                return 1;
        }
        return 2;
    }
    if (m == "la")
        return 2;
    return 1;   // every other mnemonic encodes to exactly one word
}

/** Emit one encoded instruction at the location counter. */
void
emit(AsmContext &ctx, const Instruction &inst)
{
    ctx.prog.setWord(ctx.locationCounter++, encode(inst));
}

int32_t
branchOffset(const AsmContext &ctx, const Statement &st,
             const std::string &target)
{
    int64_t tgt = requireValue(ctx, st, target);
    int64_t off = tgt - (static_cast<int64_t>(ctx.locationCounter) + 1);
    if (!fitsSigned(off, 16)) {
        asmError(st.line, strfmt("branch target out of range (%lld)",
                                 static_cast<long long>(off)));
    }
    return static_cast<int32_t>(off);
}

int32_t
jumpOffset(const AsmContext &ctx, const Statement &st,
           const std::string &target)
{
    int64_t tgt = requireValue(ctx, st, target);
    int64_t off = tgt - (static_cast<int64_t>(ctx.locationCounter) + 1);
    if (!fitsSigned(off, 21)) {
        asmError(st.line, strfmt("jump target out of range (%lld)",
                                 static_cast<long long>(off)));
    }
    return static_cast<int32_t>(off);
}

/** Emit `li rd, value` as one or two instructions. */
void
emitLoadImm(AsmContext &ctx, uint8_t rd, uint32_t value,
            bool force_two_words)
{
    int32_t sval = static_cast<int32_t>(value);
    if (!force_two_words && fitsSigned(sval, 16)) {
        emit(ctx, makeI(Opcode::Addi, rd, reg::Zero, sval));
        return;
    }
    if (!force_two_words && (value & 0xffffu) == 0) {
        emit(ctx, makeI(Opcode::Lui, rd, 0,
                        static_cast<int32_t>(value >> 16)));
        return;
    }
    emit(ctx, makeI(Opcode::Lui, rd, 0,
                    static_cast<int32_t>(value >> 16)));
    emit(ctx, makeI(Opcode::Ori, rd, rd,
                    static_cast<int32_t>(value & 0xffffu)));
}

/** Pass 2: encode a single statement. */
void
encodeStatement(AsmContext &ctx, const Statement &st)
{
    const std::string &m = st.mnemonic;

    // Directives ---------------------------------------------------------
    if (m == ":label" || m == ".equ" || m == ".entry")
        return;     // handled in pass 1
    if (m == ".org") {
        requireOperands(st, 1);
        ctx.locationCounter = static_cast<uint32_t>(
            requireValue(ctx, st, st.operands[0]));
        return;
    }
    if (m == ".word") {
        for (const auto &operand : st.operands) {
            ctx.prog.setWord(ctx.locationCounter++,
                static_cast<uint32_t>(requireValue(ctx, st, operand)));
        }
        return;
    }
    if (m == ".space") {
        ctx.locationCounter += static_cast<uint32_t>(
            requireValue(ctx, st, st.operands[0]));
        return;
    }
    if (m[0] == '.')
        asmError(st.line, strfmt("unknown directive '%s'", m.c_str()));

    // Pseudo-instructions --------------------------------------------------
    if (m == "li" || m == "la") {
        requireOperands(st, 2);
        uint8_t rd = requireReg(st, st.operands[0]);
        uint32_t value = static_cast<uint32_t>(
            requireValue(ctx, st, st.operands[1]));
        // Size must match pass 1: anything but a pure numeric literal
        // forces two words.
        int64_t dummy;
        bool is_literal = parseInt(st.operands[1], dummy);
        emitLoadImm(ctx, rd, value, m == "la" || !is_literal);
        return;
    }
    if (m == "mv") {
        requireOperands(st, 2);
        emit(ctx, makeI(Opcode::Addi, requireReg(st, st.operands[0]),
                        requireReg(st, st.operands[1]), 0));
        return;
    }
    if (m == "neg") {
        requireOperands(st, 2);
        emit(ctx, makeR(Opcode::Sub, requireReg(st, st.operands[0]),
                        reg::Zero, requireReg(st, st.operands[1])));
        return;
    }
    if (m == "subi") {
        requireOperands(st, 3);
        int64_t v = requireValue(ctx, st, st.operands[2]);
        emit(ctx, makeI(Opcode::Addi, requireReg(st, st.operands[0]),
                        requireReg(st, st.operands[1]),
                        static_cast<int32_t>(-v)));
        return;
    }
    if (m == "j") {
        requireOperands(st, 1);
        emit(ctx, makeJ(Opcode::Jal, reg::Zero,
                        jumpOffset(ctx, st, st.operands[0])));
        return;
    }
    if (m == "call") {
        requireOperands(st, 1);
        emit(ctx, makeJ(Opcode::Jal, reg::Ra,
                        jumpOffset(ctx, st, st.operands[0])));
        return;
    }
    if (m == "ret") {
        requireOperands(st, 0);
        emit(ctx, makeI(Opcode::Jalr, reg::Zero, reg::Ra, 0));
        return;
    }
    if (m == "beqz" || m == "bnez") {
        requireOperands(st, 2);
        uint8_t rs = requireReg(st, st.operands[0]);
        int32_t off = branchOffset(ctx, st, st.operands[1]);
        emit(ctx, makeB(m == "beqz" ? Opcode::Beq : Opcode::Bne,
                        rs, reg::Zero, off));
        return;
    }
    if (m == "bgt" || m == "ble" || m == "bgtu" || m == "bleu") {
        requireOperands(st, 3);
        uint8_t rs1 = requireReg(st, st.operands[0]);
        uint8_t rs2 = requireReg(st, st.operands[1]);
        int32_t off = branchOffset(ctx, st, st.operands[2]);
        Opcode op = (m == "bgt") ? Opcode::Blt
                  : (m == "ble") ? Opcode::Bge
                  : (m == "bgtu") ? Opcode::Bltu
                  : Opcode::Bgeu;
        emit(ctx, makeB(op, rs2, rs1, off));    // operands swapped
        return;
    }

    // Native instructions ---------------------------------------------------
    Opcode op = opcodeFromName(m);
    if (op == Opcode::Illegal)
        asmError(st.line, strfmt("unknown mnemonic '%s'", m.c_str()));

    switch (op) {
      case Opcode::Nop:
      case Opcode::Halt:
        requireOperands(st, 0);
        emit(ctx, makeN(op));
        return;
      case Opcode::Lui: {
        requireOperands(st, 2);
        uint8_t rd = requireReg(st, st.operands[0]);
        int64_t v = requireValue(ctx, st, st.operands[1]);
        emit(ctx, makeI(op, rd, 0, static_cast<int32_t>(v)));
        return;
      }
      case Opcode::Lw: {
        requireOperands(st, 2);
        uint8_t rd = requireReg(st, st.operands[0]);
        uint8_t base;
        int32_t off;
        parseMemOperand(ctx, st, st.operands[1], base, off);
        emit(ctx, makeI(op, rd, base, off));
        return;
      }
      case Opcode::Sw: {
        requireOperands(st, 2);
        uint8_t src = requireReg(st, st.operands[0]);
        uint8_t base;
        int32_t off;
        parseMemOperand(ctx, st, st.operands[1], base, off);
        emit(ctx, makeB(op, base, src, off));
        return;
      }
      case Opcode::Out: {
        requireOperands(st, 2);
        uint8_t rs = requireReg(st, st.operands[0]);
        int64_t port = requireValue(ctx, st, st.operands[1]);
        emit(ctx, makeI(op, 0, rs, static_cast<int32_t>(port)));
        return;
      }
      case Opcode::Jal: {
        // Accept both "jal target" (rd = ra) and "jal rd, target".
        if (st.operands.size() == 1) {
            emit(ctx, makeJ(op, reg::Ra,
                            jumpOffset(ctx, st, st.operands[0])));
        } else {
            requireOperands(st, 2);
            emit(ctx, makeJ(op, requireReg(st, st.operands[0]),
                            jumpOffset(ctx, st, st.operands[1])));
        }
        return;
      }
      case Opcode::Jalr: {
        requireOperands(st, 3);
        emit(ctx, makeI(op, requireReg(st, st.operands[0]),
                        requireReg(st, st.operands[1]),
                        static_cast<int32_t>(
                            requireValue(ctx, st, st.operands[2]))));
        return;
      }
      case Opcode::Fork: {
        requireOperands(st, 1);
        emit(ctx, makeJ(op, 0, static_cast<int32_t>(
                            requireValue(ctx, st, st.operands[0]))));
        return;
      }
      default:
        break;
    }

    switch (formatOf(op)) {
      case Format::R: {
        requireOperands(st, 3);
        emit(ctx, makeR(op, requireReg(st, st.operands[0]),
                        requireReg(st, st.operands[1]),
                        requireReg(st, st.operands[2])));
        return;
      }
      case Format::I: {
        requireOperands(st, 3);
        int64_t v = requireValue(ctx, st, st.operands[2]);
        emit(ctx, makeI(op, requireReg(st, st.operands[0]),
                        requireReg(st, st.operands[1]),
                        static_cast<int32_t>(v)));
        return;
      }
      case Format::B: {
        requireOperands(st, 3);
        uint8_t rs1 = requireReg(st, st.operands[0]);
        uint8_t rs2 = requireReg(st, st.operands[1]);
        emit(ctx, makeB(op, rs1, rs2,
                        branchOffset(ctx, st, st.operands[2])));
        return;
      }
      default:
        asmError(st.line, strfmt("cannot encode '%s'", m.c_str()));
    }
}

} // anonymous namespace

Program
assemble(const std::string &source)
{
    std::vector<Statement> stmts = parse(source);
    AsmContext ctx;

    // Pass 1: assign addresses, bind labels and constants.
    bool first_code_seen = false;
    for (const auto &st : stmts) {
        if (st.mnemonic == ":label") {
            ctx.prog.defineSymbol(st.operands[0], ctx.locationCounter);
            continue;
        }
        if (st.mnemonic == ".equ") {
            if (st.operands.size() != 2)
                asmError(st.line, ".equ expects name, value");
            auto v = resolveValue(ctx, st.operands[1]);
            if (!v) {
                asmError(st.line, strfmt("bad .equ value '%s'",
                                         st.operands[1].c_str()));
            }
            ctx.constants[st.operands[0]] =
                static_cast<uint32_t>(*v);
            continue;
        }
        if (st.mnemonic == ".entry") {
            if (st.operands.size() != 1)
                asmError(st.line, ".entry expects one operand");
            ctx.entrySet = true;
            ctx.entryLabel = st.operands[0];
            ctx.entryLine = st.line;
            continue;
        }
        if (st.mnemonic == ".org") {
            if (st.operands.size() != 1)
                asmError(st.line, ".org expects one operand");
            auto v = resolveValue(ctx, st.operands[0]);
            if (!v)
                asmError(st.line, "bad .org address");
            ctx.locationCounter = static_cast<uint32_t>(*v);
            ctx.sawOrg = true;
            continue;
        }
        if (!first_code_seen && st.mnemonic[0] != '.') {
            ctx.prog.setEntry(ctx.locationCounter);
            first_code_seen = true;
        }
        ctx.locationCounter += statementSize(ctx, st);
    }

    // Pass 2: encode.
    ctx.locationCounter = DefaultCodeBase;
    ctx.sawOrg = false;
    for (const auto &st : stmts)
        encodeStatement(ctx, st);

    // Entry point resolution.
    if (ctx.entrySet) {
        Statement fake;
        fake.line = ctx.entryLine;
        ctx.prog.setEntry(static_cast<uint32_t>(
            requireValue(ctx, fake, ctx.entryLabel)));
    } else {
        uint32_t start;
        if (ctx.prog.lookupSymbol("_start", start))
            ctx.prog.setEntry(start);
    }
    return ctx.prog;
}

} // namespace mssp
