// Tests for the BPF instruction set, interpreter and validator.
#include <gtest/gtest.h>

#include <vector>

#include "capbench/bpf/asm_text.hpp"
#include "capbench/bpf/insn.hpp"
#include "capbench/bpf/validator.hpp"
#include "capbench/bpf/vm.hpp"

namespace capbench::bpf {
namespace {

std::vector<std::byte> bytes(std::initializer_list<int> values) {
    std::vector<std::byte> out;
    for (const int v : values) out.push_back(static_cast<std::byte>(v));
    return out;
}

TEST(Vm, AcceptAllAndRejectAll) {
    const auto data = bytes({1, 2, 3, 4});
    EXPECT_EQ(Vm::run(accept_all(), data).accept_len, 0xFFFFFFFFu);
    EXPECT_EQ(Vm::run(reject_all(), data).accept_len, 0u);
}

TEST(Vm, LoadsAbsoluteWordHalfByte) {
    const auto data = bytes({0x11, 0x22, 0x33, 0x44, 0x55});
    const Program word{stmt(BPF_LD | BPF_W | BPF_ABS, 0), stmt(BPF_RET | BPF_A, 0)};
    EXPECT_EQ(Vm::run(word, data).accept_len, 0x11223344u);
    const Program half{stmt(BPF_LD | BPF_H | BPF_ABS, 1), stmt(BPF_RET | BPF_A, 0)};
    EXPECT_EQ(Vm::run(half, data).accept_len, 0x2233u);
    const Program byte{stmt(BPF_LD | BPF_B | BPF_ABS, 4), stmt(BPF_RET | BPF_A, 0)};
    EXPECT_EQ(Vm::run(byte, data).accept_len, 0x55u);
}

TEST(Vm, OutOfBoundsLoadRejects) {
    const auto data = bytes({1, 2});
    const Program prog{stmt(BPF_LD | BPF_W | BPF_ABS, 0), stmt(BPF_RET | BPF_K, 99)};
    const auto result = Vm::run(prog, data);
    EXPECT_EQ(result.accept_len, 0u);
    EXPECT_EQ(result.insns_executed, 1u);
}

TEST(Vm, IndirectLoadUsesX) {
    const auto data = bytes({0, 0, 0, 0xAB});
    const Program prog{stmt(BPF_LDX | BPF_W | BPF_IMM, 2),
                       stmt(BPF_LD | BPF_B | BPF_IND, 1),  // data[2+1]
                       stmt(BPF_RET | BPF_A, 0)};
    EXPECT_EQ(Vm::run(prog, data).accept_len, 0xABu);
}

TEST(Vm, MshComputesIpHeaderLength) {
    // Byte 0x47 -> IHL 7 -> X = 28.
    const auto data = bytes({0x47});
    const Program prog{stmt(BPF_LDX | BPF_B | BPF_MSH, 0), Insn{BPF_MISC | BPF_TXA, 0, 0, 0},
                       stmt(BPF_RET | BPF_A, 0)};
    EXPECT_EQ(Vm::run(prog, data).accept_len, 28u);
}

TEST(Vm, LenLoadsWireLength) {
    const auto data = bytes({1, 2});
    const Program prog{stmt(BPF_LD | BPF_W | BPF_LEN, 0), stmt(BPF_RET | BPF_A, 0)};
    EXPECT_EQ(Vm::run(prog, data, 1514).accept_len, 1514u);
}

TEST(Vm, ScratchMemoryStoresAndLoads) {
    const auto data = bytes({});
    const Program prog{stmt(BPF_LD | BPF_IMM, 77), stmt(BPF_ST, 3),
                       stmt(BPF_LD | BPF_IMM, 0), stmt(BPF_LD | BPF_W | BPF_MEM, 3),
                       stmt(BPF_RET | BPF_A, 0)};
    EXPECT_EQ(Vm::run(prog, data).accept_len, 77u);
}

TEST(Vm, StxAndLdxMem) {
    const auto data = bytes({});
    const Program prog{stmt(BPF_LDX | BPF_W | BPF_IMM, 55), stmt(BPF_STX, 7),
                       stmt(BPF_LD | BPF_W | BPF_MEM, 7), stmt(BPF_RET | BPF_A, 0)};
    EXPECT_EQ(Vm::run(prog, data).accept_len, 55u);
}

// gtest prints an AluCase as its raw bytes and ctest names each case after
// that print, so the struct must have no padding: a 16-bit op would leave two
// uninitialised bytes in every test name.
struct AluCase {
    std::uint32_t op;
    std::uint32_t a;
    std::uint32_t k;
    std::uint32_t expect;
};
static_assert(sizeof(AluCase) == 16, "AluCase must have no padding");

class VmAluTest : public ::testing::TestWithParam<AluCase> {};

TEST_P(VmAluTest, ComputesK) {
    const auto c = GetParam();
    const Program prog{stmt(BPF_LD | BPF_IMM, c.a), stmt(BPF_ALU | c.op | BPF_K, c.k),
                       stmt(BPF_RET | BPF_A, 0)};
    EXPECT_EQ(Vm::run(prog, {}).accept_len, c.expect);
}

TEST_P(VmAluTest, ComputesX) {
    const auto c = GetParam();
    if (c.op == BPF_NEG) GTEST_SKIP() << "NEG has no X form";
    const Program prog{stmt(BPF_LDX | BPF_W | BPF_IMM, c.k), stmt(BPF_LD | BPF_IMM, c.a),
                       stmt(BPF_ALU | c.op | BPF_X, 0), stmt(BPF_RET | BPF_A, 0)};
    EXPECT_EQ(Vm::run(prog, {}).accept_len, c.expect);
}

INSTANTIATE_TEST_SUITE_P(
    AluOps, VmAluTest,
    ::testing::Values(AluCase{BPF_ADD, 7, 3, 10}, AluCase{BPF_SUB, 7, 3, 4},
                      AluCase{BPF_MUL, 7, 3, 21}, AluCase{BPF_DIV, 7, 3, 2},
                      AluCase{BPF_OR, 0xF0, 0x0F, 0xFF}, AluCase{BPF_AND, 0xF0, 0x30, 0x30},
                      AluCase{BPF_LSH, 1, 4, 16}, AluCase{BPF_RSH, 16, 4, 1},
                      AluCase{BPF_ADD, 0xFFFFFFFF, 1, 0},   // wraparound
                      AluCase{BPF_SUB, 0, 1, 0xFFFFFFFF}));  // underflow wraps

TEST(Vm, NegNegates) {
    const Program prog{stmt(BPF_LD | BPF_IMM, 5), stmt(BPF_ALU | BPF_NEG, 0),
                       stmt(BPF_RET | BPF_A, 0)};
    EXPECT_EQ(Vm::run(prog, {}).accept_len, static_cast<std::uint32_t>(-5));
}

TEST(Vm, DivisionByZeroRejects) {
    const Program prog{stmt(BPF_LDX | BPF_W | BPF_IMM, 0), stmt(BPF_LD | BPF_IMM, 7),
                       stmt(BPF_ALU | BPF_DIV | BPF_X, 0), stmt(BPF_RET | BPF_K, 1)};
    EXPECT_EQ(Vm::run(prog, {}).accept_len, 0u);
}

TEST(Vm, ShiftBeyondWidthYieldsZero) {
    const Program prog{stmt(BPF_LD | BPF_IMM, 0xFFFF), stmt(BPF_ALU | BPF_LSH | BPF_K, 33),
                       stmt(BPF_RET | BPF_A, 0)};
    EXPECT_EQ(Vm::run(prog, {}).accept_len, 0u);
}

TEST(Vm, ConditionalJumpsTakeCorrectBranch) {
    const auto make = [](std::uint16_t op, std::uint32_t a, std::uint32_t k) {
        return Program{stmt(BPF_LD | BPF_IMM, a), jump(BPF_JMP | op | BPF_K, k, 0, 1),
                       stmt(BPF_RET | BPF_K, 1), stmt(BPF_RET | BPF_K, 0)};
    };
    EXPECT_EQ(Vm::run(make(BPF_JEQ, 5, 5), {}).accept_len, 1u);
    EXPECT_EQ(Vm::run(make(BPF_JEQ, 5, 6), {}).accept_len, 0u);
    EXPECT_EQ(Vm::run(make(BPF_JGT, 6, 5), {}).accept_len, 1u);
    EXPECT_EQ(Vm::run(make(BPF_JGT, 5, 5), {}).accept_len, 0u);
    EXPECT_EQ(Vm::run(make(BPF_JGE, 5, 5), {}).accept_len, 1u);
    EXPECT_EQ(Vm::run(make(BPF_JGE, 4, 5), {}).accept_len, 0u);
    EXPECT_EQ(Vm::run(make(BPF_JSET, 0x6, 0x2), {}).accept_len, 1u);
    EXPECT_EQ(Vm::run(make(BPF_JSET, 0x4, 0x2), {}).accept_len, 0u);
}

TEST(Vm, UnconditionalJumpSkips) {
    const Program prog{jump(BPF_JMP | BPF_JA, 1, 0, 0), stmt(BPF_RET | BPF_K, 0),
                       stmt(BPF_RET | BPF_K, 42)};
    EXPECT_EQ(Vm::run(prog, {}).accept_len, 42u);
}

TEST(Vm, TaxTxaTransfer) {
    const Program prog{stmt(BPF_LD | BPF_IMM, 9), Insn{BPF_MISC | BPF_TAX, 0, 0, 0},
                       stmt(BPF_LD | BPF_IMM, 0), Insn{BPF_MISC | BPF_TXA, 0, 0, 0},
                       stmt(BPF_RET | BPF_A, 0)};
    EXPECT_EQ(Vm::run(prog, {}).accept_len, 9u);
}

TEST(Vm, CountsExecutedInstructions) {
    const Program prog{stmt(BPF_LD | BPF_IMM, 1), stmt(BPF_LD | BPF_IMM, 2),
                       stmt(BPF_RET | BPF_K, 1)};
    EXPECT_EQ(Vm::run(prog, {}).insns_executed, 3u);
}

TEST(Vm, RetXFormsRejected) {
    // bpf has no RET|X; rval must be K or A.  Unknown rval returns via the
    // validator; the VM treats rval != A as K.
    const Program prog{stmt(BPF_RET | BPF_K, 7)};
    EXPECT_EQ(Vm::run(prog, {}).accept_len, 7u);
}

// ---- validator ----------------------------------------------------------------

TEST(Validator, AcceptsCanonicalPrograms) {
    EXPECT_EQ(validate(accept_all()), std::nullopt);
    EXPECT_EQ(validate(reject_all()), std::nullopt);
}

TEST(Validator, RejectsEmptyAndOversized) {
    EXPECT_NE(validate({}), std::nullopt);
    Program huge(kMaxInsns + 1, stmt(BPF_RET | BPF_K, 0));
    EXPECT_NE(validate(huge), std::nullopt);
}

TEST(Validator, RejectsMissingRet) {
    const Program prog{stmt(BPF_LD | BPF_IMM, 1)};
    EXPECT_NE(validate(prog), std::nullopt);
}

TEST(Validator, RejectsJumpOutOfRange) {
    const Program prog{jump(BPF_JMP | BPF_JEQ | BPF_K, 0, 5, 0), stmt(BPF_RET | BPF_K, 0)};
    EXPECT_NE(validate(prog), std::nullopt);
    const Program ja{jump(BPF_JMP | BPF_JA, 5, 0, 0), stmt(BPF_RET | BPF_K, 0)};
    EXPECT_NE(validate(ja), std::nullopt);
}

TEST(Validator, RejectsJumpToEndOfProgram) {
    // Offset that lands exactly one past the last instruction.
    const Program prog{jump(BPF_JMP | BPF_JA, 1, 0, 0), stmt(BPF_RET | BPF_K, 0)};
    EXPECT_NE(validate(prog), std::nullopt);
}

TEST(Validator, RejectsConstantDivByZero) {
    const Program prog{stmt(BPF_ALU | BPF_DIV | BPF_K, 0), stmt(BPF_RET | BPF_K, 0)};
    EXPECT_NE(validate(prog), std::nullopt);
}

TEST(Validator, RejectsScratchOutOfRange) {
    const Program st{stmt(BPF_ST, kMemWords), stmt(BPF_RET | BPF_K, 0)};
    EXPECT_NE(validate(st), std::nullopt);
    const Program ld{stmt(BPF_LD | BPF_W | BPF_MEM, kMemWords), stmt(BPF_RET | BPF_K, 0)};
    EXPECT_NE(validate(ld), std::nullopt);
}

TEST(Validator, RejectsUnknownOpcodes) {
    const Program prog{Insn{0xFFFF, 0, 0, 0}, stmt(BPF_RET | BPF_K, 0)};
    EXPECT_NE(validate(prog), std::nullopt);
}

TEST(Validator, RejectsJunkBitsInKnownClasses) {
    // Opcodes whose class decodes but which carry stray mode/source bits.
    // Class-based masking used to let these through; exact enumeration
    // (like sk_chk_filter) must reject them.
    const auto invalid_single = [](std::uint16_t code) {
        const Program prog{stmt(code, 0), stmt(BPF_RET | BPF_K, 0)};
        return validate(prog) != std::nullopt;
    };
    EXPECT_TRUE(invalid_single(0x0d));                       // JA with the X source bit
    EXPECT_TRUE(invalid_single(BPF_ALU | BPF_NEG | BPF_X));  // NEG takes no source
    EXPECT_TRUE(invalid_single(BPF_ST | 0x20));              // ST with a mode bit
    EXPECT_TRUE(invalid_single(BPF_STX | 0x40));
    EXPECT_TRUE(invalid_single(BPF_MISC | 0x08));            // neither TAX nor TXA
    const Program ret_junk{stmt((BPF_RET | BPF_K) | 0x20, 0)};
    EXPECT_NE(validate(ret_junk), std::nullopt);
}

TEST(Validator, AcceptsDegenerateConditionalJump) {
    // jt == jf is pointless but legal; both offsets must still be range
    // checked (the analyzer warns about it and the optimizer collapses it).
    const Program prog{
        stmt(BPF_LD | BPF_B | BPF_ABS, 0),
        jump(BPF_JMP | BPF_JEQ | BPF_K, 5, 1, 1),
        stmt(BPF_RET | BPF_K, 1),  // skipped by both edges
        stmt(BPF_RET | BPF_K, 2),
    };
    EXPECT_EQ(validate(prog), std::nullopt);
    const Program out_of_range{
        jump(BPF_JMP | BPF_JEQ | BPF_K, 5, 2, 2),  // both edges out of range
        stmt(BPF_RET | BPF_K, 0),
    };
    EXPECT_NE(validate(out_of_range), std::nullopt);
}

TEST(Validator, ThrowHelperThrows) {
    EXPECT_THROW(validate_or_throw({}), std::invalid_argument);
    EXPECT_NO_THROW(validate_or_throw(accept_all()));
}

// ---- disassembler --------------------------------------------------------------

TEST(AsmText, DisassemblesRepresentativeOpcodes) {
    EXPECT_EQ(disassemble_insn(stmt(BPF_LD | BPF_H | BPF_ABS, 12)), "ldh [12]");
    EXPECT_EQ(disassemble_insn(jump(BPF_JMP | BPF_JEQ | BPF_K, 0x800, 2, 5)),
              "jeq #0x800 jt 2 jf 5");
    EXPECT_EQ(disassemble_insn(stmt(BPF_RET | BPF_K, 96)), "ret #96");
    EXPECT_EQ(disassemble_insn(stmt(BPF_LDX | BPF_B | BPF_MSH, 14)), "ldxb 4*([14]&0xf)");
    EXPECT_EQ(disassemble_insn(stmt(BPF_ALU | BPF_AND | BPF_K, 0x1FFF)), "and #0x1fff");
    EXPECT_EQ(disassemble_insn(jump(BPF_JMP | BPF_JA, 3, 0, 0)), "ja +3");
}

TEST(AsmText, ProgramListingHasLineNumbers) {
    const auto text = disassemble(accept_all());
    EXPECT_NE(text.find("(000) ret #"), std::string::npos);
}

}  // namespace
}  // namespace capbench::bpf
