// Tier-2 (native x86-64) BPF execution: three-tier equivalence property
// sweep, exact abort semantics, W^X mapping lifecycle, the non-x86-64
// fallback policy, the program cache's jit/stats extensions, and the
// speed gate over threaded dispatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "capbench/bpf/analysis/fact_table.hpp"
#include "capbench/bpf/asm_text.hpp"
#include "capbench/bpf/decoded.hpp"
#include "capbench/bpf/filter/codegen.hpp"
#include "capbench/bpf/jit/assembler.hpp"
#include "capbench/bpf/jit/exec_memory.hpp"
#include "capbench/bpf/jit/jit_program.hpp"
#include "capbench/bpf/program_cache.hpp"
#include "capbench/bpf/threaded_vm.hpp"
#include "capbench/bpf/validator.hpp"
#include "capbench/bpf/verifier.hpp"
#include "capbench/bpf/vm.hpp"
#include "capbench/harness/experiment.hpp"
#include "capbench/net/link.hpp"
#include "capbench/pktgen/pktgen.hpp"
#include "capbench/sim/simulator.hpp"

#include "bpf_random_program.hpp"
#include "sanitizers.hpp"

namespace capbench::bpf {
namespace {

DecodedProgram decode_standalone(const Program& prog) {
    return decode(prog, analysis::FactTable::build(prog));
}

// ---- three-tier equivalence property sweep --------------------------------

TEST(JitTierEquivalence, ThousandRandomProgramsMatchByteForByte) {
    if (!JitProgram::supported()) GTEST_SKIP() << "no native tier on this build";
    std::mt19937 rng{20260809};
    int programs = 0;
    int aborts_seen = 0;
    while (programs < 1000) {
        const Program prog = testgen::random_program(rng);
        ASSERT_EQ(validate(prog), std::nullopt) << disassemble(prog);
        ++programs;
        const DecodedProgram decoded = decode_standalone(prog);
        const auto jitted = JitProgram::compile(decoded);

        for (int trial = 0; trial < 4; ++trial) {
            std::vector<std::byte> data(rng() % 100);
            for (auto& b : data) b = static_cast<std::byte>(rng() & 0xFF);
            // wire_len >= data.size(): truncated captures included.
            const auto wire = static_cast<std::uint32_t>(data.size() + rng() % 64);
            const VmResult interp = Vm::run(prog, data, wire);
            const VmResult threaded = ThreadedVm::run(decoded, data, wire);
            const VmResult jit = jitted->run(data, wire);
            ASSERT_EQ(interp.accept_len, jit.accept_len)
                << disassemble(prog) << "data size " << data.size() << " wire " << wire;
            ASSERT_EQ(interp.aborted, jit.aborted) << disassemble(prog);
            ASSERT_EQ(interp.insns_executed, jit.insns_executed) << disassemble(prog);
            ASSERT_EQ(threaded.accept_len, jit.accept_len) << disassemble(prog);
            ASSERT_EQ(threaded.insns_executed, jit.insns_executed) << disassemble(prog);
            if (interp.aborted) ++aborts_seen;
        }
    }
    // The generator must actually exercise the abort paths for the
    // equivalence claim to mean anything.
    EXPECT_GT(aborts_seen, 0);
}

// ---- abort semantics -------------------------------------------------------

TEST(JitAbort, DivisionByXZeroCountsTheFaultingInstruction) {
    if (!JitProgram::supported()) GTEST_SKIP() << "no native tier on this build";
    // X = pkt[0]; A = 100; A /= X; ret A — the divisor is data-dependent.
    const Program prog = {
        stmt(BPF_LDX | BPF_B | BPF_MSH, 0),  // X = 4 * (pkt[0] & 0x0F)
        stmt(BPF_LD | BPF_IMM, 100),
        stmt(BPF_ALU | BPF_DIV | BPF_X, 0),
        stmt(BPF_RET | BPF_A, 0),
    };
    const auto jitted = JitProgram::compile(decode_standalone(prog));

    const std::vector<std::byte> zero{std::byte{0x20}};  // low nibble 0 -> X = 0
    const VmResult faulted = jitted->run(zero, 1);
    EXPECT_TRUE(faulted.aborted);
    EXPECT_EQ(faulted.accept_len, 0u);
    EXPECT_EQ(faulted.insns_executed, 3u);  // the div itself is counted

    const std::vector<std::byte> five{std::byte{0x05}};  // X = 20
    const VmResult ok = jitted->run(five, 1);
    EXPECT_FALSE(ok.aborted);
    EXPECT_EQ(ok.accept_len, 5u);  // 100 / 20
    EXPECT_EQ(ok.insns_executed, 4u);
}

TEST(JitAbort, OutOfBoundsLoadMatchesInterpreterExactly) {
    if (!JitProgram::supported()) GTEST_SKIP() << "no native tier on this build";
    const Program prog = {
        stmt(BPF_LD | BPF_W | BPF_ABS, 100),
        stmt(BPF_RET | BPF_A, 0),
    };
    const auto jitted = JitProgram::compile(decode_standalone(prog));
    const std::vector<std::byte> tiny(4, std::byte{0xAB});
    const VmResult interp = Vm::run(prog, tiny, 4);
    const VmResult jit = jitted->run(tiny, 4);
    EXPECT_TRUE(jit.aborted);
    EXPECT_EQ(jit.accept_len, interp.accept_len);
    EXPECT_EQ(jit.insns_executed, interp.insns_executed);
    EXPECT_EQ(jit.insns_executed, 1u);

    // Boundary: exactly enough bytes for the last word succeeds.
    std::vector<std::byte> exact(104, std::byte{0});
    exact[100] = std::byte{0x12};
    exact[103] = std::byte{0x34};
    const VmResult hit = jitted->run(exact, 104);
    EXPECT_FALSE(hit.aborted);
    EXPECT_EQ(hit.accept_len, 0x12000034u);
}

TEST(JitAbort, FallthroughOffTheEndHitsTheDefensiveFaultPath) {
    if (!JitProgram::supported()) GTEST_SKIP() << "no native tier on this build";
    // The verifier forbids fallthrough, so hand-build the decoded form: one
    // plain instruction, no RET.  The interpreter semantics for the same
    // source ({ld #5}) reject after executing the one instruction.
    DecodedProgram prog;
    prog.insns.push_back(DecodedInsn{Tok::kLdImm, 0, 5, 0, 0});
    const auto jitted = JitProgram::compile(prog);
    const VmResult r = jitted->run({}, 0);
    EXPECT_TRUE(r.aborted);
    EXPECT_EQ(r.accept_len, 0u);
    EXPECT_EQ(r.insns_executed, 1u);

    const VmResult interp = Vm::run({stmt(BPF_LD | BPF_IMM, 5)}, {}, 0);
    EXPECT_EQ(r.aborted, interp.aborted);
    EXPECT_EQ(r.insns_executed, interp.insns_executed);
}

TEST(JitAbort, EmptyProgramAbortsLikeTheThreadedTier) {
    if (!JitProgram::supported()) GTEST_SKIP() << "no native tier on this build";
    const DecodedProgram empty;
    const auto jitted = JitProgram::compile(empty);
    const VmResult jit = jitted->run({}, 0);
    const VmResult threaded = ThreadedVm::run(empty, {}, 0);
    EXPECT_EQ(jit.aborted, threaded.aborted);
    EXPECT_EQ(jit.insns_executed, threaded.insns_executed);
    EXPECT_EQ(jit.accept_len, threaded.accept_len);
}

// ---- fact-driven elisions --------------------------------------------------

TEST(JitElision, DeadStoreIsFlaggedSkippedAndStillCounted) {
    // A store whose slot is never read is liveness-dead: flagged at decode
    // time, elided from the emitted code, still counted as executed.
    const Program dead = {
        stmt(BPF_LD | BPF_IMM, 7),
        stmt(BPF_ST, 3),  // M[3] never read
        stmt(BPF_LD | BPF_IMM, 9),
        stmt(BPF_RET | BPF_A, 0),
    };
    const DecodedProgram decoded = decode_standalone(dead);
    EXPECT_NE(decoded.insns[1].flags & kDecodedDeadStore, 0);
    EXPECT_EQ(decoded.stats.dead_stores, 1u);

    const Program live = {
        stmt(BPF_LD | BPF_IMM, 7),
        stmt(BPF_ST, 3),
        stmt(BPF_LD | BPF_W | BPF_MEM, 3),
        stmt(BPF_RET | BPF_A, 0),
    };
    const DecodedProgram live_decoded = decode_standalone(live);
    EXPECT_EQ(live_decoded.insns[1].flags & kDecodedDeadStore, 0);
    EXPECT_EQ(live_decoded.stats.dead_stores, 0u);

    if (!JitProgram::supported()) return;
    const VmResult jit = JitProgram::compile(decoded)->run({}, 0);
    const VmResult interp = Vm::run(dead, {}, 0);
    EXPECT_EQ(jit.accept_len, interp.accept_len);
    EXPECT_EQ(jit.insns_executed, interp.insns_executed);  // 4: the store counts
    EXPECT_EQ(jit.insns_executed, 4u);

    const VmResult live_jit = JitProgram::compile(live_decoded)->run({}, 0);
    EXPECT_EQ(live_jit.accept_len, 7u);
}

TEST(JitElision, CodegenIsDeterministicPerProgram) {
    std::mt19937 rng{7};
    for (int i = 0; i < 20; ++i) {
        const Program prog = testgen::random_program(rng);
        const DecodedProgram decoded = decode_standalone(prog);
        EXPECT_EQ(jit::compile_to_bytes(decoded), jit::compile_to_bytes(decoded));
    }
}

// ---- W^X mapping lifecycle -------------------------------------------------

TEST(JitExecMemory, MapsSealsRunsAndUnmaps) {
    if (!jit::ExecMemory::supported()) GTEST_SKIP() << "no native tier on this build";
    // mov eax, 42; ret — the smallest executable round trip.
    jit::Assembler a;
    a.mov_ri32(jit::Reg::rax, 42);
    a.ret();
    const std::vector<std::uint8_t> code = a.finish();

    jit::ExecMemory mem(code);
    ASSERT_NE(mem.entry(), nullptr);
    EXPECT_EQ(mem.code_size(), code.size());
    EXPECT_GE(mem.mapped_size(), mem.code_size());
    EXPECT_EQ(mem.mapped_size() % 4096, 0u);

    using Fn = std::uint32_t (*)();
    const auto fn = reinterpret_cast<Fn>(const_cast<void*>(mem.entry()));
    EXPECT_EQ(fn(), 42u);

    // Moves transfer ownership; the moved-from mapping must not double-free.
    jit::ExecMemory moved(std::move(mem));
    EXPECT_EQ(mem.entry(), nullptr);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(reinterpret_cast<Fn>(const_cast<void*>(moved.entry()))(), 42u);
}

TEST(JitExecMemory, RepeatedCompileFreeCyclesDoNotLeak) {
    if (!JitProgram::supported()) GTEST_SKIP() << "no native tier on this build";
    // Exercised under the ASan/LSan CI pass: any leaked mapping or freed
    // code pointer shows up there.
    std::mt19937 rng{99};
    for (int i = 0; i < 64; ++i) {
        const Program prog = testgen::random_program(rng);
        const auto jitted = JitProgram::compile(decode_standalone(prog));
        const std::vector<std::byte> data(64, std::byte{0x11});
        (void)jitted->run(data, 64);
    }
}

TEST(JitExecMemory, RejectsEmptyCode) {
    if (!jit::ExecMemory::supported()) GTEST_SKIP() << "no native tier on this build";
    EXPECT_THROW(jit::ExecMemory{std::vector<std::uint8_t>{}}, std::runtime_error);
}

// ---- tier selection & fallback --------------------------------------------

TEST(JitTierSelect, ParseAcceptsJit) {
    EXPECT_EQ(parse_exec_tier("jit"), ExecTier::kJit);
    EXPECT_THROW(parse_exec_tier("JIT"), std::runtime_error);
    EXPECT_THROW(parse_exec_tier("native"), std::runtime_error);
}

TEST(JitTierSelect, EffectiveTierFallsBackToThreadedWithoutNativeSupport) {
    EXPECT_EQ(effective_tier(ExecTier::kJit, true), ExecTier::kJit);
    EXPECT_EQ(effective_tier(ExecTier::kJit, false), ExecTier::kThreaded);
    EXPECT_EQ(effective_tier(ExecTier::kThreaded, false), ExecTier::kThreaded);
    EXPECT_EQ(effective_tier(ExecTier::kInterpreter, false), ExecTier::kInterpreter);
    EXPECT_EQ(effective_tier(ExecTier::kInterpreter, true), ExecTier::kInterpreter);
}

TEST(JitTierSelect, CompileThrowsOnUnsupportedBuilds) {
    if (JitProgram::supported()) GTEST_SKIP() << "native tier available here";
    EXPECT_THROW(JitProgram::compile(DecodedProgram{}), std::runtime_error);
}

// ---- program cache ---------------------------------------------------------

Program unique_program(std::uint32_t tag) {
    return {stmt(BPF_LD | BPF_IMM, 0xCAFE0000u + tag), stmt(BPF_RET | BPF_A, 0)};
}

TEST(JitProgramCache, HitMissAndCompileCountsAreWinnerOnly) {
    const Program prog = unique_program(101);
    const CacheStats before = cache_stats();

    const CachedFilter first = cache_filter(prog, false);
    ASSERT_NE(first.decoded, nullptr);
    EXPECT_EQ(first.jit, nullptr);
    EXPECT_GT(first.decoded->id, 0u);

    const CachedFilter second = cache_filter(prog, false);
    EXPECT_EQ(second.decoded.get(), first.decoded.get());

    CacheStats after = cache_stats();
    EXPECT_EQ(after.lookups - before.lookups, 2u);
    EXPECT_EQ(after.misses - before.misses, 1u);
    EXPECT_EQ(after.hits - before.hits, 1u);
    EXPECT_EQ(after.jit_compiles - before.jit_compiles, 0u);

    if (!JitProgram::supported()) return;
    // A later jit-tier install upgrades the same entry: compiled once,
    // shared afterwards, same program id.
    const CachedFilter jit1 = cache_filter(prog, true);
    ASSERT_NE(jit1.jit, nullptr);
    EXPECT_EQ(jit1.decoded.get(), first.decoded.get());
    const CachedFilter jit2 = cache_filter(prog, true);
    EXPECT_EQ(jit2.jit.get(), jit1.jit.get());

    after = cache_stats();
    EXPECT_EQ(after.lookups - before.lookups, 4u);
    EXPECT_EQ(after.misses - before.misses, 1u);  // still the one decode
    EXPECT_EQ(after.hits - before.hits, 3u);
    EXPECT_EQ(after.jit_compiles - before.jit_compiles, 1u);

    const VmResult r = jit1.jit->run({}, 0);
    EXPECT_EQ(r.accept_len, 0xCAFE0065u);
}

TEST(JitProgramCache, JitRequestOnFreshProgramCompilesWithTheMiss) {
    if (!JitProgram::supported()) GTEST_SKIP() << "no native tier on this build";
    const Program prog = unique_program(202);
    const CacheStats before = cache_stats();
    const CachedFilter cached = cache_filter(prog, true);
    ASSERT_NE(cached.jit, nullptr);
    ASSERT_NE(cached.decoded, nullptr);
    const CacheStats after = cache_stats();
    EXPECT_EQ(after.misses - before.misses, 1u);
    EXPECT_EQ(after.jit_compiles - before.jit_compiles, 1u);
    EXPECT_EQ(after.hits - before.hits, 0u);
}

// ---- speed gate over threaded dispatch --------------------------------------

/// One full-bytes frame of `size` bytes as the generator builds it (the
/// frames the Figure 6.6 runs filter).
std::vector<std::byte> generated_frame(std::uint32_t size) {
    sim::Simulator sim;
    net::Link link{sim};
    pktgen::GenConfig cfg;
    cfg.count = 1;
    cfg.packet_size = size;
    cfg.full_bytes = true;
    pktgen::Generator gen{sim, link, pktgen::GenNicModel::syskonnect(), std::move(cfg)};
    struct Sink : net::FrameSink {
        net::PacketPtr packet;
        void on_frame(const net::PacketPtr& p) override { packet = p; }
    } sink;
    link.attach(sink);
    gen.start(sim::SimTime{});
    sim.run();
    const auto bytes = sink.packet->bytes();
    return {bytes.begin(), bytes.end()};
}

// The native tier must beat verifier-backed threaded dispatch by a clear
// margin, not just noise, on the optimized Figure 6.5 program over a
// frame-size mix.  Each tier keeps the fastest of several interleaved
// timings, so a burst of load on a shared host slows both or neither.
TEST(JitSpeed, BeatsThreadedDispatchOnTheFig65Filter) {
    if (!JitProgram::supported()) GTEST_SKIP() << "no native tier on this build";
    if (sanitizers_active()) GTEST_SKIP() << "sanitizer instrumentation distorts the timings";
    const Program prog = filter::compile_filter(harness::fig_6_5_filter_expression(), 1515);
    const DecodedProgram decoded = decode(prog, verify(prog).facts);
    const auto jitted = JitProgram::compile(decoded);
    std::vector<std::vector<std::byte>> frames;
    for (const std::uint32_t size : {64u, 128u, 256u, 645u, 1024u, 1514u})
        frames.push_back(generated_frame(size));

    constexpr int kRuns = 100'000;
    std::uint64_t threaded_sum = 0;
    std::uint64_t jit_sum = 0;
    const auto seconds = [&](auto run) {
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < kRuns; ++i) run(frames[i % frames.size()]);
        return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    };
    double threaded_s = std::numeric_limits<double>::infinity();
    double jit_s = std::numeric_limits<double>::infinity();
    for (int round = 0; round < 7; ++round) {
        threaded_s = std::min(threaded_s, seconds([&](const std::vector<std::byte>& frame) {
            threaded_sum += ThreadedVm::run(decoded, frame).accept_len;
        }));
        jit_s = std::min(jit_s, seconds([&](const std::vector<std::byte>& frame) {
            jit_sum += jitted->run(frame, static_cast<std::uint32_t>(frame.size())).accept_len;
        }));
    }
    // The verdicts feed an assertion, so neither loop can be optimized away.
    EXPECT_EQ(threaded_sum, jit_sum);
    EXPECT_GT(jit_sum, 0u);
    EXPECT_GE(threaded_s / jit_s, 1.5)
        << "threaded " << threaded_s << " s, jit " << jit_s << " s over " << kRuns << " runs";
}

}  // namespace
}  // namespace capbench::bpf
