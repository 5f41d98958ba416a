/**
 * @file
 * Unit tests for the register file and the execution controller's
 * classical instruction semantics, including the MD scoreboard
 * interlock.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "isa/assembler.hh"
#include "isa/nametable.hh"
#include "quma/execcontroller.hh"
#include "quma/machine.hh"

namespace quma::core {
namespace {

// ------------------------------------------------------------ registerfile

TEST(RegisterFile, R0IsHardwiredZero)
{
    RegisterFile rf;
    rf.write(0, 123);
    EXPECT_EQ(rf.read(0), 0);
    rf.markPending(0);
    EXPECT_FALSE(rf.pending(0));
}

TEST(RegisterFile, ReadWrite)
{
    RegisterFile rf;
    rf.write(7, -42);
    EXPECT_EQ(rf.read(7), -42);
    rf.reset();
    EXPECT_EQ(rf.read(7), 0);
}

TEST(RegisterFile, PendingCountsDown)
{
    RegisterFile rf;
    rf.markPending(7, 2);
    EXPECT_TRUE(rf.pending(7));
    rf.writeBack(7, 1, false, 0);
    EXPECT_TRUE(rf.pending(7));
    rf.writeBack(7, 1, false, 1);
    EXPECT_FALSE(rf.pending(7));
    EXPECT_EQ(rf.read(7), 0b11);
}

TEST(RegisterFile, OverwriteVsBitWriteback)
{
    RegisterFile rf;
    rf.write(5, 0xff);
    rf.writeBack(5, 0, true, 0);
    EXPECT_EQ(rf.read(5), 0);
    rf.write(5, 0b100);
    rf.writeBack(5, 1, false, 1);
    EXPECT_EQ(rf.read(5), 0b110);
    rf.writeBack(5, 0, false, 2);
    EXPECT_EQ(rf.read(5), 0b010);
}

// -------------------------------------------------- classical ISA semantics

/**
 * Run a pure-classical program on a minimal machine and return the
 * machine for register/memory inspection.
 */
struct ExecCase
{
    const char *name;
    const char *source;
    RegIndex reg;
    std::int64_t expected;
};

class ClassicalSemantics : public ::testing::TestWithParam<ExecCase>
{};

TEST_P(ClassicalSemantics, ComputesExpectedValue)
{
    const auto &c = GetParam();
    MachineConfig cfg;
    QumaMachine m(cfg);
    m.loadAssembly(std::string(c.source) + "\nhalt\n");
    auto result = m.run(1'000'000);
    EXPECT_TRUE(result.halted);
    EXPECT_EQ(m.registers().read(c.reg), c.expected) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Ops, ClassicalSemantics,
    ::testing::Values(
        ExecCase{"mov", "mov r1, 42", 1, 42},
        ExecCase{"mov_negative", "mov r1, -17", 1, -17},
        ExecCase{"add", "mov r1, 5\nmov r2, 7\nadd r3, r1, r2", 3, 12},
        ExecCase{"addi", "mov r1, 5\naddi r1, r1, 1", 1, 6},
        ExecCase{"sub", "mov r1, 5\nmov r2, 7\nsub r3, r1, r2", 3, -2},
        ExecCase{"and", "mov r1, 12\nmov r2, 10\nand r3, r1, r2", 3, 8},
        ExecCase{"or", "mov r1, 12\nmov r2, 10\nor r3, r1, r2", 3, 14},
        ExecCase{"xor", "mov r1, 12\nmov r2, 10\nxor r3, r1, r2", 3, 6},
        ExecCase{"shl", "mov r1, 3\nshl r2, r1, 4", 2, 48},
        ExecCase{"shr", "mov r1, 48\nshr r2, r1, 4", 2, 3},
        ExecCase{"store_load",
                 "mov r1, 99\nmov r2, 8\nstore r1, r2[2]\n"
                 "load r3, r2[2]",
                 3, 99},
        ExecCase{"beq_taken",
                 "mov r1, 1\nmov r2, 1\nbeq r1, r2, skip\nmov r3, 5\n"
                 "skip:\naddi r3, r3, 1",
                 3, 1},
        ExecCase{"bne_not_taken",
                 "mov r1, 1\nmov r2, 1\nbne r1, r2, skip\nmov r3, 5\n"
                 "skip:\naddi r3, r3, 1",
                 3, 6},
        ExecCase{"blt", "mov r1, -2\nmov r2, 3\nblt r1, r2, skip\n"
                        "mov r3, 9\nskip:\naddi r3, r3, 1",
                 3, 1},
        ExecCase{"bge", "mov r1, 3\nmov r2, 3\nbge r1, r2, skip\n"
                        "mov r3, 9\nskip:\naddi r3, r3, 1",
                 3, 1},
        ExecCase{"loop_sum",
                 "mov r1, 0\nmov r2, 10\nmov r3, 0\n"
                 "L:\nadd r3, r3, r1\naddi r1, r1, 1\nbne r1, r2, L",
                 3, 45},
        ExecCase{"r0_ignores_writes", "mov r0, 7\nadd r1, r0, r0", 1,
                 0}),
    [](const auto &info) { return info.param.name; });

TEST(QuantumPipeline, BackpressureAtExactlyTheBufferDepth)
{
    // The QMB takes an expansion whole or not at all: depth 5 holds
    // two Apply expansions (Pulse + Wait each) and then one Wait.
    namespace u = isa::uops;
    timing::TimingController tcu;
    TraceRecorder trace;
    QubitRouting routing{{0}, {0}};
    QuantumPipeline qp(microcode::QControlStore::standard(), routing, tcu,
                       trace, /*buffer_depth=*/5);
    auto apply = isa::Instruction::apply(u::X180, 0x1);
    EXPECT_TRUE(qp.tryDispatch(apply));
    EXPECT_TRUE(qp.tryDispatch(apply));
    EXPECT_EQ(qp.backlog(), 4u);
    EXPECT_FALSE(qp.tryDispatch(apply)); // 4 + 2 > 5
    EXPECT_EQ(qp.backlog(), 4u);
    EXPECT_TRUE(qp.tryDispatch(isa::Instruction::wait(4)));
    EXPECT_EQ(qp.backlog(), 5u); // exactly the depth
    EXPECT_FALSE(qp.tryDispatch(isa::Instruction::wait(4)));

    // Draining one entry frees exactly one slot.
    qp.drainAt(0);
    EXPECT_EQ(qp.backlog(), 4u);
    EXPECT_EQ(qp.microInstsIssued(), 1u);
    EXPECT_TRUE(qp.tryDispatch(isa::Instruction::wait(4)));
    EXPECT_FALSE(qp.tryDispatch(isa::Instruction::wait(4)));
    EXPECT_EQ(tcu.pulseQueueSnapshot(0).size(), 1u);
}

TEST(ExecController, HaltStopsExecution)
{
    MachineConfig cfg;
    QumaMachine m(cfg);
    m.loadAssembly("mov r1, 1\nhalt\nmov r1, 2\n");
    m.run(10000);
    EXPECT_EQ(m.registers().read(1), 1);
}

TEST(ExecController, RunsOffEndHalts)
{
    MachineConfig cfg;
    QumaMachine m(cfg);
    m.loadAssembly("mov r1, 3");
    auto r = m.run(10000);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(m.registers().read(1), 3);
}

TEST(ExecController, QNopRegRejectsNonPositiveWait)
{
    setLogQuiet(true);
    MachineConfig cfg;
    QumaMachine m(cfg);
    m.loadAssembly("mov r15, 0\nQNopReg r15\nhalt");
    EXPECT_THROW(m.run(10000), FatalError);
    setLogQuiet(false);
}

TEST(ExecController, DataMemoryBoundsChecked)
{
    setLogQuiet(true);
    MachineConfig cfg;
    cfg.exec.dataMemoryWords = 16;
    QumaMachine m(cfg);
    m.loadAssembly("mov r1, 100\nstore r1, r1[0]\nhalt");
    EXPECT_THROW(m.run(10000), FatalError);
    setLogQuiet(false);
}

TEST(ExecController, StatsCountInstructionKinds)
{
    MachineConfig cfg;
    QumaMachine m(cfg);
    m.loadAssembly(R"(
        mov r1, 1
        Wait 10
        Pulse {q0}, I
        Wait 500
        halt
    )");
    m.run(100000);
    const auto &stats = m.execController().stats();
    EXPECT_EQ(stats.quantumDispatched, 3u);
    EXPECT_GE(stats.classicalExecuted, 2u);
}

TEST(ExecController, MdScoreboardStallsReader)
{
    // The add reading r7 must wait for the MD write-back: r2 must
    // reflect whatever the MDU produced, never the stale pre-MD
    // value of r7 (which is poisoned to 55 first).
    MachineConfig cfg;
    QumaMachine m(cfg);
    m.loadAssembly(R"(
        mov r7, 55
        Wait 10
        Pulse {q0}, X180
        Wait 10
        MPG {q0}, 300
        MD {q0}, r7
        mov r1, 100
        add r2, r7, r1
        Wait 600
        halt
    )");
    auto r = m.run(1'000'000);
    EXPECT_TRUE(r.halted);
    EXPECT_GT(m.execController().stats().registerStalls, 0u);
    std::int64_t bit = m.registers().read(7);
    EXPECT_TRUE(bit == 0 || bit == 1);
    EXPECT_EQ(m.registers().read(2), bit + 100);
}

TEST(ExecController, VliwIssueWidthExecutesFaster)
{
    auto countCycles = [](unsigned width) {
        MachineConfig cfg;
        cfg.exec.issueWidth = width;
        QumaMachine m(cfg);
        // A purely classical burst: no quantum backpressure.
        std::string src;
        for (int i = 0; i < 64; ++i)
            src += "addi r1, r1, 1\n";
        src += "halt";
        m.loadAssembly(src);
        return m.run(100000).cyclesRun;
    };
    EXPECT_LT(countCycles(4), countCycles(1));
}

} // namespace
} // namespace quma::core
