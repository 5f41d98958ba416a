/**
 * @file
 * Allocation-growth guard for the machine's decode and dispatch path.
 *
 * The microcode unit, the QMB and the timing queues are fixed
 * hardware in the paper (a table lookup, a buffer of fixed depth and
 * fixed-capacity queues), so a warmed-up QumaMachine::run must not
 * call the heap once per instruction. This binary replaces the global
 * operator new to count calls, which is why it is its own test
 * executable (and stays out of the sanitizer lane).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "common/rng.hh"
#include "compiler/codegen.hh"
#include "experiments/rb.hh"
#include "quma/machine.hh"

// ------------------------------------------------------------ alloc probe
//
// Counts operator new calls and bytes while g_countAllocs is set.

namespace {
std::atomic<std::uint64_t> g_allocCount{0};
std::atomic<std::uint64_t> g_allocBytes{0};
std::atomic<bool> g_countAllocs{false};
} // namespace

// The replaced operators pair malloc with free consistently; GCC
// cannot see that and reports a mismatched allocation function.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(std::size_t size)
{
    if (g_countAllocs.load(std::memory_order_relaxed)) {
        g_allocCount.fetch_add(1, std::memory_order_relaxed);
        g_allocBytes.fetch_add(size, std::memory_order_relaxed);
    }
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

#pragma GCC diagnostic pop

namespace quma {
namespace {

struct AllocCount
{
    std::uint64_t calls = 0;
    std::uint64_t bytes = 0;
};

template <typename Fn>
AllocCount
countAllocs(Fn &&fn)
{
    g_allocCount.store(0);
    g_allocBytes.store(0);
    g_countAllocs.store(true);
    fn();
    g_countAllocs.store(false);
    return {g_allocCount.load(), g_allocBytes.load()};
}

/** One RB sequence of `cliffords` Cliffords on qubit 0, measured. */
isa::Program
rbProgram(unsigned cliffords)
{
    Rng rng(7);
    compiler::QuantumProgram prog("rb", 1, 1);
    compiler::Kernel &k = prog.newKernel("rb");
    k.init();
    for (const auto &gate : experiments::drawRbSequence(cliffords, rng))
        k.gate(gate, 0);
    k.measure(0, 7);
    return prog.compile();
}

/** The queue depths runRb configures for long gate trains. */
core::MachineConfig
rbConfig()
{
    core::MachineConfig mc;
    mc.timing.pulseQueueCapacity = 256;
    mc.timing.timingQueueCapacity = 256;
    mc.qmbDepth = 64;
    return mc;
}

/** Allocations made by a second run of `program` on one machine. */
AllocCount
secondRunAllocs(const isa::Program &program)
{
    core::QumaMachine machine(rbConfig());
    machine.uploadStandardCalibration();
    machine.loadProgram(program);
    machine.run();
    machine.loadProgram(program);
    return countAllocs([&] { machine.run(); });
}

TEST(Allocation, RunAllocationsDoNotGrowWithProgramLength)
{
    isa::Program shortProg = rbProgram(256);
    isa::Program longProg = rbProgram(1024);
    ASSERT_GT(longProg.size(), 3 * shortProg.size());

    AllocCount shortRun = secondRunAllocs(shortProg);
    AllocCount longRun = secondRunAllocs(longProg);
    // The decode path is allocation-free; what is left is per run
    // (a handful of one-off containers), not per instruction.
    EXPECT_LE(longRun.calls, shortRun.calls + 16)
        << "256 Cliffords: " << shortRun.calls << " allocations, 1024: "
        << longRun.calls;
}

TEST(Allocation, CnotRunAllocationsDoNotGrowWithGateCount)
{
    // Two-qubit gates take the CZ flux-pulse path to the chip.
    auto cnots = [](int n) {
        isa::Program prog;
        prog.push(isa::Instruction::wait(100));
        for (int i = 0; i < n; ++i)
            prog.push(isa::Instruction::cnot(0, 1));
        prog.push(isa::Instruction::wait(100));
        prog.push(isa::Instruction::halt());
        return prog;
    };
    auto secondRun = [](const isa::Program &program) {
        core::MachineConfig mc;
        mc.qubits.assign(2, qsim::paperQubitParams());
        core::QumaMachine machine(mc);
        machine.uploadStandardCalibration();
        machine.loadProgram(program);
        machine.run();
        machine.loadProgram(program);
        return countAllocs([&] { machine.run(); });
    };
    AllocCount few = secondRun(cnots(10));
    AllocCount many = secondRun(cnots(40));
    EXPECT_LE(many.calls, few.calls + 16)
        << "10 CNOTs: " << few.calls << " allocations, 40: " << many.calls;
}

TEST(Allocation, HugeQueueCapacitiesStayLazy)
{
    // Capacities arrive unchecked from the wire: the rings must grow
    // on demand, never reserve what the config names.
    constexpr std::size_t kHuge = std::size_t{1} << 40;
    core::MachineConfig mc;
    mc.timing.timingQueueCapacity = kHuge;
    mc.timing.pulseQueueCapacity = kHuge;
    mc.timing.mpgQueueCapacity = kHuge;
    mc.timing.mdQueueCapacity = kHuge;
    mc.qmbDepth = kHuge;

    isa::Program program = rbProgram(8);
    constexpr std::uint64_t kBudget = std::uint64_t{64} << 20;
    AllocCount built = countAllocs([&] {
        core::QumaMachine machine(mc);
        machine.uploadStandardCalibration();
        machine.loadProgram(program);
        core::RunResult rr = machine.run();
        EXPECT_TRUE(rr.halted);
        EXPECT_TRUE(rr.violations.clean());
        EXPECT_EQ(machine.stats().queues.timing.capacity, kHuge);
        EXPECT_EQ(machine.stats().queues.pulse[0].capacity, kHuge);
    });
    EXPECT_LT(built.bytes, kBudget);
}

} // namespace
} // namespace quma
