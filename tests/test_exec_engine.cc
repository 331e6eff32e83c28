/**
 * @file
 * Execution-engine tests: phase semantics, min-time-first ordering,
 * thread-to-core multiplexing, compute/sync charging, IPC scoping and
 * engine reuse after a throwing task.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/system.hh"
#include "cpu/exec_engine.hh"

using namespace ih;

namespace
{

/** A task charging fixed compute per step, n steps per thread. */
class ComputeTask : public SteppableTask
{
  public:
    ComputeTask(unsigned steps, Cycle per_step)
        : steps_(steps), perStep_(per_step)
    {
    }

    bool
    step(ExecContext &ctx) override
    {
        ctx.compute(perStep_);
        return ++done_[ctx.threadIndex()] < steps_;
    }

    std::map<unsigned, unsigned> done_;

  private:
    unsigned steps_;
    Cycle perStep_;
};

/** A task recording the global order in which thread steps ran. */
class OrderTask : public SteppableTask
{
  public:
    bool
    step(ExecContext &ctx) override
    {
        order.emplace_back(ctx.now(), ctx.threadIndex());
        // Thread i advances by (i+1)*10 cycles per step.
        ctx.compute((ctx.threadIndex() + 1) * 10);
        return ++steps_[ctx.threadIndex()] < 4;
    }

    std::vector<std::pair<Cycle, unsigned>> order;

  private:
    std::map<unsigned, unsigned> steps_;
};

struct Rig
{
    System sys{SysConfig::smallTest()};
};

} // namespace

TEST(ExecEngine, PhaseJoinsAllThreads)
{
    Rig r;
    Process &p = r.sys.createProcess("p", Domain::INSECURE, 4);
    ComputeTask task(3, 100);
    const PhaseResult res = r.sys.engine().runPhase(p, task, 1000);
    // 4 threads on >= 4 cores: each takes 3 * 100 cycles from t=1000.
    EXPECT_EQ(res.finish, 1300u);
    EXPECT_EQ(res.steps, 12u);
    EXPECT_EQ(res.instructions, 4u * 3 * 100);
}

TEST(ExecEngine, MinTimeFirstOrdering)
{
    Rig r;
    Process &p = r.sys.createProcess("p", Domain::INSECURE, 3);
    OrderTask task;
    r.sys.engine().runPhase(p, task, 0);
    // The engine must always pick the globally earliest thread.
    for (std::size_t i = 1; i < task.order.size(); ++i)
        EXPECT_LE(task.order[i - 1].first, task.order[i].first);
}

TEST(ExecEngine, ThreadsMultiplexScarceCores)
{
    Rig r;
    Process &p = r.sys.createProcess("p", Domain::INSECURE, 8);
    p.setCores({0, 1}); // 8 threads on 2 cores
    ComputeTask task(1, 100);
    const PhaseResult res = r.sys.engine().runPhase(p, task, 0);
    // Co-located threads serialize: 4 threads per core, 100 cycles each.
    EXPECT_EQ(res.finish, 400u);
}

TEST(ExecEngine, MultiplexingMatchesParallelWorkTotal)
{
    Rig r;
    Process &wide = r.sys.createProcess("wide", Domain::INSECURE, 8);
    Process &narrow = r.sys.createProcess("narrow", Domain::INSECURE, 8);
    narrow.setCores({0});
    ComputeTask t1(2, 50), t2(2, 50);
    const Cycle wide_finish = r.sys.engine().runPhase(wide, t1, 0).finish;
    const Cycle narrow_finish =
        r.sys.engine().runPhase(narrow, t2, 0).finish;
    EXPECT_EQ(wide_finish, 100u);
    EXPECT_EQ(narrow_finish, 800u); // 8x serialized
}

TEST(ExecEngine, SyncCostScalesWithThreadCount)
{
    Rig r;
    Process &p = r.sys.createProcess("p", Domain::INSECURE, 6);
    ExecContext ctx(r.sys.engine(), p, 0, 6, 0, 0);
    ctx.sync();
    EXPECT_EQ(ctx.now(),
              ExecEngine::SYNC_BASE + 6 * ExecEngine::SYNC_PER_THREAD);
}

TEST(ExecEngine, ComputeChargesOneIpc)
{
    Rig r;
    Process &p = r.sys.createProcess("p", Domain::INSECURE, 1);
    ExecContext ctx(r.sys.engine(), p, 0, 1, 0, 12345);
    ctx.compute(777);
    EXPECT_EQ(ctx.now(), 12345u + 777);
}

TEST(ExecEngine, MemoryAccessAdvancesTime)
{
    Rig r;
    Process &p = r.sys.createProcess("p", Domain::INSECURE, 1);
    ExecContext ctx(r.sys.engine(), p, 0, 1, 0, 0);
    ctx.load(0x4000);
    const Cycle after_miss = ctx.now();
    EXPECT_GT(after_miss, 0u);
    ctx.load(0x4000);
    EXPECT_EQ(ctx.now(), after_miss + r.sys.config().l1Latency);
}

TEST(ExecEngine, SharedAccessUsesMachineScope)
{
    // IPC traffic must not be flagged as an isolation violation even
    // when the issuing process is cluster-confined.
    Rig r;
    Process &sec = r.sys.createProcess("enclave", Domain::SECURE, 1);
    Process &ins = r.sys.createProcess("os", Domain::INSECURE, 1);
    sec.setCores({0});
    sec.setCluster(ClusterRange{0, 4});
    ExecContext ctx(r.sys.engine(), sec, 0, 1, 0, 0);
    ctx.accessShared(ins.space(), 0x9000, MemOp::LOAD);
    EXPECT_EQ(r.sys.network().isolationViolations(), 0u);
    EXPECT_EQ(r.sys.engine().stats().value("ipc_accesses"), 1u);
}

TEST(ExecEngine, CoreTracksRetirement)
{
    Rig r;
    Process &p = r.sys.createProcess("p", Domain::INSECURE, 1);
    p.setCores({3});
    ComputeTask task(5, 10);
    r.sys.engine().runPhase(p, task, 0);
    EXPECT_EQ(r.sys.engine().core(3).instructions(), 50u);
    EXPECT_EQ(r.sys.engine().core(3).busyUntil(), 50u);
}

TEST(ExecEngine, TaskExceptionLeavesEngineReusable)
{
    // A task throwing mid-phase must propagate out of runPhase and leave
    // the engine's pooled per-phase state (contexts, runnable heap, core
    // availability) ready for the next phase.
    class ThrowingTask : public SteppableTask
    {
      public:
        bool
        step(ExecContext &ctx) override
        {
            if (++n_ > 5)
                throw std::runtime_error("task boom");
            ctx.load(0x1000ull * n_);
            return true;
        }

      private:
        unsigned n_ = 0;
    };

    Rig r;
    Process &p = r.sys.createProcess("p", Domain::INSECURE, 4);
    ThrowingTask bad;
    EXPECT_THROW(r.sys.engine().runPhase(p, bad, 0), std::runtime_error);
    ComputeTask ok(10, 7);
    const PhaseResult res = r.sys.engine().runPhase(p, ok, 100);
    EXPECT_EQ(res.steps, 40u);
    EXPECT_EQ(res.finish, 170u);
    EXPECT_EQ(res.instructions, 4u * 10 * 7);
}
