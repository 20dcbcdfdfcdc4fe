#include "workload/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include <unistd.h>

#include "coaxial/configs.hpp"
#include "sim/system.hpp"
#include "workload/catalog.hpp"

namespace coaxial::workload {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  // One file per case and process: `ctest -j` runs the cases of this suite
  // concurrently, and a shared path would let one case's TearDown delete
  // the trace another case is still reading.
  void SetUp() override {
    const std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    path_ = (std::filesystem::temp_directory_path() /
             ("coaxial_test_trace_" + name + "_" + std::to_string(::getpid()) +
              ".bin"))
                .string();
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(TraceTest, RecordThenReplayRoundTrips) {
  Generator gen(find_workload("pagerank"), 0, 42);
  Generator reference(find_workload("pagerank"), 0, 42);
  ASSERT_EQ(record_trace(std::move(gen), 5000, path_), 5000u);

  TraceReplayer replay(path_);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.size(), 5000u);
  for (int i = 0; i < 5000; ++i) {
    const Instr want = reference.next();
    const Instr got = replay.next();
    ASSERT_EQ(got.kind, want.kind) << "instr " << i;
    ASSERT_EQ(got.addr, want.addr) << "instr " << i;
    ASSERT_EQ(got.pc, want.pc) << "instr " << i;
    ASSERT_EQ(got.depends_on_prev_load, want.depends_on_prev_load) << "instr " << i;
  }
}

TEST_F(TraceTest, ReplayLoopsAtEnd) {
  Generator gen(find_workload("lbm"), 0, 1);
  record_trace(std::move(gen), 10, path_);
  TraceReplayer replay(path_);
  std::vector<Addr> first_pass, second_pass;
  for (int i = 0; i < 10; ++i) first_pass.push_back(replay.next().addr);
  for (int i = 0; i < 10; ++i) second_pass.push_back(replay.next().addr);
  EXPECT_EQ(first_pass, second_pass);
}

TEST_F(TraceTest, MissingFileIsNotOk) {
  TraceReplayer replay("/tmp/coaxial_no_such_trace.bin");
  EXPECT_FALSE(replay.ok());
  EXPECT_EQ(replay.next().kind, InstrKind::kAlu);  // Safe default.
}

TEST_F(TraceTest, CorruptMagicRejected) {
  {
    std::ofstream f(path_, std::ios::binary);
    f << "NOTATRACEFILE-----------------------";
  }
  TraceReplayer replay(path_);
  EXPECT_FALSE(replay.ok());
}

TEST_F(TraceTest, TruncatedTraceRejected) {
  Generator gen(find_workload("lbm"), 0, 1);
  record_trace(std::move(gen), 100, path_);
  // Truncate mid-record.
  std::ifstream in(path_, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)), {});
  in.close();
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size() / 2));
  out.close();
  TraceReplayer replay(path_);
  EXPECT_FALSE(replay.ok());
}

TEST_F(TraceTest, WriterToBadPathReportsFailure) {
  TraceWriter w("/nonexistent-dir/trace.bin");
  EXPECT_FALSE(w.ok());
  EXPECT_EQ(record_trace(Generator(find_workload("lbm"), 0, 1), 10,
                         "/nonexistent-dir/trace.bin"),
            0u);
}

TEST_F(TraceTest, PcAndFlagsSurviveAllKinds) {
  {
    TraceWriter w(path_);
    Instr alu;
    alu.kind = InstrKind::kAlu;
    alu.pc = 0x1234;
    w.append(alu);
    Instr ld;
    ld.kind = InstrKind::kLoad;
    ld.addr = 0xdeadbeef00;
    ld.pc = 0x5678;
    ld.depends_on_prev_load = true;
    w.append(ld);
    Instr st;
    st.kind = InstrKind::kStore;
    st.addr = 0xfeed0000;
    st.pc = 0x9abc;
    w.append(st);
    w.finish();
  }
  TraceReplayer r(path_);
  ASSERT_EQ(r.size(), 3u);
  const Instr a = r.next();
  EXPECT_EQ(a.kind, InstrKind::kAlu);
  EXPECT_EQ(a.pc, 0x1234u);
  const Instr l = r.next();
  EXPECT_EQ(l.kind, InstrKind::kLoad);
  EXPECT_EQ(l.addr, 0xdeadbeef00u);
  EXPECT_TRUE(l.depends_on_prev_load);
  const Instr s = r.next();
  EXPECT_EQ(s.kind, InstrKind::kStore);
  EXPECT_EQ(s.addr, 0xfeed0000u);
}

TEST_F(TraceTest, TraceDrivenSystemRuns) {
  record_trace(Generator(find_workload("stream-copy"), 0, 42), 30000, path_);

  const auto cfg = sys::coaxial_4x();
  std::vector<std::unique_ptr<InstrSource>> sources;
  std::vector<double> ceilings;
  for (std::uint32_t c = 0; c < cfg.uarch.cores; ++c) {
    auto replay = std::make_unique<TraceReplayer>(path_);
    ASSERT_TRUE(replay->ok());
    sources.push_back(std::move(replay));
    ceilings.push_back(2.0);
  }
  sim::System system(cfg, std::move(sources), ceilings, 42);
  system.run(2000, 6000);
  EXPECT_GT(system.stats().ipc_per_core, 0.0);
  EXPECT_GT(system.stats().l2_miss_ops, 0u);
}

TEST_F(TraceTest, TraceAndGeneratorGiveSimilarIpc) {
  // A recorded trace replayed through the same system must behave like the
  // generator it was recorded from (identical instruction stream).
  record_trace(Generator(find_workload("bc"), 0, 9), 60000, path_);

  const auto cfg = sys::baseline_ddr();
  std::vector<std::unique_ptr<InstrSource>> sources;
  std::vector<double> ceilings;
  for (std::uint32_t c = 0; c < cfg.uarch.cores; ++c) {
    sources.push_back(std::make_unique<TraceReplayer>(path_));
    ceilings.push_back(find_workload("bc").max_ipc);
  }
  sim::System traced(cfg, std::move(sources), ceilings, 9);
  traced.run(2000, 6000);

  std::vector<workload::WorkloadParams> per_core(cfg.uarch.cores, find_workload("bc"));
  sim::System synthetic(cfg, per_core, 9);
  synthetic.run(2000, 6000);

  // Same workload shape; all cores replay core-0's stream and the trace
  // run skips pre-warm, so allow a loose tolerance.
  EXPECT_NEAR(traced.stats().ipc_per_core, synthetic.stats().ipc_per_core,
              0.5 * synthetic.stats().ipc_per_core);
}

}  // namespace
}  // namespace coaxial::workload
