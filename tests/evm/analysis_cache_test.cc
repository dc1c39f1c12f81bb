// Unit tests for the code-analysis cache: decode structure (blocks, hoisted
// gas, stack deltas, jump resolution), cache hit/miss behavior, one entry
// shared by the static analyzer and the interpreter, and — the TSan target —
// many threads concurrently resolving and executing the same contract
// through the shared cache.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "analysis/cfg.h"
#include "crypto/keccak.h"
#include "evm/analysis_cache.h"
#include "evm/evm.h"
#include "evm/gas.h"
#include "evm/opcodes.h"
#include "obs/metrics.h"
#include "state/world_state.h"

namespace onoff::evm {
namespace {

Hash32 CodeHash(const Bytes& code) { return Keccak256(code); }

const CodeCell* FindCell(const CodeAnalysis& an, Handler h) {
  for (const CodeCell& c : an.cells) {
    if (c.op == static_cast<uint8_t>(h)) return &c;
  }
  return nullptr;
}

size_t CountCells(const CodeAnalysis& an, Handler h) {
  size_t n = 0;
  for (const CodeCell& c : an.cells) {
    if (c.op == static_cast<uint8_t>(h)) ++n;
  }
  return n;
}

TEST(AnalysisTest, JumpdestBitmapSkipsPushImmediates) {
  // PUSH2 0x5b5b JUMPDEST — only the real JUMPDEST is valid.
  Bytes code{0x61, 0x5b, 0x5b, 0x5b};
  auto jd = AnalyzeJumpdests(code);
  ASSERT_EQ(jd.size(), 4u);
  EXPECT_FALSE(jd[1]);
  EXPECT_FALSE(jd[2]);
  EXPECT_TRUE(jd[3]);
}

TEST(AnalysisTest, SingleBlockStaticGasIsHoisted) {
  // PUSH1 1 PUSH1 2 ADD POP STOP: all static costs fold into one
  // BEGIN_BLOCK charge.
  Bytes code{0x60, 0x01, 0x60, 0x02, 0x01, 0x50, 0x00};
  CodeAnalysis an = Analyze(code);
  ASSERT_FALSE(an.blocks.empty());
  EXPECT_EQ(an.blocks[0].base_gas,
            gas::kVeryLow * 3 + gas::kBase);  // 2 pushes + ADD + POP
  EXPECT_EQ(an.blocks[0].stack_req, 0);
  // Peak height: two pushes live at once.
  EXPECT_EQ(an.blocks[0].stack_max, 2);
  // Cells: BEGIN_BLOCK PUSH PUSH ADD POP STOP (+ trailing IMPLICIT_STOP).
  ASSERT_EQ(an.cells.size(), 7u);
  EXPECT_EQ(an.cells[0].op, static_cast<uint8_t>(Handler::BEGIN_BLOCK));
  EXPECT_EQ(an.cells.back().op, static_cast<uint8_t>(Handler::IMPLICIT_STOP));
}

TEST(AnalysisTest, CheckpointSplitsGasIntoChargeCells) {
  // PUSH1 0 MLOAD POP STOP: MLOAD is a checkpoint, so only the PUSH's cost
  // is hoisted into the block and the tail (POP) lands in a CHARGE cell.
  Bytes code{0x60, 0x00, 0x51, 0x50, 0x00};
  CodeAnalysis an = Analyze(code);
  ASSERT_FALSE(an.blocks.empty());
  EXPECT_EQ(an.blocks[0].base_gas, gas::kVeryLow);  // PUSH only
  const CodeCell* charge = FindCell(an, Handler::CHARGE);
  ASSERT_NE(charge, nullptr);
  EXPECT_EQ(charge->imm, gas::kBase);  // the POP after the checkpoint
}

TEST(AnalysisTest, JumpTargetsResolveToBlockCells) {
  // PUSH1 5 JUMP INVALID JUMPDEST STOP  (JUMPDEST at pc 4... recompute)
  // code: 0:PUSH1 4  2:JUMP  3:INVALID  4:JUMPDEST  5:STOP
  Bytes code{0x60, 0x04, 0x56, 0xfe, 0x5b, 0x00};
  CodeAnalysis an = Analyze(code);
  EXPECT_EQ(CountCells(an, Handler::JUMP), 1u);  // one cell per instruction
  ASSERT_EQ(an.jump_cell.size(), code.size());
  ASSERT_GE(an.jump_cell[4], 0);
  const CodeCell& target = an.cells[an.jump_cell[4]];
  EXPECT_EQ(target.op, static_cast<uint8_t>(Handler::BEGIN_BLOCK));
  EXPECT_LT(an.jump_cell[1], 0);  // inside a PUSH immediate
  EXPECT_LT(an.jump_cell[5], 0);  // STOP is no jumpdest
}

TEST(AnalysisTest, UndefinedOpcodeKeepsCounterByte) {
  // 0x21 is undefined; its cell is INVALID but the ops list must keep the
  // original byte so batched metrics attribute it correctly.
  Bytes code{0x60, 0x01, 0x21};
  CodeAnalysis an = Analyze(code);
  EXPECT_EQ(CountCells(an, Handler::INVALID), 1u);
  bool found = false;
  for (uint8_t b : an.ops) found |= (b == 0x21);
  EXPECT_TRUE(found);
}

TEST(AnalysisCacheTest, HitsAndMisses) {
  CodeAnalysisCache& cache = CodeAnalysisCache::Global();
  cache.Clear();
  Bytes code{0x60, 0x01, 0x60, 0x02, 0x01, 0x00};
  Hash32 h = CodeHash(code);

  auto a1 = cache.Get(h, code);
  auto a2 = cache.Get(h, code);
  EXPECT_EQ(a1.get(), a2.get());  // second call is a hit
  EXPECT_EQ(cache.size(), 1u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
}

// The loop program from the differential test: jumps, JUMPI back-edges,
// memory traffic.
const Bytes kLoopProgram{0x60, 0x05, 0x60, 0x03, 0x01, 0x60, 0x00, 0x52,
                         0x60, 0x20, 0x5b, 0x60, 0x01, 0x90, 0x03, 0x80,
                         0x60, 0x00, 0x51, 0x50, 0x80, 0x51, 0x50, 0x80,
                         0x60, 0x0a, 0x57, 0x60, 0x1e, 0x56, 0x5b, 0x00};

ExecResult RunContract(const Bytes& code) {
  state::WorldState world;
  Address contract = Address::FromWord(U256(0xc0de));
  Address sender = Address::FromWord(U256(0xaa));
  world.CreateAccount(sender);
  world.AddBalance(sender, U256(1'000'000));
  world.SetCode(contract, code);
  world.ClearJournal();
  Evm evm(&world, BlockContext{}, TxContext{sender, U256(1)});
  CallMessage msg;
  msg.caller = sender;
  msg.to = contract;
  msg.gas = 100'000;
  return evm.Call(msg);
}

// The cache is keyed by code hash alone, so the static analyzer's decode of
// a contract is the very entry the interpreter then executes.
TEST(AnalysisCacheTest, AnalyzerAndInterpreterShareOneEntry) {
  CodeAnalysisCache& cache = CodeAnalysisCache::Global();
  cache.Clear();
  obs::Counter* misses = obs::GetCounterOrNull("evm.analysis_cache.misses");
  uint64_t misses_before = misses != nullptr ? misses->Value() : 0;

  analysis::DecodedCode decoded(kLoopProgram);
  EXPECT_TRUE(RunContract(kLoopProgram).ok());

  EXPECT_EQ(cache.size(), 1u);
  if (misses != nullptr) {
    EXPECT_EQ(misses->Value() - misses_before, 1u);
  }
}

// TSan target: concurrent Get() on the same hash from many threads while
// executing the contract through the threaded interpreter.
TEST(AnalysisCacheTest, ConcurrentResolutionAndExecution) {
  CodeAnalysisCache::Global().Clear();
  const int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 25; ++i) {
        if (!RunContract(kLoopProgram).ok()) ++failures[t];
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << "thread " << t;
  // All threads resolved the one shared entry.
  EXPECT_EQ(CodeAnalysisCache::Global().size(), 1u);
}

}  // namespace
}  // namespace onoff::evm
