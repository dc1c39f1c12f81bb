// Differential fuzzing of the interpreter dispatch loops: every program —
// randomized byte soup, structured random programs, the static-analysis
// negative corpus, and checkpoint-heavy hand-written cases — must produce
// byte-identical results on the reference switch loop (the oracle, selected
// with testing::ReferenceLoopScope) and on the threaded loop: outcome,
// gas_left, return data, logs, refund, post-state root, and the per-opcode
// metrics counters.

#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <random>
#include <vector>

#include "evm/analysis_cache.h"
#include "evm/evm.h"
#include "evm/interp.h"
#include "evm/opcodes.h"
#include "state/world_state.h"

namespace onoff::evm {
namespace {

constexpr uint64_t kContractWord = 0xc0de;
constexpr uint64_t kCalleeWord = 0xca11;
constexpr uint64_t kSenderWord = 0xaa;

// A small callee for CALL/STATICCALL/DELEGATECALL coverage: stores
// calldata[0..32] at slot 1 and returns 32 bytes of memory.
Bytes CalleeCode() {
  return Bytes{
      0x60, 0x00, 0x35,        // PUSH1 0 CALLDATALOAD
      0x60, 0x01, 0x55,        // PUSH1 1 SSTORE
      0x60, 0x2a, 0x60, 0x00,  // PUSH1 42 PUSH1 0
      0x52,                    // MSTORE
      0x60, 0x20, 0x60, 0x00,  // PUSH1 32 PUSH1 0
      0xf3,                    // RETURN
  };
}

struct Execution {
  ExecResult result;
  Hash32 root{};
  // Per-opcode counter deltas over the execution (zeros when metrics are
  // disabled, in which case the comparison is trivially true).
  std::array<uint64_t, 256> opcode_deltas{};
};

std::array<uint64_t, 256> SnapshotCounters() {
  std::array<uint64_t, 256> snap{};
  const std::array<obs::Counter*, 256>* table = OpcodeCounters();
  if (table != nullptr) {
    for (int i = 0; i < 256; ++i) snap[i] = (*table)[i]->Value();
  }
  return snap;
}

// Executes `code` on a freshly built world, on the reference switch loop
// when `reference` is set and on the threaded loop otherwise.
Execution RunOnce(bool reference, const Bytes& code, const Bytes& calldata,
                  uint64_t gas) {
  std::optional<testing::ReferenceLoopScope> scope;
  if (reference) scope.emplace();
  state::WorldState world;
  Address contract = Address::FromWord(U256(kContractWord));
  Address callee = Address::FromWord(U256(kCalleeWord));
  Address sender = Address::FromWord(U256(kSenderWord));

  world.CreateAccount(sender);
  world.AddBalance(sender, U256(1'000'000'000));
  world.SetCode(contract, code);
  world.AddBalance(contract, U256(777));
  world.SetCode(callee, CalleeCode());
  // Pre-seed storage so SSTORE hits both the set and reset cost tiers.
  world.SetStorage(contract, U256(0), U256(99));
  world.SetStorage(contract, U256(2), U256(123456));
  world.ClearJournal();

  Evm evm(&world, BlockContext{}, TxContext{sender, U256(1)});

  CallMessage msg;
  msg.caller = sender;
  msg.to = contract;
  msg.value = U256(5);
  msg.data = calldata;
  msg.gas = gas;

  Execution exec;
  auto before = SnapshotCounters();
  exec.result = evm.Call(msg);
  auto after = SnapshotCounters();
  for (int i = 0; i < 256; ++i) exec.opcode_deltas[i] = after[i] - before[i];
  exec.root = world.StateRoot();
  return exec;
}

void ExpectIdentical(const Execution& ref, const Execution& got,
                     const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(ref.result.outcome, got.result.outcome)
      << OutcomeToString(ref.result.outcome) << " vs "
      << OutcomeToString(got.result.outcome);
  EXPECT_EQ(ref.result.gas_left, got.result.gas_left);
  EXPECT_EQ(ref.result.output, got.result.output);
  EXPECT_EQ(ref.result.refund, got.result.refund);
  ASSERT_EQ(ref.result.logs.size(), got.result.logs.size());
  for (size_t i = 0; i < ref.result.logs.size(); ++i) {
    EXPECT_EQ(ref.result.logs[i].address, got.result.logs[i].address);
    EXPECT_EQ(ref.result.logs[i].topics, got.result.logs[i].topics);
    EXPECT_EQ(ref.result.logs[i].data, got.result.logs[i].data);
  }
  EXPECT_EQ(ref.root, got.root);
  for (int op = 0; op < 256; ++op) {
    EXPECT_EQ(ref.opcode_deltas[op], got.opcode_deltas[op])
        << "opcode 0x" << std::hex << op << " ("
        << GetOpcodeInfo(static_cast<uint8_t>(op)).name << ")";
  }
}

void CheckBothLoops(const Bytes& code, const Bytes& calldata, uint64_t gas,
                    const std::string& label) {
  Execution ref = RunOnce(/*reference=*/true, code, calldata, gas);
  Execution got = RunOnce(/*reference=*/false, code, calldata, gas);
  ExpectIdentical(ref, got, label);
}

// ---------------------------------------------------------------------------
// Randomized programs
// ---------------------------------------------------------------------------

TEST(InterpDifferentialTest, PureRandomBytecode) {
  std::mt19937_64 rng(0xD1FF);
  const uint64_t gas_levels[] = {30, 200, 5'000, 400'000};
  for (int trial = 0; trial < 300; ++trial) {
    size_t len = rng() % 160;
    Bytes code(len);
    for (auto& b : code) b = static_cast<uint8_t>(rng());
    uint64_t gas = gas_levels[trial % 4];
    CheckBothLoops(code, Bytes{}, gas,
                  "pure-random trial=" + std::to_string(trial));
  }
}

TEST(InterpDifferentialTest, StructuredRandomPrograms) {
  std::mt19937_64 rng(0xBEEF);
  // A weighted pool of plausible opcodes (plus PUSH/DUP/SWAP/LOG families
  // emitted explicitly below). Invalid stack states and bad jumps are
  // intentionally reachable: halting behavior must match too.
  const uint8_t pool[] = {
      0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a,  // arith
      0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18, 0x19,  // cmp/bit
      0x1a, 0x1b, 0x1c, 0x1d,                                      // shifts
      0x20,                                                        // SHA3
      0x30, 0x31, 0x32, 0x33, 0x34, 0x35, 0x36, 0x38, 0x3a, 0x3d,  // env
      0x41, 0x42, 0x43, 0x44, 0x45,                                // block
      0x50, 0x51, 0x52, 0x53, 0x54, 0x55, 0x58, 0x59, 0x5a,        // mem/sto
      0x56, 0x57, 0x5b,                                            // jumps
      0x00, 0xf3, 0xfd,                                            // halts
  };
  for (int trial = 0; trial < 200; ++trial) {
    Bytes code;
    std::vector<uint32_t> jumpdest_pcs;
    size_t target_len = 20 + rng() % 120;
    while (code.size() < target_len) {
      switch (rng() % 10) {
        case 0:
        case 1:
        case 2: {  // PUSHn with random immediate (may be truncated at end)
          int n = 1 + static_cast<int>(rng() % 8);
          code.push_back(static_cast<uint8_t>(0x5f + n));
          for (int i = 0; i < n; ++i) {
            // Mostly small bytes so pushed values act as offsets/counters.
            code.push_back(static_cast<uint8_t>(rng() % 64));
          }
          break;
        }
        case 3: {  // DUP / SWAP
          code.push_back(static_cast<uint8_t>(
              (rng() % 2 ? 0x80 : 0x90) + rng() % 4));
          break;
        }
        case 4: {  // LOGn
          code.push_back(static_cast<uint8_t>(0xa0 + rng() % 3));
          break;
        }
        case 5: {  // JUMPDEST marker, remembered as a jump target
          jumpdest_pcs.push_back(static_cast<uint32_t>(code.size()));
          code.push_back(0x5b);
          break;
        }
        case 6: {  // PUSH2 <known jumpdest> JUMP/JUMPI — mostly valid jumps
          if (!jumpdest_pcs.empty()) {
            uint32_t dest = jumpdest_pcs[rng() % jumpdest_pcs.size()];
            code.push_back(0x61);  // PUSH2
            code.push_back(static_cast<uint8_t>(dest >> 8));
            code.push_back(static_cast<uint8_t>(dest & 0xff));
            code.push_back(rng() % 2 ? 0x56 : 0x57);
          }
          break;
        }
        default: {
          code.push_back(pool[rng() % sizeof(pool)]);
          break;
        }
      }
    }
    Bytes calldata(rng() % 40);
    for (auto& b : calldata) b = static_cast<uint8_t>(rng());
    // Modest gas keeps accidental loops bounded and exercises mid-block
    // out-of-gas in the bargain.
    uint64_t gas = 500 + rng() % 60'000;
    CheckBothLoops(code, calldata, gas,
                  "structured trial=" + std::to_string(trial));
  }
}

// ---------------------------------------------------------------------------
// The static-analysis negative corpus (known-hostile control flow)
// ---------------------------------------------------------------------------

TEST(InterpDifferentialTest, AnalysisNegativeCorpus) {
  struct Program {
    const char* name;
    Bytes code;
  };
  const Program programs[] = {
      // PUSH1 4 JUMP — target is inside the PUSH immediate of 0x60 0x5b.
      {"jump-into-push", Bytes{0x60, 0x04, 0x56, 0x60, 0x5b, 0x00}},
      // PUSH1 1 ADD ADD STOP — second ADD underflows.
      {"stack-underflow", Bytes{0x60, 0x01, 0x01, 0x01, 0x00}},
      // PUSH20 cut off by end of code.
      {"truncated-push", Bytes{0x73, 0xde, 0xad}},
      // PUSH1 0 CALLDATALOAD JUMP STOP — data-dependent jump target.
      {"unresolved-jump", Bytes{0x60, 0x00, 0x35, 0x56, 0x00}},
      // JUMPDEST-only and empty programs.
      {"jumpdest-only", Bytes{0x5b, 0x5b, 0x5b}},
      {"empty", Bytes{}},
      // Trailing JUMPI: the fall-through exit of the last block.
      {"trailing-jumpi", Bytes{0x60, 0x00, 0x60, 0x00, 0x57}},
  };
  for (const Program& p : programs) {
    for (uint64_t gas : {0ull, 3ull, 10ull, 100'000ull}) {
      CheckBothLoops(p.code, Bytes{0x00, 0x07}, gas,
                    std::string(p.name) + " gas=" + std::to_string(gas));
    }
  }
}

// ---------------------------------------------------------------------------
// Checkpoint-heavy and constant-jump hand-written programs
// ---------------------------------------------------------------------------

TEST(InterpDifferentialTest, CheckpointOpsAndCalls) {
  // SSTORE a fresh slot (set tier), overwrite slot 0 (reset tier), clear
  // slot 2 (refund), SLOAD, LOG1, SHA3, then CALL the callee and RETURN its
  // answer — every dynamic-gas checkpoint in one program.
  Bytes code = {
      0x60, 0x07, 0x60, 0x05, 0x55,              // SSTORE slot5 = 7 (set)
      0x60, 0x01, 0x60, 0x00, 0x55,              // SSTORE slot0 = 1 (reset)
      0x60, 0x00, 0x60, 0x02, 0x55,              // SSTORE slot2 = 0 (refund)
      0x60, 0x00, 0x54, 0x50,                    // SLOAD slot0, POP
      0x60, 0x11, 0x60, 0x00, 0x52,              // MSTORE mem0 = 0x11
      0x60, 0x2a, 0x60, 0x20, 0x60, 0x00, 0xa1,  // LOG1 topic=42 mem[0..32)
      0x60, 0x20, 0x60, 0x00, 0x20, 0x50,        // SHA3 mem[0..32), POP
      0x58, 0x50, 0x5a, 0x50, 0x59, 0x50,        // PC GAS MSIZE (each POPped)
      // CALL(gas=50000, to=0xca11, value=1, in=0..32, out=0..32)
      0x60, 0x20, 0x60, 0x00, 0x60, 0x20, 0x60, 0x00,
      0x60, 0x01, 0x61, 0xca, 0x11, 0x61, 0xc3, 0x50, 0xf1,
      0x50,                                      // POP call status
      0x60, 0x20, 0x60, 0x00, 0xf3,              // RETURN mem[0..32)
  };
  for (uint64_t gas : {100ull, 5'000ull, 21'000ull, 60'000ull, 500'000ull}) {
    CheckBothLoops(code, Bytes{}, gas,
                   "checkpoints gas=" + std::to_string(gas));
  }
}

TEST(InterpDifferentialTest, ConstantOperandLoop) {
  // A counting loop built from constant-operand shapes: PUSH+PUSH+binop,
  // PUSH+binop, DUP+MLOAD, a PUSH+JUMPI back-edge and a PUSH+JUMP exit.
  Bytes code = {
      0x60, 0x05, 0x60, 0x03, 0x01,  // PUSH 5 PUSH 3 ADD
      0x60, 0x00, 0x52,              // MSTORE mem0 = 8
      0x60, 0x20,                    // PUSH 32 = loop counter
      0x5b,                          // JUMPDEST (pc 10)
      0x60, 0x01, 0x90, 0x03,       // PUSH1 1 SWAP1 SUB  (counter -= 1)
      0x80,                          // DUP1
      0x60, 0x00, 0x51, 0x50,        // PUSH1 0 MLOAD POP
      0x80, 0x51, 0x50,              // DUP1 MLOAD POP
      0x80,                          // DUP1
      0x60, 0x0a, 0x57,              // PUSH1 10 JUMPI
      0x60, 0x1e, 0x56,              // PUSH1 30 JUMP
      0x5b,                          // JUMPDEST (pc 30)
      0x00,                          // STOP
  };
  // Gas ladder crosses the loop's per-iteration cost so some runs die
  // mid-loop (CHARGE/BEGIN_BLOCK fallback paths) and some finish.
  for (uint64_t gas = 0; gas < 2'000; gas += 37) {
    CheckBothLoops(code, Bytes{}, gas,
                   "constant-loop gas=" + std::to_string(gas));
  }
  CheckBothLoops(code, Bytes{}, 1'000'000, "constant-loop full");
}

TEST(InterpDifferentialTest, LoopAcrossManyBlocks) {
  // A loop whose body spans six blocks (more than the threaded loop keeps
  // batched counter slots for), with a checkpoint inside, so halts and
  // fallbacks land in every block of the body at some iteration.
  Bytes code = {
      0x60, 0x10,                    // PUSH1 16 = loop counter
      0x5b,                          // JUMPDEST (pc 2, loop head)
      0x5b,                          // JUMPDEST
      0x60, 0x01, 0x50,              // PUSH1 1 POP
      0x5b,                          // JUMPDEST
      0x80, 0x50,                    // DUP1 POP
      0x5b,                          // JUMPDEST
      0x60, 0x00, 0x51, 0x50,        // PUSH1 0 MLOAD POP
      0x5b,                          // JUMPDEST
      0x5b,                          // JUMPDEST
      0x60, 0x01, 0x90, 0x03,        // PUSH1 1 SWAP1 SUB  (counter -= 1)
      0x80, 0x60, 0x02, 0x57,        // DUP1 PUSH1 2 JUMPI
      0x00,                          // STOP
  };
  for (uint64_t gas = 0; gas < 1'500; gas += 7) {
    CheckBothLoops(code, Bytes{}, gas,
                   "many-blocks gas=" + std::to_string(gas));
  }
  CheckBothLoops(code, Bytes{}, 1'000'000, "many-blocks full");
}

TEST(InterpDifferentialTest, ConstantBadJumpTargets) {
  // PUSH+JUMP to an invalid destination (always faults) and PUSH+JUMPI to
  // an invalid destination with both a taken and a non-taken condition
  // (faults only when taken).
  CheckBothLoops(Bytes{0x60, 0x03, 0x56, 0x00}, Bytes{}, 100'000,
                "push-jump-bad");
  CheckBothLoops(Bytes{0x60, 0x01, 0x60, 0x03, 0x57, 0x00}, Bytes{}, 100'000,
                "push-jumpi-bad-taken");
  CheckBothLoops(Bytes{0x60, 0x00, 0x60, 0x03, 0x57, 0x00}, Bytes{}, 100'000,
                "push-jumpi-bad-skipped");
}

TEST(InterpDifferentialTest, CreateAndSelfdestruct) {
  // CREATE with init code assembled in memory (init: PUSH1 0 PUSH1 0
  // RETURN → deploys empty code), then SELFDESTRUCT to the sender.
  Bytes code = {
      // MSTORE8 the 5-byte init code 0x600060 00f3 at mem[0..5)
      0x60, 0x60, 0x60, 0x00, 0x53,  // mem[0] = 0x60
      0x60, 0x00, 0x60, 0x01, 0x53,  // mem[1] = 0x00
      0x60, 0x60, 0x60, 0x02, 0x53,  // mem[2] = 0x60
      0x60, 0x00, 0x60, 0x03, 0x53,  // mem[3] = 0x00
      0x60, 0xf3, 0x60, 0x04, 0x53,  // mem[4] = 0xf3
      0x60, 0x05, 0x60, 0x00, 0x60, 0x02, 0xf0,  // CREATE value=2 mem[0..5)
      0x50,                                      // POP created address
      0x60, 0xaa, 0xff,                          // SELFDESTRUCT -> 0xaa
  };
  for (uint64_t gas : {1'000ull, 33'000ull, 500'000ull}) {
    CheckBothLoops(code, Bytes{}, gas, "create gas=" + std::to_string(gas));
  }
}

TEST(InterpDifferentialTest, ReturndatacopyPastEnd) {
  // STATICCALL the callee then RETURNDATACOPY one byte past the returned
  // 32 bytes — the EIP-211 exceptional halt, inside a threaded checkpoint.
  Bytes code = {
      0x60, 0x00, 0x60, 0x00, 0x60, 0x00, 0x60, 0x00,
      0x61, 0xca, 0x11, 0x61, 0xc3, 0x50, 0xfa, 0x50,  // STATICCALL, POP
      0x60, 0x21, 0x60, 0x00, 0x60, 0x00, 0x3e,        // RETURNDATACOPY 33b
      0x00,
  };
  CheckBothLoops(code, Bytes{}, 200'000, "returndatacopy-past-end");
}

// The init-code path (override code, uncached analysis) must agree too:
// run a contract creation on both loops.
TEST(InterpDifferentialTest, CreateTransactionPath) {
  // Init code: SSTORE(0, 7), return runtime code {STOP}.
  Bytes init = {
      0x60, 0x07, 0x60, 0x00, 0x55,  // SSTORE
      0x60, 0x00, 0x60, 0x00, 0x53,  // MSTORE8 mem[0] = 0x00 (STOP)
      0x60, 0x01, 0x60, 0x00, 0xf3,  // RETURN mem[0..1)
  };
  auto create = [&](bool reference) {
    std::optional<testing::ReferenceLoopScope> scope;
    if (reference) scope.emplace();
    state::WorldState world;
    Address sender = Address::FromWord(U256(kSenderWord));
    world.CreateAccount(sender);
    world.AddBalance(sender, U256(1'000'000));
    world.ClearJournal();
    Evm evm(&world, BlockContext{}, TxContext{sender, U256(1)});
    Execution got;
    got.result = evm.Create(sender, U256(9), init, 200'000);
    got.root = world.StateRoot();
    return got;
  };
  Execution ref = create(/*reference=*/true);
  Execution got = create(/*reference=*/false);
  EXPECT_EQ(ref.result.outcome, got.result.outcome);
  EXPECT_EQ(ref.result.gas_left, got.result.gas_left);
  EXPECT_EQ(ref.result.created, got.result.created);
  EXPECT_EQ(ref.root, got.root);
}

}  // namespace
}  // namespace onoff::evm
