// Interpreter dispatch benchmark: the same workloads on the reference
// switch loop (the test oracle, reached through
// evm::testing::ReferenceLoopScope) and on the threaded loop every
// production frame runs.
//
//   dense:    direct Evm::Call of an arithmetic loop contract — the
//             dispatch-bound worst case where per-instruction overhead
//             dominates (no storage, no memory growth, no sub-calls).
//   protocol: the full Table II dispute flow (deploy, deposits,
//             deployVerifiedInstance with signature checks, dispute
//             re-execution) — the paper's actual transaction mix, where
//             keccak/storage/sig work dilutes dispatch overhead.
//
// Each of --repeats N rounds (default 7) runs every mode once, back to
// back, so load drift on the machine hits both loops alike. A row reports
// the median wall time and the median per-round speedup over the switch
// loop, each with its interquartile range.
//
// Every run records gas and the post-state root; any divergence from the
// first switch run is a correctness failure (exit 1), so the reported
// speedups are over verified-identical executions.
//
// Writes BENCH_evm_interp.json (onoffchain-bench-v1) via --json <path>.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "chain/blockchain.h"
#include "contracts/betting.h"
#include "crypto/secp256k1.h"
#include "easm/assembler.h"
#include "evm/evm.h"
#include "evm/interp.h"
#include "obs/export.h"
#include "state/world_state.h"

using namespace onoff;

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Linear-interpolated quantile of `v` (0 <= q <= 1).
double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

struct Spread {
  double median = 0;
  double iqr = 0;  // q3 - q1
};

Spread SpreadOf(const std::vector<double>& v) {
  return {Quantile(v, 0.5), Quantile(v, 0.75) - Quantile(v, 0.25)};
}

struct Mode {
  const char* name;
  bool reference;  // run on the switch loop
};
constexpr Mode kModes[] = {{"switch", true}, {"threaded", false}};

// Runs `fn` with every frame on the selected loop.
template <typename Fn>
auto OnLoop(const Mode& mode, Fn fn) {
  if (!mode.reference) return fn();
  evm::testing::ReferenceLoopScope scope;
  return fn();
}

// One timed run of a workload: what it cost and what it produced.
struct RunResult {
  double wall_ms = 0;
  uint64_t gas = 0;
  Bytes output;
  Hash32 root{};

  bool SameEffects(const RunResult& o) const {
    return gas == o.gas && output == o.output && root == o.root;
  }
};

// ---------------------------------------------------------------------------
// Dense workload
// ---------------------------------------------------------------------------

// An accumulator loop: ~18 cheap ops per iteration, no checkpoints inside
// the loop body. Returns the accumulator, so the output hash pins the whole
// computation.
Bytes DenseLoopRuntime(uint64_t iterations) {
  char iters_hex[16];
  std::snprintf(iters_hex, sizeof iters_hex, "%04llx",
                static_cast<unsigned long long>(iterations));
  std::string src = std::string("PUSH1 0x00\nPUSH2 0x") + iters_hex + R"(
    loop: JUMPDEST
    DUP1 DUP1 MUL
    DUP3 ADD
    SWAP2 POP
    DUP1 PUSH1 0x0f SHR POP
    PUSH1 0x01 SWAP1 SUB
    DUP1 PUSH @loop JUMPI
    POP
    PUSH1 0x00 MSTORE
    PUSH1 0x20 PUSH1 0x00 RETURN
  )";
  auto code = easm::Assemble(src);
  if (!code.ok()) {
    std::fprintf(stderr, "dense contract assembly failed\n");
    std::exit(1);
  }
  return *code;
}

// `gas` is per call.
RunResult RunDense(const Bytes& runtime, uint64_t calls) {
  state::WorldState world;
  Address contract = Address::FromWord(U256(0xd15a));
  Address sender = Address::FromWord(U256(0xaa));
  world.CreateAccount(sender);
  world.AddBalance(sender, U256(1'000'000'000));
  world.SetCode(contract, runtime);
  world.ClearJournal();

  evm::Evm vm(&world, evm::BlockContext{}, evm::TxContext{sender, U256(1)});
  evm::CallMessage msg;
  msg.caller = sender;
  msg.to = contract;
  msg.gas = 2'000'000;

  RunResult r;
  auto one_call = [&] {
    evm::ExecResult res = vm.Call(msg);
    if (!res.ok()) {
      std::fprintf(stderr, "dense call failed: %s\n",
                   evm::OutcomeToString(res.outcome));
      std::exit(1);
    }
    r.gas = msg.gas - res.gas_left;
    r.output = res.output;
  };
  for (uint64_t i = 0; i < calls / 8 + 1; ++i) one_call();  // warmup

  auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < calls; ++i) one_call();
  r.wall_ms = MsSince(start);
  r.root = world.StateRoot();
  return r;
}

// ---------------------------------------------------------------------------
// Protocol workload (the Table II dispute flow)
// ---------------------------------------------------------------------------

// `gas` is the flow's total.
RunResult RunProtocol() {
  auto alice = secp256k1::PrivateKey::FromSeed("alice");
  auto bob = secp256k1::PrivateKey::FromSeed("bob");

  chain::Blockchain chain;
  chain.FundAccount(alice.EthAddress(), contracts::Ether(10));
  chain.FundAccount(bob.EthAddress(), contracts::Ether(10));

  uint64_t now = chain.Now();
  contracts::BettingConfig betting;
  betting.alice = alice.EthAddress();
  betting.bob = bob.EthAddress();
  betting.deposit_amount = contracts::Ether(1);
  betting.t1 = now + 100;
  betting.t2 = now + 200;
  betting.t3 = now + 300;

  contracts::OffchainConfig offchain;
  offchain.alice = alice.EthAddress();
  offchain.bob = bob.EthAddress();
  offchain.secret_alice = U256(0xa11ce);
  offchain.secret_bob = U256(0xb0b);
  offchain.reveal_iterations = 2000;

  auto onchain_init = contracts::BuildOnChainInit(betting);
  auto offchain_init = contracts::BuildOffChainInit(offchain);

  RunResult r;
  uint64_t gas = 0;
  auto start = std::chrono::steady_clock::now();

  auto deploy = chain.Execute(alice, std::nullopt, U256(), *onchain_init,
                              4'000'000);
  if (!deploy.ok() || !deploy->success) std::exit(1);
  gas += deploy->gas_used;
  Address onchain = deploy->contract_address;

  auto dep_a = chain.Execute(alice, onchain, contracts::Ether(1),
                             contracts::DepositCalldata(), 300'000);
  auto dep_b = chain.Execute(bob, onchain, contracts::Ether(1),
                             contracts::DepositCalldata(), 300'000);
  if (!dep_a.ok() || !dep_b.ok()) std::exit(1);
  gas += dep_a->gas_used + dep_b->gas_used;
  chain.AdvanceTimeTo(betting.t3);

  Hash32 digest = Keccak256(*offchain_init);
  auto sig_a = secp256k1::Sign(digest, alice);
  auto sig_b = secp256k1::Sign(digest, bob);
  Bytes calldata = contracts::DeployVerifiedInstanceCalldata(
      *offchain_init, sig_a->v, sig_a->r, sig_a->s, sig_b->v, sig_b->r,
      sig_b->s);
  auto deploy_vi =
      chain.Execute(bob, onchain, U256(), std::move(calldata), 7'000'000);
  if (!deploy_vi.ok() || !deploy_vi->success) std::exit(1);
  gas += deploy_vi->gas_used;

  Address instance = Address::FromWord(chain.GetStorage(
      onchain, U256(contracts::betting_slots::kDeployedAddr)));
  auto resolve = chain.Execute(
      bob, instance, U256(),
      contracts::ReturnDisputeResolutionCalldata(onchain), 7'000'000);
  if (!resolve.ok() || !resolve->success) std::exit(1);
  gas += resolve->gas_used;

  r.wall_ms = MsSince(start);
  r.gas = gas;
  r.root = chain.blocks().back().header.state_root;
  return r;
}

// ---------------------------------------------------------------------------
// Interleaved repeats
// ---------------------------------------------------------------------------

struct ModeStats {
  Spread wall_ms;
  Spread speedup;  // per-round switch wall / this mode's wall
  RunResult last;
  bool roots_match = true;
};

// Runs every mode once per round, `repeats` rounds, and checks every run's
// effects against the first switch run.
template <typename Fn>
std::vector<ModeStats> Interleave(int repeats, Fn run) {
  const size_t n = std::size(kModes);
  std::vector<std::vector<double>> walls(n);
  std::vector<ModeStats> stats(n);
  RunResult ref;
  for (int rep = 0; rep < repeats; ++rep) {
    for (size_t m = 0; m < n; ++m) {
      RunResult r = OnLoop(kModes[m], run);
      if (rep == 0 && m == 0) ref = r;
      stats[m].roots_match = stats[m].roots_match && r.SameEffects(ref);
      walls[m].push_back(r.wall_ms);
      stats[m].last = std::move(r);
    }
  }
  for (size_t m = 0; m < n; ++m) {
    std::vector<double> speedups;
    for (int rep = 0; rep < repeats; ++rep) {
      speedups.push_back(walls[m][rep] > 0 ? walls[0][rep] / walls[m][rep]
                                           : 0.0);
    }
    stats[m].wall_ms = SpreadOf(walls[m]);
    stats[m].speedup = SpreadOf(speedups);
  }
  return stats;
}

obs::Json Row(const char* workload, const Mode& mode, int repeats,
              const ModeStats& s) {
  return obs::Json::Object()
      .Set("workload", obs::Json::Str(workload))
      .Set("mode", obs::Json::Str(mode.name))
      .Set("repeats", obs::Json::Uint(static_cast<uint64_t>(repeats)))
      .Set("wall_ms", obs::Json::Num(s.wall_ms.median))
      .Set("wall_ms_iqr", obs::Json::Num(s.wall_ms.iqr))
      .Set("speedup_vs_switch", obs::Json::Num(s.speedup.median))
      .Set("speedup_iqr", obs::Json::Num(s.speedup.iqr))
      .Set("roots_match", obs::Json::Bool(s.roots_match));
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path =
      obs::JsonPathFromArgsOrExit(&argc, argv, "BENCH_evm_interp.json");
  uint64_t dense_calls = 60;
  uint64_t dense_iters = 0x2000;
  int repeats = 7;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--calls") == 0) {
      dense_calls = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--repeats") == 0) {
      repeats = static_cast<int>(std::strtol(argv[i + 1], nullptr, 10));
    }
  }
  if (repeats < 1) {
    std::fprintf(stderr, "--repeats must be >= 1\n");
    return 2;
  }

  obs::Json rows = obs::Json::Array();
  bool all_roots_match = true;

  // ---- dense ----
  Bytes runtime = DenseLoopRuntime(dense_iters);
  std::printf(
      "=== EVM interpreter dispatch: dense loop, %llu calls/mode, median of "
      "%d ===\n\n",
      static_cast<unsigned long long>(dense_calls), repeats);
  std::printf("%-10s %10s %8s %10s %12s %10s %8s %8s\n", "mode", "wall (ms)",
              "IQR", "Mgas/s", "gas/call", "speedup", "IQR", "roots");
  std::vector<ModeStats> dense =
      Interleave(repeats, [&] { return RunDense(runtime, dense_calls); });
  for (size_t m = 0; m < dense.size(); ++m) {
    const ModeStats& s = dense[m];
    all_roots_match = all_roots_match && s.roots_match;
    double mgas_per_s =
        s.wall_ms.median > 0
            ? static_cast<double>(s.last.gas * dense_calls) /
                  (s.wall_ms.median * 1000.0)
            : 0.0;
    std::printf("%-10s %10.1f %8.1f %10.1f %12llu %9.2fx %8.2f %8s\n",
                kModes[m].name, s.wall_ms.median, s.wall_ms.iqr, mgas_per_s,
                static_cast<unsigned long long>(s.last.gas), s.speedup.median,
                s.speedup.iqr, s.roots_match ? "ok" : "DIFF");
    rows.Push(Row("dense", kModes[m], repeats, s)
                  .Set("calls", obs::Json::Uint(dense_calls))
                  .Set("mgas_per_s", obs::Json::Num(mgas_per_s))
                  .Set("gas_per_call", obs::Json::Uint(s.last.gas)));
  }

  // ---- protocol ----
  std::printf(
      "\n=== Table II dispute flow (reveal_iterations=2000), median of %d "
      "===\n\n",
      repeats);
  std::printf("%-10s %10s %8s %14s %10s %8s %8s\n", "mode", "wall (ms)", "IQR",
              "total gas", "speedup", "IQR", "roots");
  std::vector<ModeStats> proto = Interleave(repeats, RunProtocol);
  for (size_t m = 0; m < proto.size(); ++m) {
    const ModeStats& s = proto[m];
    all_roots_match = all_roots_match && s.roots_match;
    std::printf("%-10s %10.1f %8.1f %14llu %9.2fx %8.2f %8s\n",
                kModes[m].name, s.wall_ms.median, s.wall_ms.iqr,
                static_cast<unsigned long long>(s.last.gas), s.speedup.median,
                s.speedup.iqr, s.roots_match ? "ok" : "DIFF");
    rows.Push(Row("protocol", kModes[m], repeats, s)
                  .Set("total_gas", obs::Json::Uint(s.last.gas)));
  }

  if (!json_path.empty()) {
    Status st = obs::WriteBenchJson(json_path, "evm_interp", std::move(rows));
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  if (!all_roots_match) {
    std::fprintf(stderr,
                 "FAIL: dispatch loops diverged (gas/output/state root)\n");
    return 1;
  }
  return 0;
}
