// calls: full blocks of calls to the paper's all-on-chain model
// (contracts::BuildWholeInit), half to light SSTORE functions and half to
// heavy keccak-chain functions, on small state. Between blocks a
// participant runs the hybrid model's off-chain part
// (BuildHybridOffChainInit) locally through Blockchain::CallReadOnly, and
// a light client proves one light and one heavy slot against the header.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "checks.h"
#include "contracts/betting.h"
#include "contracts/synthetic.h"
#include "layers.h"

namespace perfbench {

using onoff::Address;
using onoff::Bytes;
using onoff::U256;
using onoff::chain::Blockchain;
using onoff::chain::Transaction;
using onoff::secp256k1::PrivateKey;
using onoff::state::WorldState;

namespace {

constexpr int kFunctions = 8;  // light and heavy functions each
constexpr uint64_t kHeavyIterations = 200;
constexpr size_t kSenders = 64;
constexpr size_t kMaxBlockTxs = 200;  // = ChainConfig::max_txs_per_block
constexpr size_t kReadsPerBlock = 4;
const U256 kFunding = onoff::contracts::Ether(1000);

onoff::contracts::SyntheticConfig Synthetic() {
  onoff::contracts::SyntheticConfig config;
  config.num_light = kFunctions;
  config.num_heavy = kFunctions;
  config.heavy_iterations = kHeavyIterations;
  return config;
}

U256 LightSlot(int i) { return U256(onoff::contracts::synthetic_slots::kLightBase + i); }
U256 HeavySlot(int i) { return U256(onoff::contracts::synthetic_slots::kHeavyBase + i); }

struct Call {
  bool heavy;
  int fn;
};

struct Calls {
  std::unique_ptr<Blockchain> chain;
  BlockProbe* probe = nullptr;  // owned by the chain's auditor
  // The participant's private chain holding the off-chain part.
  std::unique_ptr<Blockchain> local;
  Address offchain;
  Bytes init;
  Address contract;
  std::vector<PrivateKey> keys;
  std::vector<uint64_t> next_nonce;
  uint64_t light_gas_limit = 0, heavy_gas_limit = 0;
  size_t block_txs = 0;
  std::vector<U256> heavy_results;  // the benchmark's own keccak chains
};

Bytes Signed(Calls& calls, size_t sender, std::optional<Address> to,
             Bytes data, uint64_t gas_limit, SpanLog& spans, Samples& sign_us) {
  Transaction tx;
  tx.nonce = calls.next_nonce[sender]++;
  tx.gas_price = U256(1);
  tx.gas_limit = gas_limit;
  tx.to = to;
  tx.data = std::move(data);
  Timed(spans, "crypto.sign", sign_us, [&] { tx.Sign(calls.keys[sender]); });
  return tx.Encode();
}

// Submits `wire`, mines, and returns the receipt (set-up path).
onoff::Result<onoff::chain::Receipt> MineOne(Blockchain& chain,
                                             const Bytes& wire) {
  ONOFF_ASSIGN_OR_RETURN(Transaction tx, Transaction::Decode(wire));
  ONOFF_ASSIGN_OR_RETURN(onoff::Hash32 hash, chain.SubmitTransaction(tx));
  chain.MineBlock();
  return chain.GetReceipt(hash);
}

std::unique_ptr<Calls> SetUp(const Options& options, const std::string& dir,
                             SpanLog& spans, RunResult& result) {
  auto calls = std::make_unique<Calls>();
  calls->chain = std::make_unique<Blockchain>(NodeConfig(dir));
  Blockchain& chain = *calls->chain;
  if (options.trace) {
    auto probe = std::make_unique<BlockProbe>(
        &spans, dir + "/probe.log", chain.config().state_history_blocks,
        /*wire=*/false);
    calls->probe = probe.get();
    chain.auditor()->AddInvariant(std::move(probe));
  }
  for (size_t i = 0; i < kSenders; ++i) {
    calls->keys.push_back(PrivateKey::FromSeed(
        "perfbench/calls/" + std::to_string(options.seed) + "/" +
        std::to_string(i)));
    chain.FundAccount(calls->keys.back().EthAddress(), kFunding);
  }
  calls->next_nonce.assign(kSenders, 0);
  for (int i = 0; i < kFunctions; ++i) {
    calls->heavy_results.push_back(KeccakChain(i, kHeavyIterations));
  }

  Samples unused;
  auto init = onoff::contracts::BuildWholeInit(Synthetic());
  if (!result.Expect(init.ok(), "calls: BuildWholeInit failed")) return calls;
  calls->init = *init;
  auto deploy = MineOne(chain, Signed(*calls, 0, std::nullopt, calls->init,
                                      4'000'000, spans, unused));
  if (!result.Expect(deploy.ok() && deploy->success,
                     "calls: contract deployment failed")) {
    return calls;
  }
  calls->contract = deploy->contract_address;
  // Call every function once: fills its slot (so timed calls rewrite
  // warm slots) and measures its gas, which sizes the gas limits.
  uint64_t light_gas = 0, heavy_gas = 0;
  for (int i = 0; i < kFunctions; ++i) {
    for (bool heavy : {false, true}) {
      Bytes data = heavy ? onoff::contracts::HeavyCalldata(i)
                         : onoff::contracts::LightCalldata(i);
      auto r = MineOne(chain, Signed(*calls, 1 + i % (kSenders - 1),
                                     calls->contract, data, 4'000'000, spans,
                                     unused));
      if (!result.Expect(r.ok() && r->success, "calls: warm-up call failed")) {
        return calls;
      }
      uint64_t& g = heavy ? heavy_gas : light_gas;
      g = std::max(g, r->gas_used);
    }
  }
  calls->light_gas_limit = light_gas + light_gas / 4;
  calls->heavy_gas_limit = heavy_gas + heavy_gas / 4;
  // Half light, half heavy, packed to the block gas limit (an even count).
  size_t pair_gas = calls->light_gas_limit + calls->heavy_gas_limit;
  calls->block_txs = std::min(
      kMaxBlockTxs, 2 * static_cast<size_t>(chain.config().block_gas_limit /
                                            pair_gas));

  calls->local = std::make_unique<Blockchain>();
  const PrivateKey& participant = calls->keys[0];
  calls->local->FundAccount(participant.EthAddress(), kFunding);
  auto offchain_init = onoff::contracts::BuildHybridOffChainInit(Synthetic());
  if (!result.Expect(offchain_init.ok(), "calls: off-chain build failed")) {
    return calls;
  }
  auto local = calls->local->Execute(participant, std::nullopt, U256(),
                                     *offchain_init, 4'000'000);
  if (!result.Expect(local.ok() && local->success,
                     "calls: local off-chain deployment failed")) {
    return calls;
  }
  calls->offchain = local->contract_address;
  return calls;
}

std::vector<Call> MakeBlock(Calls& calls, Rng& rng, std::vector<Bytes>& wires,
                            SpanLog& spans, Samples& sign_us) {
  std::vector<Call> block;
  for (size_t i = 0; i < calls.block_txs; ++i) {
    block.push_back({i % 2 == 1, static_cast<int>(rng.Below(kFunctions))});
  }
  for (size_t i = block.size(); i > 1; --i) {
    std::swap(block[i - 1], block[rng.Below(i)]);
  }
  wires.clear();
  for (size_t i = 0; i < block.size(); ++i) {
    const Call& c = block[i];
    wires.push_back(Signed(
        calls, i % kSenders, calls.contract,
        c.heavy ? onoff::contracts::HeavyCalldata(c.fn)
                : onoff::contracts::LightCalldata(c.fn),
        c.heavy ? calls.heavy_gas_limit : calls.light_gas_limit, spans,
        sign_us));
  }
  return block;
}

}  // namespace

void RunCalls(const Options& options, SpanLog& spans, RunResult& result) {
  // peak_rss_mb after set-up and 40 blocks.
  EndToEnd e2e(40);
  Layers layers;
  Samples setup_sign_us;
  Rng rng(0);
  std::vector<Call> next;
  std::vector<Bytes> next_wires;
  std::unique_ptr<Calls> calls =
      RepeatSetup(options, e2e.setup_s, [&](const std::string& dir) {
        auto c = SetUp(options, dir, spans, result);
        rng = Rng(options.seed);
        if (result.correct()) {
          next = MakeBlock(*c, rng, next_wires, spans, setup_sign_us);
        }
        return c;
      });
  if (!result.correct()) return;
  Blockchain& chain = *calls->chain;
  if (calls->probe != nullptr) calls->probe->recording = true;
  const Address reader = calls->keys[0].EthAddress();
  Samples mine_us, submit_us, call_us, analysis_us;

  uint64_t block_no = 0;
  while (e2e.timed_us < options.seconds * 1e6) {
    spans.set_op(++block_no);
    std::vector<Call> block = std::move(next);
    std::vector<Bytes> wires = std::move(next_wires);
    BlockRun run = RunBlock(chain, wires, options, spans, layers, mine_us,
                            submit_us, result);
    uint64_t round_txs = 0, round_gas = 0;

    // ---- untimed: receipts and the contract's storage image ----
    for (size_t i = 0; i < block.size(); ++i) {
      if (!run.hashes[i].has_value()) continue;
      auto receipt = chain.GetReceipt(*run.hashes[i]);
      bool ok = receipt.ok() && receipt->success;
      result.ops.Count("tx_mined_ok", ok);
      if (!ok) {
        result.Error("calls: a call's receipt is not successful");
        continue;
      }
      ++round_txs;
      round_gas += receipt->gas_used;
      const Call& c = block[i];
      U256 value = chain.GetStorage(
          calls->contract, c.heavy ? HeavySlot(c.fn) : LightSlot(c.fn));
      std::string why = CheckSlot(
          value, c.heavy ? calls->heavy_results[c.fn] : U256(c.fn + 1));
      if (!why.empty()) result.Error("calls: " + why);
    }
    e2e.AddRound(round_txs, round_gas, run.us);

    // ---- light client: one light and one heavy slot, by proof ----
    const onoff::Hash32 root = chain.blocks().back().header.state_root;
    for (bool heavy : {false, true}) {
      int fn = static_cast<int>(rng.Below(kFunctions));
      U256 slot = heavy ? HeavySlot(fn) : LightSlot(fn);
      U256 want = heavy ? calls->heavy_results[fn] : U256(fn + 1);
      auto proof = Timed(spans, "state.prove", layers.prove_us, [&] {
        return chain.state().ProveStorage(calls->contract, slot);
      });
      std::string why = Timed(spans, "state.verify", layers.verify_us, [&] {
        auto account =
            WorldState::VerifyAccountProof(root, calls->contract,
                                           proof.account_proof);
        if (!account.ok() || !account->has_value()) {
          return std::string("contract account proof did not verify");
        }
        auto value = WorldState::VerifyStorageProof(
            (*account)->storage_root, slot, proof.storage_proof);
        if (!value.ok()) return std::string("storage proof did not verify");
        return CheckSlot(*value, want);
      });
      result.ops.Count("proof_verified", why.empty());
      if (!why.empty()) result.Error("calls: proved " + why);
    }

    // ---- the off-chain part, executed locally ----
    for (size_t k = 0; k < kReadsPerBlock; ++k) {
      int fn = static_cast<int>(rng.Below(kFunctions));
      Bytes data = onoff::contracts::HeavyCalldata(fn);
      auto out = Timed(spans, "chain.call_read_only", call_us, [&] {
        return calls->local->CallReadOnly(reader, calls->offchain, data);
      });
      std::string why = CheckCall(out, calls->heavy_results[fn]);
      result.ops.Count("local_call", why.empty());
      if (!why.empty()) result.Error("calls: " + why);
    }

    if (options.trace) {
      Timed(spans, "analysis.audit", analysis_us, [&] {
        return onoff::analysis::AnalyzeDeployment(calls->init);
      });
    }
    Samples scratch;
    next = MakeBlock(*calls, rng, next_wires, spans,
                     options.trace ? layers.sign_us : scratch);
  }
  CheckNode(chain, calls->probe, result);

  e2e.op_ms = mine_us.Scaled(1e-3);
  e2e.read_us = call_us;
  if (options.trace) {
    for (size_t i = 0; i < 64; ++i) {
      const PrivateKey& key = calls->keys[i % kSenders];
      Timed(spans, "crypto.eth_address", layers.eth_address_us,
            [&] { return key.EthAddress(); });
    }
    AddPerLayer(layers, *calls->probe, e2e, result);
    result.report.push_back({"chain.submit_us", submit_us.Median(), "us"});
    result.report.push_back({"analysis.audit_us", analysis_us.Median(), "us"});
  } else {
    AddEndToEnd(e2e, result);
  }
  result.report.insert(
      result.report.end(),
      {{"block_ms_p50", e2e.op_ms.Median(), "ms"},
       {"call_us_p50", call_us.Median(), "us"},
       {"block_txs", static_cast<double>(calls->block_txs), "count"}});
  AddTail("block_ms_p90", e2e.op_ms, "ms", result);
}

}  // namespace perfbench
