// ledger: full blocks of plain value transfers over ~10^5 funded accounts,
// persisted, with a light client proving accounts between blocks.
//
// Per block, closed loop: every pre-signed wire transaction goes through
// Transaction::Decode and Blockchain::SubmitTransaction, then MineBlock
// runs. Between blocks (untimed for tx_per_s) a light client proves and
// verifies accounts against the new header's state root.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
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

constexpr size_t kAccounts = 100'000;     // funded population (recipients)
constexpr size_t kSenders = 1'000;        // keyed accounts that send
constexpr size_t kBlockTxs = 200;         // = ChainConfig::max_txs_per_block
constexpr size_t kProofsPerBlock = 16;    // light-client reads per block
constexpr double kNewAccountShare = 0.125;
const U256 kFunding(1'000'000'000'000'000'000ULL);

struct Transfer {
  Bytes wire;
  size_t sender;
  Address to;
  U256 value;
};

struct Ledger {
  std::unique_ptr<Blockchain> chain;
  BlockProbe* probe = nullptr;  // owned by the chain's auditor
  std::vector<PrivateKey> keys;
  std::vector<Address> senders;
  std::vector<Address> population;
  std::vector<uint64_t> next_nonce;
  LedgerModel model;
};

Address RandomAddress(Rng& rng) {
  return Address::FromWord(rng.Word());
}

// One block of transfers. Senders are uniform; recipients are skewed
// towards the low indices of the population (u^3), and a share go to fresh
// addresses, creating accounts.
std::vector<Transfer> MakeBlock(Ledger& ledger, Rng& rng, SpanLog& spans,
                                Samples& sign_us) {
  std::vector<Transfer> block;
  block.reserve(kBlockTxs);
  for (size_t i = 0; i < kBlockTxs; ++i) {
    Transfer t;
    t.sender = rng.Below(kSenders);
    if (rng.Uniform() < kNewAccountShare) {
      t.to = RandomAddress(rng);
    } else {
      double u = rng.Uniform();
      t.to = ledger.population[static_cast<size_t>(
          std::floor(u * u * u * static_cast<double>(kAccounts)))];
    }
    t.value = U256(1 + rng.Below(1'000'000));
    Transaction tx;
    tx.nonce = ledger.next_nonce[t.sender]++;
    tx.gas_price = U256(1);
    tx.gas_limit = kTransferGas;
    tx.to = t.to;
    tx.value = t.value;
    Timed(spans, "crypto.sign", sign_us,
          [&] { tx.Sign(ledger.keys[t.sender]); });
    t.wire = tx.Encode();
    block.push_back(std::move(t));
  }
  return block;
}

std::unique_ptr<Ledger> SetUp(const Options& options, const std::string& dir,
                              SpanLog& spans) {
  auto ledger = std::make_unique<Ledger>();
  ledger->chain = std::make_unique<Blockchain>(NodeConfig(dir));
  Blockchain& chain = *ledger->chain;
  if (options.trace) {
    auto probe = std::make_unique<BlockProbe>(
        &spans, dir + "/probe.log", chain.config().state_history_blocks,
        /*wire=*/false);
    ledger->probe = probe.get();
    chain.auditor()->AddInvariant(std::move(probe));
  }
  Rng rng(options.seed);
  ledger->population.reserve(kAccounts);
  for (size_t i = 0; i < kAccounts; ++i) {
    Address addr = RandomAddress(rng);
    ledger->population.push_back(addr);
    chain.FundAccount(addr, kFunding);
    ledger->model.Fund(addr, kFunding);
  }
  for (size_t i = 0; i < kSenders; ++i) {
    ledger->keys.push_back(PrivateKey::FromSeed(
        "perfbench/ledger/" + std::to_string(options.seed) + "/" +
        std::to_string(i)));
    Address addr = ledger->keys.back().EthAddress();
    ledger->senders.push_back(addr);
    chain.FundAccount(addr, kFunding);
    ledger->model.Fund(addr, kFunding);
  }
  ledger->next_nonce.assign(kSenders, 0);
  // Commit, persist and audit the genesis population once, so the timed
  // blocks carry only their own changes.
  chain.MineBlock();
  return ledger;
}

}  // namespace

void RunLedger(const Options& options, SpanLog& spans, RunResult& result) {
  // peak_rss_mb after set-up and 10 blocks.
  EndToEnd e2e(10);
  Layers layers;
  Samples setup_sign_us;  // signing during set-up is not a sample
  std::unique_ptr<Ledger> ledger;
  Rng rng(0);
  std::vector<Transfer> next;
  ledger = RepeatSetup(options, e2e.setup_s, [&](const std::string& dir) {
    auto node = SetUp(options, dir, spans);
    rng = Rng(options.seed ^ 0x5eed);
    next = MakeBlock(*node, rng, spans, setup_sign_us);
    return node;
  });
  Blockchain& chain = *ledger->chain;
  const Address coinbase = chain.config().coinbase;
  if (ledger->probe != nullptr) ledger->probe->recording = true;
  Samples mine_us, submit_us;

  uint64_t block_no = 0;
  while (e2e.timed_us < options.seconds * 1e6) {
    spans.set_op(++block_no);
    std::vector<Transfer> block = std::move(next);
    std::vector<Bytes> wires;
    wires.reserve(block.size());
    for (const Transfer& t : block) wires.push_back(t.wire);
    BlockRun run = RunBlock(chain, wires, options, spans, layers, mine_us,
                            submit_us, result);
    uint64_t round_txs = 0, round_gas = 0;

    // ---- untimed: receipts against the model ----
    std::vector<Address> touched;
    for (size_t i = 0; i < block.size(); ++i) {
      if (!run.hashes[i].has_value()) continue;
      auto receipt = chain.GetReceipt(*run.hashes[i]);
      std::string why = receipt.ok() ? CheckTransferReceipt(*receipt)
                                     : "no receipt for a submitted transfer";
      result.ops.Count("tx_mined_ok", why.empty());
      if (!why.empty()) {
        result.Error("ledger: " + why);
        continue;
      }
      const Transfer& t = block[i];
      ledger->model.Transfer(ledger->senders[t.sender], t.to, t.value,
                             U256(kTransferGas), coinbase);
      ++round_txs;
      round_gas += receipt->gas_used;
      touched.push_back(ledger->senders[t.sender]);
      touched.push_back(t.to);
    }
    e2e.AddRound(round_txs, round_gas, run.us);

    // ---- light client: prove + verify against the header root ----
    const onoff::Hash32 root = chain.blocks().back().header.state_root;
    for (size_t k = 0; k < kProofsPerBlock; ++k) {
      Address addr = (k % 2 == 0 && !touched.empty())
                         ? touched[rng.Below(touched.size())]
                         : ledger->population[rng.Below(kAccounts)];
      SpanLog::Scope read(&spans, "light_client.read");
      auto proof = Timed(spans, "state.prove", layers.prove_us,
                         [&] { return chain.state().ProveAccount(addr); });
      auto info = Timed(spans, "state.verify", layers.verify_us, [&] {
        return WorldState::VerifyAccountProof(root, addr,
                                              proof.account_proof);
      });
      e2e.read_us.Add(read.Stop());
      std::string why = info.ok() ? CheckAccount(ledger->model, addr, *info)
                                  : "proof did not verify: " +
                                        info.status().message();
      result.ops.Count("proof_verified", why.empty());
      if (!why.empty()) result.Error("ledger: " + why);
    }

    Samples sign_us_or_scratch;
    next = MakeBlock(*ledger, rng, spans,
                     options.trace ? layers.sign_us : sign_us_or_scratch);
  }

  // Whole-ledger check: every account the model touched, read back.
  for (const auto& [addr, balance] : ledger->model.balances()) {
    if (chain.GetBalance(addr) != balance ||
        chain.GetNonce(addr) != ledger->model.Nonce(addr)) {
      result.Error("ledger: final state of " + addr.ToHex() +
                   " differs from the model");
      break;
    }
  }
  std::string why =
      CheckConservation(ledger->model.balances(), ledger->model.minted());
  result.Expect(why.empty(), "ledger: model " + why);
  CheckNode(chain, ledger->probe, result);

  e2e.op_ms = mine_us.Scaled(1e-3);
  if (options.trace) {
    for (size_t i = 0; i < 64; ++i) {
      const PrivateKey& key = ledger->keys[i];
      Timed(spans, "crypto.eth_address", layers.eth_address_us,
            [&] { return key.EthAddress(); });
    }
    AddPerLayer(layers, *ledger->probe, e2e, result);
    result.report.push_back({"chain.submit_us", submit_us.Median(), "us"});
  } else {
    AddEndToEnd(e2e, result);
  }
  result.report.push_back({"block_ms_p50", e2e.op_ms.Median(), "ms"});
  AddTail("block_ms_p90", e2e.op_ms, "ms", result);
  result.report.push_back({"proof_us_p50", e2e.read_us.Median(), "us"});
  ledger.reset();
}

}  // namespace perfbench
