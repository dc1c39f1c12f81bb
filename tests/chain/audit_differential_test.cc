// The incremental conservation and nonce invariants against a full-sweep
// oracle. The chain's auditor reads only the accounts a block touched (the
// state's per-block pre-image record); the oracle below sums every balance
// and walks every account's nonce after each block, as the auditor once did.
// Over seeded multi-block workloads — transfers, transfers to new accounts,
// contract CREATE bumping a contract's nonce, SELFDESTRUCT, reverted calls,
// read-only calls and mints between blocks — in both execution modes, the
// two must report the same violations, block by block, and every injected
// fault must be caught by both under the same invariant. A last check pins
// the cost: a one-transfer block audits the same few accounts whatever the
// size of the state.

#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "chain/blockchain.h"
#include "chain/chain_audit.h"
#include "contracts/codegen.h"
#include "easm/assembler.h"
#include "obs/audit.h"
#include "obs/metrics.h"

namespace onoff::chain {
namespace {

using secp256k1::PrivateKey;

const U256 kEther = U256(10).Exp(U256(18));

// ---- the full-sweep oracle ------------------------------------------------

U256 TotalBalance(const state::WorldState& state) {
  U256 total;
  for (const Address& addr : state.Addresses()) {
    total = total + state.GetBalance(addr);
  }
  return total;
}

// Sum of all balances == the sum when first seen + recorded mints.
class SweepConservation : public BlockInvariant {
 public:
  const char* name() const override { return "conservation"; }

  void OnBlockStart(const std::vector<Transaction>& /*txs*/,
                    const state::WorldState& state) override {
    if (initialized_) return;
    expected_ = TotalBalance(state);
    initialized_ = true;
  }

  void OnMint(const Address& /*addr*/, const U256& amount) override {
    if (initialized_) expected_ = expected_ + amount;
  }

  void OnBlockCommit(const Block& block,
                     const std::vector<Receipt>& /*receipts*/,
                     const state::WorldState& state,
                     obs::Auditor& sink) override {
    U256 actual = TotalBalance(state);
    if (actual == expected_) return;
    obs::ViolationReport report;
    report.invariant = name();
    report.message = "sum of account balances diverged from minted supply";
    report.block_height = block.header.number;
    report.values = {{"expected_total", expected_.ToHex()},
                     {"actual_total", actual.ToHex()}};
    sink.Report(std::move(report));
    expected_ = actual;
  }

 private:
  bool initialized_ = false;
  U256 expected_;
};

// Every live account's nonce against its nonce after the previous block.
// An account that is gone after a block (SELFDESTRUCT) leaves the baseline,
// so re-creating it later counts as first sight.
class SweepNonce : public BlockInvariant {
 public:
  const char* name() const override { return "nonce"; }

  void OnBlockCommit(const Block& block, const std::vector<Receipt>& receipts,
                     const state::WorldState& state,
                     obs::Auditor& sink) override {
    struct SenderTxs {
      uint64_t count = 0;
      uint64_t successful = 0;
      Hash32 first_tx{};
    };
    std::map<Address, SenderTxs> by_sender;
    for (size_t i = 0; i < block.transactions.size(); ++i) {
      auto sender = block.transactions[i].Sender();
      if (!sender.ok()) continue;
      SenderTxs& entry = by_sender[*sender];
      if (entry.count == 0) entry.first_tx = block.transactions[i].Hash();
      ++entry.count;
      if (i < receipts.size() && receipts[i].success) ++entry.successful;
    }
    std::map<Address, uint64_t> next;
    for (const Address& addr : state.Addresses()) {
      uint64_t nonce = state.GetNonce(addr);
      next[addr] = nonce;
      auto tracked = last_nonce_.find(addr);
      if (tracked == last_nonce_.end()) continue;  // first sight
      uint64_t previous = tracked->second;
      auto txs = by_sender.find(addr);
      uint64_t count = txs != by_sender.end() ? txs->second.count : 0;
      uint64_t successful =
          txs != by_sender.end() ? txs->second.successful : 0;
      bool is_contract = !state.GetCode(addr).empty();
      std::string problem;
      if (nonce < previous) {
        problem = "account nonce decreased";
      } else if (!is_contract && nonce - previous > count) {
        problem = count == 0
                      ? "account nonce changed with no transaction from it"
                      : "account nonce skipped past its transaction count";
      } else if (!is_contract && nonce - previous < successful) {
        problem = "successful transactions did not all consume a nonce";
      }
      if (problem.empty()) continue;
      obs::ViolationReport report;
      report.invariant = name();
      report.message = problem;
      report.block_height = block.header.number;
      if (count > 0) {
        const Hash32& h = txs->second.first_tx;
        report.tx_hash = ToHex0x(BytesView(h.data(), h.size()));
      }
      report.values = {{"account", addr.ToHex()},
                       {"nonce_before", std::to_string(previous)},
                       {"nonce_after", std::to_string(nonce)},
                       {"txs_in_block", std::to_string(count)},
                       {"successful_txs", std::to_string(successful)}};
      sink.Report(std::move(report));
    }
    last_nonce_ = std::move(next);
  }

 private:
  std::map<Address, uint64_t> last_nonce_;
};

// Rides on the chain's auditor like any custom invariant and runs both
// sweeps into a sink of its own.
class SweepOracle : public BlockInvariant {
 public:
  SweepOracle() : sink_(QuietSink()) {
    sweeps_.push_back(std::make_unique<SweepConservation>());
    sweeps_.push_back(std::make_unique<SweepNonce>());
  }

  const char* name() const override { return "sweep-oracle"; }

  void OnBlockStart(const std::vector<Transaction>& txs,
                    const state::WorldState& state) override {
    for (auto& sweep : sweeps_) sweep->OnBlockStart(txs, state);
  }
  void OnBlockCommit(const Block& block, const std::vector<Receipt>& receipts,
                     const state::WorldState& state,
                     obs::Auditor& /*sink*/) override {
    for (auto& sweep : sweeps_) {
      sweep->OnBlockCommit(block, receipts, state, sink_);
    }
  }
  void OnMint(const Address& addr, const U256& amount) override {
    for (auto& sweep : sweeps_) sweep->OnMint(addr, amount);
  }

  obs::Auditor& sink() { return sink_; }

 private:
  static obs::AuditorConfig QuietSink() {
    obs::AuditorConfig config;
    config.dump_flight = false;
    return config;
  }

  obs::Auditor sink_;
  std::vector<std::unique_ptr<BlockInvariant>> sweeps_;
};

// The verdict-bearing fields of a report (not the wall-clock stamp).
std::vector<std::string> Verdicts(const std::vector<obs::ViolationReport>& rs) {
  std::vector<std::string> out;
  for (const obs::ViolationReport& r : rs) {
    std::string line = r.invariant + " | " + r.message + " | block " +
                       std::to_string(r.block_height) + " | " + r.tx_hash;
    for (const auto& [key, value] : r.values) line += " | " + key + "=" + value;
    out.push_back(std::move(line));
  }
  return out;
}

// ---- workloads ------------------------------------------------------------

Bytes Assemble(const std::string& source) {
  auto code = easm::Assemble(source);
  EXPECT_TRUE(code.ok()) << code.status().ToString();
  return code.ok() ? *code : Bytes{};
}

// Every call CREATEs a child carrying the call's value, so the factory's
// own nonce advances inside someone else's transaction. The child's runtime
// is CALLER SELFDESTRUCT: any call to it pays its balance to the caller and
// deletes it.
Bytes FactoryRuntime() {
  return Assemble(R"(
    PUSH1 0x0b PUSH @init PUSH1 0x01 ADD PUSH1 0x00 CODECOPY
    PUSH1 0x0b PUSH1 0x00 CALLVALUE CREATE
    POP STOP
    init: DB 0x6133ff6000526002601ef3
  )");
}

Bytes ReverterRuntime() { return Assemble("PUSH1 0x00 PUSH1 0x00 REVERT"); }

Transaction SignedTx(const PrivateKey& key, uint64_t nonce,
                     std::optional<Address> to, const U256& value, Bytes data,
                     uint64_t gas_limit) {
  Transaction tx;
  tx.nonce = nonce;
  tx.gas_price = U256(1);
  tx.gas_limit = gas_limit;
  tx.to = to;
  tx.value = value;
  tx.data = std::move(data);
  tx.Sign(key);
  return tx;
}

ChainConfig AuditedConfig(ExecMode mode) {
  ChainConfig config;
  config.audit_invariants = "conservation,nonce";
  config.audit_fatal = false;
  config.exec_mode = mode;
  if (mode == ExecMode::kParallel) {
    config.exec_workers = 2;
    config.assert_parallel_equivalence = true;
  }
  return config;
}

// One audited chain with the oracle attached, and a seeded random workload
// driving it. keys_[0..6] send; keys_[7] sends once during set-up and then
// stays idle, so faults injected into it meet no transaction of its own.
class Harness {
 public:
  static constexpr size_t kSenders = 7;

  Harness(ExecMode mode, uint32_t seed) : rng_(seed) {
    setenv("ONOFF_FLIGHTREC_DIR", ::testing::TempDir().c_str(), 1);
    chain_ = std::make_unique<Blockchain>(AuditedConfig(mode));
    auto oracle = std::make_unique<SweepOracle>();
    oracle_ = oracle.get();
    chain_->auditor()->AddInvariant(std::move(oracle));
    for (int i = 0; i <= static_cast<int>(kSenders); ++i) {
      keys_.push_back(PrivateKey::FromSeed("audit-diff-" + std::to_string(i)));
      chain_->FundAccount(keys_.back().EthAddress(), kEther * U256(100));
    }
    nonces_.assign(keys_.size(), 0);
    std::vector<Transaction> setup = {
        Next(0, std::nullopt, U256(), contracts::WrapDeployer(FactoryRuntime()),
             500'000),
        Next(0, std::nullopt, U256(),
             contracts::WrapDeployer(ReverterRuntime()), 500'000),
        Next(kSenders, keys_[0].EthAddress(), U256(1), {}, 21'000)};
    factory_ = evm::Evm::ContractAddress(keys_[0].EthAddress(), 0);
    reverter_ = evm::Evm::ContractAddress(keys_[0].EthAddress(), 1);
    Mine(setup);
    EXPECT_FALSE(chain_->GetCode(factory_).empty());
    EXPECT_FALSE(chain_->GetCode(reverter_).empty());
  }

  // One random block: 4-12 transactions of random kinds, preceded by the
  // between-block activity (mints, read-only calls) a node sees.
  void RandomBlock() {
    if (Chance(2)) {
      chain_->FundAccount(Chance(2) ? keys_[Pick(kSenders)].EthAddress()
                                    : Fresh(),
                          U256(1 + Pick(1'000'000)));
    }
    if (Chance(3)) {
      chain_->CallReadOnly(keys_[Pick(kSenders)].EthAddress(), factory_, {});
    }
    std::vector<Transaction> txs;
    size_t n = 4 + Pick(9);
    for (size_t t = 0; t < n; ++t) {
      size_t k = Pick(kSenders);
      U256 value(1 + Pick(10'000));
      std::vector<Address> children = LiveChildren();
      std::vector<Address> gone = DestroyedChildren();
      switch (Pick(7)) {
        case 0:  // transfer between senders
          txs.push_back(
              Next(k, keys_[Pick(kSenders)].EthAddress(), value, {}, 21'000));
          break;
        case 1:  // transfer creating an account
          txs.push_back(Next(k, Fresh(), value, {}, 21'000));
          break;
        case 2:  // CREATE inside the factory: its nonce moves
          txs.push_back(Next(k, factory_, value, {}, 200'000));
          break;
        case 3:  // SELFDESTRUCT a child (or call the factory if none)
          txs.push_back(Next(
              k, children.empty() ? factory_ : children[Pick(children.size())],
              U256(), {}, 100'000));
          break;
        case 4:  // reverted call: nonce consumed, success = false
          txs.push_back(Next(k, reverter_, value, {}, 50'000));
          break;
        case 5:  // re-create a destroyed child as a plain account
          txs.push_back(Next(k, gone.empty() ? Fresh() : gone[Pick(gone.size())],
                             value, {}, 21'000));
          break;
        default:  // contract creation from an EOA
          txs.push_back(Next(k, std::nullopt, value,
                             contracts::WrapDeployer(ReverterRuntime()),
                             200'000));
          break;
      }
    }
    Mine(txs);
  }

  void Mine(const std::vector<Transaction>& txs) {
    for (const Transaction& tx : txs) {
      ASSERT_TRUE(chain_->SubmitTransaction(tx).ok());
    }
    const Block& block = chain_->MineBlock();
    ASSERT_EQ(block.transactions.size(), txs.size());
    ExpectSameVerdicts(block.header.number);
  }

  // Both sinks hold the same reports for the block just mined; both are
  // cleared for the next one.
  void ExpectSameVerdicts(uint64_t height) {
    std::vector<obs::ViolationReport> incremental =
        chain_->auditor()->sink().Reports();
    EXPECT_EQ(Verdicts(incremental), Verdicts(oracle_->sink().Reports()))
        << "block " << height;
    last_reports_.insert(last_reports_.end(), incremental.begin(),
                         incremental.end());
    chain_->auditor()->sink().Clear();
    oracle_->sink().Clear();
  }

  Blockchain& chain() { return *chain_; }
  Address idle() const { return keys_[kSenders].EthAddress(); }
  const Address& reverter() const { return reverter_; }
  Address Fresh() {
    return PrivateKey::FromSeed("fresh-" + std::to_string(fresh_++))
        .EthAddress();
  }
  std::vector<Address> LiveChildren() const { return Children(true); }
  std::vector<Address> DestroyedChildren() const { return Children(false); }
  // Reports of every block since the last call.
  std::vector<obs::ViolationReport> TakeReports() {
    return std::exchange(last_reports_, {});
  }

 private:
  Transaction Next(size_t k, std::optional<Address> to, const U256& value,
                   Bytes data, uint64_t gas) {
    return SignedTx(keys_[k], nonces_[k]++, to, value, std::move(data), gas);
  }

  size_t Pick(size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(rng_);
  }
  bool Chance(size_t one_in) { return Pick(one_in) == 0; }

  // Children are created at the factory's nonces 1, 2, ...
  std::vector<Address> Children(bool live) const {
    std::vector<Address> out;
    for (uint64_t n = 1; n < chain_->GetNonce(factory_); ++n) {
      Address child = evm::Evm::ContractAddress(factory_, n);
      if (!chain_->GetCode(child).empty() == live) out.push_back(child);
    }
    return out;
  }

  std::mt19937 rng_;
  std::unique_ptr<Blockchain> chain_;
  SweepOracle* oracle_ = nullptr;
  std::vector<PrivateKey> keys_;
  std::vector<uint64_t> nonces_;
  Address factory_;
  Address reverter_;
  size_t fresh_ = 0;
  std::vector<obs::ViolationReport> last_reports_;
};

class AuditDifferentialTest : public ::testing::TestWithParam<ExecMode> {};

TEST_P(AuditDifferentialTest, SeededWorkloadsAgreeWithFullSweep) {
  for (uint32_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Harness h(GetParam(), seed);
    for (int block = 0; block < 8; ++block) h.RandomBlock();
    // The factory created children and some of them self-destructed.
    EXPECT_FALSE(h.DestroyedChildren().empty());
    EXPECT_TRUE(h.TakeReports().empty());
    EXPECT_EQ(h.chain().auditor()->violations(), 0u);
  }
}

struct Fault {
  const char* what;
  const char* invariant;
  const char* message;
};

TEST_P(AuditDifferentialTest, InjectedFaultsAreCaughtByBoth) {
  const std::vector<Fault> faults = {
      {"minted balance", "conservation",
       "sum of account balances diverged from minted supply"},
      {"minted new account", "conservation",
       "sum of account balances diverged from minted supply"},
      {"skipped nonce", "nonce",
       "account nonce changed with no transaction from it"},
      {"decreased EOA nonce", "nonce", "account nonce decreased"},
      {"decreased contract nonce", "nonce", "account nonce decreased"},
  };
  for (size_t f = 0; f < faults.size(); ++f) {
    SCOPED_TRACE(faults[f].what);
    Harness h(GetParam(), 100 + static_cast<uint32_t>(f));
    h.RandomBlock();
    h.RandomBlock();
    ASSERT_TRUE(h.TakeReports().empty());
    state::WorldState& state = h.chain().mutable_state_for_test();
    Address idle = h.idle();
    switch (f) {
      case 0:
        state.AddBalance(idle, kEther);
        break;
      case 1:
        state.AddBalance(h.Fresh(), U256(1));
        break;
      case 2:
        state.SetNonce(idle, state.GetNonce(idle) + 5);
        break;
      case 3:
        ASSERT_EQ(state.GetNonce(idle), 1u);
        state.SetNonce(idle, 0);
        break;
      default:
        ASSERT_EQ(state.GetNonce(h.reverter()), 1u);
        state.SetNonce(h.reverter(), 0);
        break;
    }
    h.RandomBlock();
    std::vector<obs::ViolationReport> reports = h.TakeReports();
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].invariant, faults[f].invariant);
    EXPECT_EQ(reports[0].message, faults[f].message);
    // The next block is clean again for both: each re-anchors.
    h.RandomBlock();
    EXPECT_TRUE(h.TakeReports().empty());
  }
}

// A block whose successful transaction left its sender untouched (a
// faulty executor that skipped the nonce bump) cannot come out of the
// chain, so both invariants are driven by hand here.
TEST(AuditDifferentialUnitTest, UntouchedSenderOfSuccessfulTxIsCaughtByBoth) {
  PrivateKey key = PrivateKey::FromSeed("untouched-sender");
  state::WorldState state;
  state.RecordAccountPreImages();
  state.AddBalance(key.EthAddress(), kEther);
  state.SetNonce(key.EthAddress(), 4);

  obs::AuditorConfig quiet;
  quiet.dump_flight = false;
  obs::Auditor incremental_sink(quiet);
  obs::Auditor oracle_sink(quiet);
  std::vector<std::unique_ptr<BlockInvariant>> incremental =
      MakeBuiltinInvariants("nonce");
  ASSERT_EQ(incremental.size(), 1u);
  SweepNonce oracle;

  // Block 1 is empty: the baseline.
  Block empty;
  empty.header.number = 1;
  incremental[0]->OnBlockCommit(empty, {}, state, incremental_sink);
  oracle.OnBlockCommit(empty, {}, state, oracle_sink);
  state.ResetAccountPreImages();

  Block block;
  block.header.number = 2;
  block.transactions.push_back(
      SignedTx(key, 4, Address::FromWord(U256(0xbeef)), U256(1), {}, 21'000));
  Receipt receipt;
  receipt.success = true;
  incremental[0]->OnBlockCommit(block, {receipt}, state, incremental_sink);
  oracle.OnBlockCommit(block, {receipt}, state, oracle_sink);

  ASSERT_EQ(incremental_sink.violations(), 1u);
  EXPECT_EQ(incremental_sink.Reports()[0].message,
            "successful transactions did not all consume a nonce");
  EXPECT_EQ(Verdicts(incremental_sink.Reports()),
            Verdicts(oracle_sink.Reports()));
}

INSTANTIATE_TEST_SUITE_P(
    Modes, AuditDifferentialTest,
    ::testing::Values(ExecMode::kSerial, ExecMode::kParallel),
    [](const ::testing::TestParamInfo<ExecMode>& info) {
      return info.param == ExecMode::kSerial ? "Serial" : "Parallel";
    });

// ---- cost -----------------------------------------------------------------

// The accounts a one-transfer block makes the auditor read, after `accounts`
// funded accounts were committed by an earlier block.
uint64_t AccountsCheckedForOneTransfer(size_t accounts) {
  obs::Registry* registry = obs::Registry::Global();
  if (registry == nullptr) return 0;
  Blockchain chain(AuditedConfig(ExecMode::kSerial));
  // Hashed like real addresses (the account map keys on their first bytes).
  auto address = [](size_t i) {
    return Address::FromWord(
        U256::FromBigEndianTruncating(Keccak256(U256(i).ToBytes())));
  };
  for (size_t i = 0; i < accounts; ++i) {
    chain.FundAccount(address(i), U256(1'000));
  }
  PrivateKey sender = PrivateKey::FromSeed("audit-cost");
  chain.FundAccount(sender.EthAddress(), kEther);
  chain.MineBlock();
  uint64_t before = registry->CounterValue("audit.accounts_checked");
  auto receipt = chain.Execute(sender, address(0), U256(1), {}, 21'000);
  EXPECT_TRUE(receipt.ok() && receipt->success);
  EXPECT_EQ(chain.auditor()->violations(), 0u);
  return registry->CounterValue("audit.accounts_checked") - before;
}

TEST(AuditCostTest, OneTransferBlockChecksTheSameAccountsAtAnyStateSize) {
  if (obs::Registry::Global() == nullptr) {
    GTEST_SKIP() << "metrics registry disabled";
  }
  uint64_t small = AccountsCheckedForOneTransfer(1'000);
  uint64_t large = AccountsCheckedForOneTransfer(50'000);
  EXPECT_EQ(small, large);
  // Sender, recipient and coinbase, once for each of the two invariants.
  EXPECT_EQ(small, 6u);
}

// ---- the record itself ----------------------------------------------------

TEST(AccountPreImageTest, RecordsTheFirstChangeOfAccountRecordsOnly) {
  state::WorldState state;
  Address a = Address::FromWord(U256(0xa));
  Address b = Address::FromWord(U256(0xb));
  state.AddBalance(a, U256(5));
  EXPECT_TRUE(state.account_preimages().empty()) << "off by default";

  state.RecordAccountPreImages();
  state.AddBalance(a, U256(7));
  state.SetNonce(a, 3);
  state.SetStorage(b, U256(1), U256(2));  // storage alone records nothing
  auto snap = state.TakeSnapshot();
  state.AddBalance(b, U256(9));
  state.RevertToSnapshot(snap);
  ASSERT_EQ(state.account_preimages().size(), 2u);
  const state::AccountPreImage& pre_a = state.account_preimages().at(a);
  EXPECT_TRUE(pre_a.existed);
  EXPECT_EQ(pre_a.balance, U256(5));
  EXPECT_EQ(pre_a.nonce, 0u);
  // b existed (SetStorage created it) with zero balance; the reverted
  // credit leaves post == pre.
  EXPECT_TRUE(state.account_preimages().at(b).existed);
  EXPECT_EQ(state.GetBalance(b), U256());

  EXPECT_TRUE(state.Clone().account_preimages().empty());
  state.ResetAccountPreImages();
  EXPECT_TRUE(state.account_preimages().empty());
  state.DeleteAccount(a);
  ASSERT_EQ(state.account_preimages().size(), 1u);
  EXPECT_EQ(state.account_preimages().at(a).balance, U256(12));
  EXPECT_EQ(state.account_preimages().at(a).nonce, 3u);
}

}  // namespace
}  // namespace onoff::chain
