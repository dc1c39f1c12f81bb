#include "checks.h"

#include <algorithm>
#include <array>
#include <cstdio>

#include "crypto/keccak.h"

namespace perfbench {

using onoff::Address;
using onoff::U256;

namespace {

// 32-byte big-endian word, written out here rather than taken from the
// program's encoders.
std::array<uint8_t, 32> Word(const U256& v) {
  std::array<uint8_t, 32> out{};
  U256 x = v;
  for (int i = 31; i >= 0; --i) {
    out[i] = static_cast<uint8_t>(x.low64() & 0xff);
    x = x >> 8;
  }
  return out;
}

std::string Hex(const U256& v) { return v.ToHex(); }

}  // namespace

// ---- ledger ----------------------------------------------------------------

void LedgerModel::Fund(const Address& addr, const U256& amount) {
  balances_[addr] += amount;
  minted_ += amount;
}

void LedgerModel::Transfer(const Address& from, const Address& to,
                           const U256& value, const U256& fee,
                           const Address& coinbase) {
  balances_[from] -= value + fee;
  balances_[to] += value;
  balances_[coinbase] += fee;
  ++nonces_[from];
}

U256 LedgerModel::Balance(const Address& addr) const {
  auto it = balances_.find(addr);
  return it == balances_.end() ? U256() : it->second;
}

uint64_t LedgerModel::Nonce(const Address& addr) const {
  auto it = nonces_.find(addr);
  return it == nonces_.end() ? 0 : it->second;
}

std::string CheckTransferReceipt(const onoff::chain::Receipt& receipt) {
  if (!receipt.success) return "transfer receipt is not successful";
  if (receipt.gas_used != kTransferGas) {
    return "transfer used " + std::to_string(receipt.gas_used) + " gas, not " +
           std::to_string(kTransferGas);
  }
  return "";
}

std::string CheckAccount(
    const LedgerModel& model, const Address& addr,
    const std::optional<onoff::state::WorldState::AccountInfo>& info) {
  U256 balance = model.Balance(addr);
  uint64_t nonce = model.Nonce(addr);
  if (!info.has_value()) {
    if (balance.IsZero() && nonce == 0) return "";
    return "proof shows no account " + addr.ToHex() + ", model has balance " +
           Hex(balance);
  }
  if (info->balance != balance) {
    return "balance of " + addr.ToHex() + " is " + Hex(info->balance) +
           ", model says " + Hex(balance);
  }
  if (info->nonce != nonce) {
    return "nonce of " + addr.ToHex() + " is " + std::to_string(info->nonce) +
           ", model says " + std::to_string(nonce);
  }
  return "";
}

std::string CheckConservation(
    const std::unordered_map<Address, U256>& balances, const U256& minted) {
  U256 total;
  for (const auto& [addr, balance] : balances) total += balance;
  if (total != minted) {
    return "balances sum to " + Hex(total) + ", minted " + Hex(minted);
  }
  return "";
}

// ---- games -----------------------------------------------------------------

bool BobWins(const U256& secret_alice, const U256& secret_bob,
             uint64_t iterations) {
  std::array<uint8_t, 64> seed{};
  std::array<uint8_t, 32> a = Word(secret_alice), b = Word(secret_bob);
  std::copy(a.begin(), a.end(), seed.begin());
  std::copy(b.begin(), b.end(), seed.begin() + 32);
  onoff::Hash32 h = onoff::Keccak256(onoff::BytesView(seed.data(), 64));
  for (uint64_t i = 0; i < iterations; ++i) {
    h = onoff::Keccak256(onoff::BytesView(h.data(), h.size()));
  }
  return (h[31] & 1) != 0;
}

std::string CheckGame(bool disputed, bool bob_wins, const GameOutcome& game) {
  using onoff::core::Settlement;
  const onoff::core::ProtocolReport& r = game.report;
  Settlement want = disputed ? Settlement::kDisputed : Settlement::kOptimistic;
  if (r.settlement != want) {
    return std::string("settled ") + onoff::core::SettlementName(r.settlement) +
           ", scripted " + onoff::core::SettlementName(want);
  }
  if (r.bob_won != bob_wins) {
    return std::string("protocol named ") + (r.bob_won ? "bob" : "alice") +
           " the winner, the keccak chain names " + (bob_wins ? "bob" : "alice");
  }
  if (disputed ? r.private_bytes_revealed == 0
               : r.private_bytes_revealed != 0) {
    return "private_bytes_revealed = " +
           std::to_string(r.private_bytes_revealed) + " on a " +
           (disputed ? "disputed" : "optimistic") + " game";
  }
  // The winner gets both stakes back, less its own gas; the loser loses its
  // stake and its gas. Gas costs stay far below this allowance at a gas
  // price of 1 wei.
  const U256 gas_allowance(1'000'000'000'000'000ULL);
  U256 winner_max = game.winner_before + game.stake;
  if (game.winner_after > winner_max ||
      game.winner_after + gas_allowance < winner_max) {
    return "winner holds " + Hex(game.winner_after) + ", expected about " +
           Hex(winner_max);
  }
  if (game.loser_after + game.stake > game.loser_before) {
    return "loser kept its stake: " + Hex(game.loser_after);
  }
  if (!game.contract_after.IsZero()) {
    return "on-chain contract still holds " + Hex(game.contract_after);
  }
  return "";
}

// ---- calls -----------------------------------------------------------------

U256 KeccakChain(uint64_t i, uint64_t iterations) {
  std::array<uint8_t, 32> seed = Word(U256(i));
  onoff::Hash32 h = onoff::Keccak256(onoff::BytesView(seed.data(), 32));
  for (uint64_t k = 0; k < iterations; ++k) {
    h = onoff::Keccak256(onoff::BytesView(h.data(), h.size()));
  }
  return U256::FromBigEndianTruncating(onoff::BytesView(h.data(), h.size()));
}

std::string CheckCall(const onoff::evm::ExecResult& result,
                      const U256& expected) {
  if (!result.ok()) return "local call did not succeed";
  if (result.output.size() != 32) {
    return "local call returned " + std::to_string(result.output.size()) +
           " bytes";
  }
  U256 got = U256::FromBigEndianTruncating(result.output);
  if (got != expected) {
    return "local call returned " + Hex(got) + ", keccak chain gives " +
           Hex(expected);
  }
  return "";
}

std::string CheckSlot(const U256& value, const U256& expected) {
  if (value != expected) {
    return "slot holds " + Hex(value) + ", expected " + Hex(expected);
  }
  return "";
}

// ---- all -------------------------------------------------------------------

std::string CheckViolations(uint64_t violations) {
  if (violations == 0) return "";
  return std::to_string(violations) + " invariant violations";
}

// ---- self-test ---------------------------------------------------------------

int SelfTest() {
  int wrong = 0;
  auto expect = [&wrong](const char* name, bool accept,
                         const std::string& verdict) {
    bool ok = accept == verdict.empty();
    if (!ok) ++wrong;
    std::printf("%-4s %-44s %s%s\n", ok ? "ok" : "FAIL", name,
                verdict.empty() ? "accepted" : "rejected: ",
                verdict.c_str());
  };

  // Ledger: a model with two funded accounts and one transfer.
  Address a = Address::FromWord(U256(0xa)), b = Address::FromWord(U256(0xb));
  Address coinbase = Address::FromWord(U256(0xc));
  LedgerModel model;
  model.Fund(a, U256(1'000'000));
  model.Fund(b, U256(1'000'000));
  model.Transfer(a, b, U256(5), U256(kTransferGas), coinbase);
  onoff::state::WorldState::AccountInfo info;
  info.balance = U256(1'000'000 - 5 - kTransferGas);
  info.nonce = 1;
  expect("ledger account proof", true, CheckAccount(model, a, info));
  onoff::state::WorldState::AccountInfo stolen = info;
  stolen.balance += U256(1);
  expect("ledger account proof, balance +1 wei", false,
         CheckAccount(model, a, stolen));
  onoff::state::WorldState::AccountInfo replayed = info;
  replayed.nonce = 0;
  expect("ledger account proof, nonce not advanced", false,
         CheckAccount(model, a, replayed));
  expect("ledger account proof, account missing", false,
         CheckAccount(model, a, std::nullopt));
  onoff::chain::Receipt receipt;
  receipt.success = true;
  receipt.gas_used = kTransferGas;
  expect("ledger receipt", true, CheckTransferReceipt(receipt));
  onoff::chain::Receipt failed = receipt;
  failed.success = false;
  expect("ledger receipt, failed", false, CheckTransferReceipt(failed));
  onoff::chain::Receipt costly = receipt;
  costly.gas_used += 1;
  expect("ledger receipt, 21001 gas", false, CheckTransferReceipt(costly));
  expect("ledger conservation", true,
         CheckConservation(model.balances(), model.minted()));
  auto minted = model.balances();
  minted[b] += U256(1);
  expect("ledger conservation, 1 wei minted", false,
         CheckConservation(minted, model.minted()));

  // Games: an optimistic game alice wins, then corrupted copies.
  U256 sa(0xa11ce), sb(0xb0b);
  bool bob = BobWins(sa, sb, 100);
  GameOutcome game;
  game.report.settlement = onoff::core::Settlement::kOptimistic;
  game.report.bob_won = bob;
  game.stake = U256(1'000'000'000'000'000'000ULL);
  game.winner_before = U256(5) * game.stake;
  game.winner_after = game.winner_before + game.stake - U256(90'000);
  game.loser_before = U256(5) * game.stake;
  game.loser_after = game.loser_before - game.stake - U256(40'000);
  expect("games optimistic outcome", true, CheckGame(false, bob, game));
  GameOutcome wrong_winner = game;
  wrong_winner.report.bob_won = !bob;
  expect("games, winner flipped", false, CheckGame(false, bob, wrong_winner));
  GameOutcome unpaid = game;
  unpaid.winner_after = unpaid.winner_before - U256(90'000);
  expect("games, winner not paid the pot", false,
         CheckGame(false, bob, unpaid));
  GameOutcome leaked = game;
  leaked.report.private_bytes_revealed = 10;
  expect("games, optimistic game revealed bytes", false,
         CheckGame(false, bob, leaked));
  GameOutcome not_disputed = game;
  expect("games, silent loser settled optimistically", false,
         CheckGame(true, bob, not_disputed));
  GameOutcome disputed = game;
  disputed.report.settlement = onoff::core::Settlement::kDisputed;
  disputed.report.private_bytes_revealed = 900;
  expect("games disputed outcome", true, CheckGame(true, bob, disputed));
  GameOutcome hidden = disputed;
  hidden.report.private_bytes_revealed = 0;
  expect("games, disputed game revealed nothing", false,
         CheckGame(true, bob, hidden));
  GameOutcome stuck = game;
  stuck.contract_after = U256(1);
  expect("games, pot left in contract", false, CheckGame(false, bob, stuck));

  // Calls: a local call and slots against the native keccak chain.
  U256 h = KeccakChain(3, 200);
  onoff::evm::ExecResult call;
  call.outcome = onoff::evm::Outcome::kSuccess;
  std::array<uint8_t, 32> word = Word(h);
  call.output.assign(word.begin(), word.end());
  expect("calls local call", true, CheckCall(call, h));
  onoff::evm::ExecResult off_by_one = call;
  off_by_one.output[31] ^= 1;
  expect("calls local call, last bit flipped", false,
         CheckCall(off_by_one, h));
  onoff::evm::ExecResult short_chain = call;
  U256 h199 = KeccakChain(3, 199);
  word = Word(h199);
  short_chain.output.assign(word.begin(), word.end());
  expect("calls local call, one iteration short", false,
         CheckCall(short_chain, h));
  expect("calls heavy slot", true, CheckSlot(h, h));
  expect("calls heavy slot, stale value", false, CheckSlot(U256(), h));
  expect("calls light slot, wrong value", false, CheckSlot(U256(2), U256(3)));

  // Every workload: the auditor count.
  expect("auditor, zero violations", true, CheckViolations(0));
  expect("auditor, one violation", false, CheckViolations(1));

  std::printf("%d checker case(s) decided wrongly\n", wrong);
  return wrong;
}

}  // namespace perfbench
