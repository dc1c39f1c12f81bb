// The output checkers. Each compares what the node produced with a value
// the benchmark computes on its own (a transfer model, a native keccak
// chain), and returns an empty string when they agree or the reason when
// they do not. --selftest feeds each one a corrupted output.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

#include "chain/block.h"
#include "evm/evm.h"
#include "onoff/protocol.h"
#include "state/world_state.h"
#include "support/address.h"
#include "support/u256.h"

namespace perfbench {

// ---- ledger ----------------------------------------------------------------

inline constexpr uint64_t kTransferGas = 21'000;

// Balances and nonces as plain value transfers should leave them.
class LedgerModel {
 public:
  void Fund(const onoff::Address& addr, const onoff::U256& amount);
  // A transfer that was mined with a successful receipt.
  void Transfer(const onoff::Address& from, const onoff::Address& to,
                const onoff::U256& value, const onoff::U256& fee,
                const onoff::Address& coinbase);
  onoff::U256 Balance(const onoff::Address& addr) const;
  uint64_t Nonce(const onoff::Address& addr) const;
  const std::unordered_map<onoff::Address, onoff::U256>& balances() const {
    return balances_;
  }
  onoff::U256 minted() const { return minted_; }

 private:
  std::unordered_map<onoff::Address, onoff::U256> balances_;
  std::unordered_map<onoff::Address, uint64_t> nonces_;
  onoff::U256 minted_;
};

std::string CheckTransferReceipt(const onoff::chain::Receipt& receipt);
std::string CheckAccount(
    const LedgerModel& model, const onoff::Address& addr,
    const std::optional<onoff::state::WorldState::AccountInfo>& info);
// `balances` sum to `minted`.
std::string CheckConservation(
    const std::unordered_map<onoff::Address, onoff::U256>& balances,
    const onoff::U256& minted);

// ---- games -----------------------------------------------------------------

// The winner of the betting game by the off-chain contract's rule: a keccak
// chain over the two 32-byte secrets. True = bob wins.
bool BobWins(const onoff::U256& secret_alice, const onoff::U256& secret_bob,
             uint64_t iterations);

struct GameOutcome {
  onoff::core::ProtocolReport report;
  onoff::U256 stake;  // each participant's deposit
  onoff::U256 winner_before, winner_after, loser_before, loser_after;
  onoff::U256 contract_after;  // balance left in the on-chain contract
};
// `disputed`: the loser was scripted to go silent.
std::string CheckGame(bool disputed, bool bob_wins, const GameOutcome& game);

// ---- calls -----------------------------------------------------------------

// Heavy function i of the synthetic contract: keccak of the 32-byte word i,
// re-hashed `iterations` times.
onoff::U256 KeccakChain(uint64_t i, uint64_t iterations);
std::string CheckCall(const onoff::evm::ExecResult& result,
                      const onoff::U256& expected);
std::string CheckSlot(const onoff::U256& value, const onoff::U256& expected);

// ---- all -------------------------------------------------------------------

std::string CheckViolations(uint64_t violations);

// Runs every checker on a good and a corrupted output; prints one line per
// case and returns the number of cases decided wrongly.
int SelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
